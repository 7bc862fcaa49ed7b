"""Class U and Class M witness objects and the two lower-bound routes.

A Class U witness is a pair (lambda, H) strengthening degenerate ellipticity
by a lambda tr(M - B) + H(omega) gap. A Class M witness is one side g_i of
the weaker, per-side bound machinery: an increasing bijection t -> g_i(t, M)
whose zero crossing g_i(-, M)^{-1}(0), scaled onto the identity, bounds the
limit matrices of the improved two-sided block inequality.

Shipped witness families (all with closed-form inverse-at-zero):

  class_u_to_class_m   embeds any (lambda, H) pair as a (g1, g2) pair
  witness_p_laplace    the p-Laplace pair, separate branches for p >= 2
                       and 1 < p < 2
  witness_eig_sum      the eigenvalue-sum pair for H unbounded both ways

Every witness captures its jet point at construction; build a new witness to
change omega. Witness objects are immutable and evaluation is pure.

Note on signs: condition 4 is condition 3 read on -M, so each pair builds
g1 and g2 through one local side(which, s) at s = +1 and s = -1; as s = +-1
multiplies exactly and x - (-y) = x + y, each side keeps the bits of its
formula. The embedding's g2 has a plus on lambda_1(M), forced by condition 4
(tr Y + tr M >= lambda_N(Y) + lambda_1(M) for -M <= Y); the eigenvalue-sum
g2 sums H(lambda_j(-M)) over the N-1 smallest such values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .errors import (BadArgument, BadParams, DimMismatch, NonFiniteValue, NotInClassM, OutOfDomain,
                     _instance, _positive, _real)
from .operators import (GRAD_NORM_FLOOR, JetPoint, MonotoneFunction, OperatorDescriptor, _finite,
                        _jsonable)
from .symmat import SymmetricMatrix

BISECT_BRACKET = 1e9
BISECT_TOL = 1e-10


@dataclass(frozen=True)
class ClassUWitness:
    """A uniform-ellipticity witness: lambda > 0 and a locally bounded H(omega)."""

    lam: float
    H: Callable[[JetPoint], float]
    name: str = "class_u"

    def __post_init__(self):
        object.__setattr__(self, "lam", _positive("lam", self.lam))


def class_u_constant(lam: float, h_const: float = 0.0) -> ClassUWitness:
    """Witness with constant H; the common case (H == 0 for linear operators)."""
    lam = _positive("lam", lam)
    h_const = _real("H", h_const, math.isfinite, "finite")
    return ClassUWitness(lam, lambda _w: h_const, name=f"class_u(lam={lam:g}, H={h_const:g})")


@dataclass(frozen=True)
class ClassMWitness:
    """One side (g1 or g2) of a Class M witness pair.

    ``eval_fn(t, M)`` must be an increasing bijection of R in t for each M in
    the domain; ``inv_at_zero_fn`` is its zero crossing in closed form, or
    None to fall back on bisection over [-1e9, 1e9] at tolerance 1e-10.
    ``domain_S`` restricts the matrices the witness is defined on (default:
    all of S(N)). ``context`` records the jet point the witness was built at.
    """

    name: str
    which: str
    eval_fn: Callable[[float, SymmetricMatrix], float] = field(repr=False)
    inv_at_zero_fn: Optional[Callable[[SymmetricMatrix], float]] = field(default=None, repr=False)
    domain_S: Callable[[SymmetricMatrix], bool] = field(default=lambda m: True, repr=False)
    context: Optional[JetPoint] = None

    def __post_init__(self):
        if self.which not in ("g1", "g2"):
            raise BadParams(f"which must be 'g1' or 'g2', got {self.which!r}")

    def _gate(self, m: SymmetricMatrix):
        if not self.domain_S(m):
            raise OutOfDomain(f"{self.name}: matrix is outside this witness's domain")

    def evaluate(self, t: float, m: SymmetricMatrix, *, checked: bool = True) -> float:
        """g(t, M); ``checked=False`` skips the domain gate and the number rule on t, for a
        caller that passes a float t in the domain."""
        if checked:
            self._gate(m)
            t = _real("t", t, math.isfinite, "finite", BadArgument)
        return _finite(self.name, self.eval_fn, float(t), m)

    def inv_at_zero(self, m: SymmetricMatrix, *, checked: bool = True) -> float:
        """g(-, M)^{-1}(0); ``checked=False`` skips the domain gate, as for ``evaluate``."""
        if checked:
            self._gate(m)
        if self.inv_at_zero_fn is None:
            return bisect_inverse_at_zero(self.eval_fn, m)
        return _finite(self.name, self.inv_at_zero_fn, m)


def bisect_inverse_at_zero(eval_fn, m: SymmetricMatrix) -> float:
    """Zero crossing of t -> eval_fn(t, m) by bisection on [-BISECT_BRACKET, BISECT_BRACKET]."""
    lo, hi = -BISECT_BRACKET, BISECT_BRACKET
    flo, fhi = eval_fn(lo, m), eval_fn(hi, m)
    if flo > 0.0 or fhi < 0.0:
        raise BadArgument(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={flo:g}, f(hi)={fhi:g}"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if eval_fn(mid, m) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def class_u_to_class_m(op: OperatorDescriptor, w: ClassUWitness,
                       omega: JetPoint) -> tuple[ClassMWitness, ClassMWitness]:
    """Embed a Class U witness as a Class M pair at the given jet point.

      g1(t, M) = lam t - lam lambda_1(M) - H(omega) - F(omega, M)
      g2(t, M) = lam t + lam lambda_1(M) + H(omega) - F(omega, -M)

    with zero crossings
      g1(-, M)^{-1}(0) = (H(omega) + F(omega, M)) / lam + lambda_1(M)
      g2(-, M)^{-1}(0) = (F(omega, -M) - H(omega)) / lam - lambda_1(M).

    Matrices outside op's domain raise OutOfDomain when either member is
    evaluated (the witness domain is exactly where F itself is defined).
    """
    lam = w.lam
    h_val = float(w.H(omega))

    def side(which, s):
        at = (lambda m: m) if s > 0 else (lambda m: m.negated())

        def g_eval(t, m):
            lam1 = float(m.eigenvalues()[0])
            return lam * t - s * lam * lam1 - s * h_val - op.evaluate(omega, at(m))

        def g_inv(m):
            return (s * h_val + op.evaluate(omega, at(m))) / lam + s * float(m.eigenvalues()[0])

        return ClassMWitness(name=f"class_u_{which}[{op.name}]", which=which, eval_fn=g_eval,
                             inv_at_zero_fn=g_inv, domain_S=lambda m: op.in_domain(omega, at(m)),
                             context=omega)

    return side("g1", 1.0), side("g2", -1.0)


def witness_p_laplace(p: float, omega: JetPoint,
                      homogeneous: bool = False) -> tuple[ClassMWitness, ClassMWitness]:
    """The p-Laplace witness pair at omega; exists iff p is in (1, inf).

    For p >= 2:
      g1(t, M) = |nu|^(p-2) [t + (N+p-3) lambda_N(M)],   inverse at zero
      -(N+p-3) lambda_N(M), and g2 the mirrored pair with +(N+p-3) lambda_N(M).
    For 1 < p < 2 the slope is (p-1) and the coefficient (N-1), giving
      -(N-1)/(p-1) lambda_N(M).

    With ``homogeneous`` the |nu|^(p-2) prefactor is dropped, which leaves
    every inverse at zero unchanged.
    """
    p = _real("p", p, math.isfinite, "finite")
    if p <= 1.0:
        raise NotInClassM(f"the p-Laplace operator has a witness pair iff 1 < p < inf, got p={p}")
    nn = _instance("omega", omega, JetPoint, BadParams)._nu_norm
    if nn < GRAD_NORM_FLOOR:
        raise OutOfDomain("p-Laplace witnesses need a nonzero gradient slot")
    n = omega.dim
    try:  # a huge |nu| or p overflows the prefactor, and evaluate refuses the inf
        coef = 1.0 if homogeneous else nn ** (p - 2.0)
    except OverflowError:
        coef = math.inf
    if p >= 2.0:
        slope, kappa = 1.0, float(n + p - 3.0)
    else:
        slope, kappa = p - 1.0, float(n - 1)

    def domain(m):
        if m.dim != n:
            raise DimMismatch(f"witness built for dim {n}, got a {m.dim}x{m.dim} matrix")
        return True

    def make(which, sign):
        def g_eval(t, m):
            return coef * (slope * t + sign * kappa * float(m.eigenvalues()[-1]))

        def g_inv(m):
            return -sign * (kappa / slope) * float(m.eigenvalues()[-1])

        tag = "homog_" if homogeneous else ""
        return ClassMWitness(name=f"p_laplace_{tag}{which}(p={p:g})", which=which,
                             eval_fn=g_eval, inv_at_zero_fn=g_inv, domain_S=domain,
                             context=omega)

    return make("g1", +1.0), make("g2", -1.0)


def witness_eig_sum(h: MonotoneFunction) -> tuple[ClassMWitness, ClassMWitness]:
    """The eigenvalue-sum witness pair; exists iff H is unbounded both ways.

      g1(t, M) = H(t) + sum_{j=2}^{N} H(lambda_j(M))
      g2(t, M) = H(t) + sum_{j=1}^{N-1} H(lambda_j(-M))

    so g1(-, M)^{-1}(0) = H^{-1}(-sum_{j>=2} H(lambda_j(M))) and likewise for
    g2. Context-free: the operator never reads the jet point.
    """
    h = _instance("h", h, MonotoneFunction, BadParams)
    if not h.unbounded:
        raise NotInClassM(
            f"eig_sum({h.name}) has a witness pair iff H is unbounded above and below"
        )

    def side(which, s):
        def tail(m):  # H(s lambda_j(M)) over j = 2..N, in increasing order of s lambda_j(M)
            evals = m.eigenvalues()[1:].tolist()
            return sum(h.forward(s * v) for v in (evals if s > 0 else evals[::-1]))

        return ClassMWitness(name=f"eig_sum_{which}({h.name})", which=which,
                             eval_fn=lambda t, m: h.forward(t) + tail(m),
                             inv_at_zero_fn=lambda m: h.inverse(-tail(m)))

    return side("g1", 1.0), side("g2", -1.0)


@dataclass(frozen=True)
class BoundReport:
    """Scalar lower bounds c with cI <= X and cI <= -Y, plus diagnostics.

    ``upper_block_ok`` records the Loewner check diag(X, -Y) <= A when the
    full pipeline ran it; bound-only routes leave it True and note
    ``block_checked: False`` in the details.
    """

    lower_X: float
    lower_negY: float
    upper_block_ok: bool
    witness: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.lower_X) and math.isfinite(self.lower_negY)):
            raise NonFiniteValue("bound report scalars must be finite")

    def to_json_obj(self) -> dict:
        return _jsonable(self, "bound_report")


def _default_lam(op: OperatorDescriptor) -> Optional[float]:
    """The default Class U slope: theta for linear_uniform, 1 for sqrt_gradient, -tr X (eig_sum
    of the identity, k_hessian at k = 1) and the Laplacian (p-Laplace at p = 2), else None."""
    if op.family == "linear_uniform":
        return op.params["theta"]
    laplacian = op.family in ("p_laplace", "p_laplace_homog") and op.params["p"] == 2.0
    trace = (op.family == "eig_sum" and op.params["h"].name == "identity"
             or op.family == "k_hessian" and op.params["k"] == 1)
    return 1.0 if laplacian or trace or op.family == "sqrt_gradient" else None


def auto_witness_pair(op: OperatorDescriptor, omega_x: JetPoint, omega_y: JetPoint,
                      lam: Optional[float] = None,
                      h_const: float = 0.0) -> tuple[ClassMWitness, ClassMWitness]:
    """Canonical witness pair for a catalog operator.

    When ``lam`` is given, every family gets the Class U embedding of the
    (lam, h_const) witness, g1 at omega_x and g2 at omega_y. When it is
    None, p-Laplace families get their dedicated pair (NotInClassM at p = 1),
    eigenvalue sums get theirs, the families with a ``_default_lam`` get the
    embedding at that slope, and the other families raise NotInClassM.
    """
    fam = op.family
    if lam is None and fam in ("p_laplace", "p_laplace_homog"):
        homog = fam == "p_laplace_homog"
        g1 = witness_p_laplace(op.params["p"], omega_x, homogeneous=homog)[0]
        g2 = witness_p_laplace(op.params["p"], omega_y, homogeneous=homog)[1]
        return g1, g2
    if lam is None and fam == "eig_sum":
        return witness_eig_sum(op.params["h"])
    lam = _default_lam(op) if lam is None else lam
    if lam is not None:
        w = class_u_constant(lam, h_const)
        g1 = class_u_to_class_m(op, w, omega_x)[0]
        g2 = class_u_to_class_m(op, w, omega_y)[1]
        return g1, g2
    raise NotInClassM(f"no shipped witness pair for {op.name}")


def theorem_lower_bounds(g1: ClassMWitness, g2: ClassMWitness,
                         e: SymmetricMatrix, d: SymmetricMatrix) -> BoundReport:
    """Bounds from the witness route: g1(-, E)^{-1}(0) I <= X and
    -[g2(-, D)^{-1}(0)] I <= -Y; E and D must have one size."""
    if d.dim != e.dim:
        raise DimMismatch(f"E is {e.dim}x{e.dim} but D is {d.dim}x{d.dim}")
    lower_x = g1.inv_at_zero(e)
    lower_neg_y = -g2.inv_at_zero(d)
    return BoundReport(
        lower_X=lower_x,
        lower_negY=lower_neg_y,
        upper_block_ok=True,
        witness=f"{g1.name} / {g2.name}",
        details={"route": "theorem", "block_checked": False,
                 "lambda_min_E": float(e.eigenvalues()[0]),
                 "lambda_max_D": float(d.eigenvalues()[-1])},
    )


def corollary_bounds(op: OperatorDescriptor, w: ClassUWitness,
                     wx: JetPoint, wy: JetPoint,
                     e: SymmetricMatrix, d: SymmetricMatrix) -> BoundReport:
    """Direct bounds for Class U operators:

      lower_X    = (H(wx) + F(wx, E)) / lam + lambda_1(E)
      lower_negY = (H(wy) - F(wy, -D)) / lam - lambda_N(-D)

    Computed as theorem_lower_bounds on the class_u_to_class_m pair at wx and wy, so the
    routes agree by construction; a zero lower_negY stays +0.0 where that route gives -0.0.
    """
    report = theorem_lower_bounds(class_u_to_class_m(op, w, wx)[0],
                                  class_u_to_class_m(op, w, wy)[1], e, d)
    return replace(report, lower_negY=report.lower_negY + 0.0, witness=f"{w.name}[{op.name}]",
                   details={"route": "corollary", "block_checked": False, "lam": w.lam})
