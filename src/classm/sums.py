"""Numerical embodiment of the improved two-sided block inequality pipeline.

The pipeline mirrors, at the level of matrix data, the compactness argument
that removes the eps A^2 term from the two-sided inequality

    -(1/eps + ||A||) I  <=  diag(X_eps, -Y_eps)  <=  A + eps A^2 :

1. `hessian_blocks` supplies A from quadratic doubling, the only test function,
   z(x, y) = (alpha/2) |x - y|^2, whose blocks are the closed forms
   (E, B, D) = (alpha I, -alpha I, alpha I) with A^2 = 2 alpha A.
2. `generate_admissible` manufactures pairs (X_eps, Y_eps) that satisfy the
   inequality for every eps in a schedule. The construction is this
   artifact's own: with W = A + eps A^2 it recenters the diagonal blocks by
   c_eps = sigma_max(W_12) + slack, which makes W - diag(X_eps, -Y_eps) a
   PSD two-by-two block pattern by the singular-value bound on the coupling
   block. Each Y_eps carries the -Y_eps it came from as its negation.
3. `lemma_upper_bound` checks the eps-uniform upper bounds
   X_eps <= E + eps0 (E^2 + B B^T) and -Y_eps <= D + eps0 (D^2 + B^T B).
4. `extract_limit` runs the Cauchy-tail stand-in for subsequence extraction.
5. `verify_conclusion` checks diag(X, -Y) <= A, the witness lower bounds,
   and the per-eps implication chain (F <= 0 at X_eps forces lambda_1(X_eps)
   above the witness's inverse at zero, and symmetrically for Y_eps).

Per-eps work is independent (safe to parallelize); family assembly preserves
schedule order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BadArgument, BadParams, DimMismatch, NonConvergent, SlackTooLarge,
                     ToolkitError, _array, _integer, _positive, _real)
from .falsify import Certificate, PassReport
from .operators import JetPoint, OperatorDescriptor, _jsonable
from .symmat import (
    BlockMatrix2N,
    SymmetricMatrix,
    _lambda1_at_least,
    block_compose,
    loewner_leq,
    operator_norm,
)
from .witnesses import BoundReport, theorem_lower_bounds

EQ1_TOL = 1e-8


@dataclass(frozen=True)
class TestFunction:
    """Quadratic doubling test function z(x, y) = (alpha/2) |x - y|^2.

    Anchors (x_hat, y_hat) fix the gradient slots p = q = alpha (x_hat -
    y_hat); the Hessian blocks are constant: E = alpha I, B = -alpha I,
    D = alpha I. Defaults place x_hat at e1 / alpha so that p = e1, which
    keeps gradient-singular operators inside their domain.
    """

    alpha: float
    dim: int
    x_hat: np.ndarray | None = None
    y_hat: np.ndarray | None = None

    def __post_init__(self):
        alpha = _positive("alpha", self.alpha)
        dim = _integer("dim", self.dim, 1)
        # a given anchor is read as a new array, since it is frozen below; x_hat = e1 / alpha
        x_hat = np.eye(1, dim)[0] / alpha if self.x_hat is None else _array("x_hat", self.x_hat, 1)
        y_hat = np.zeros(dim) if self.y_hat is None else _array("y_hat", self.y_hat, 1)
        if x_hat.shape != (dim,) or y_hat.shape != (dim,):
            raise BadParams(f"anchors must be vectors of length {dim}")
        x_hat.setflags(write=False)
        y_hat.setflags(write=False)
        self.__dict__.update(alpha=alpha, dim=dim, x_hat=x_hat, y_hat=y_hat)

    @property
    def p(self) -> np.ndarray:
        return self.alpha * (self.x_hat - self.y_hat)

    q = p


def quadratic_doubling(alpha: float, dim: int, x_hat=None, y_hat=None) -> TestFunction:
    return TestFunction(alpha, dim, x_hat, y_hat)


def hessian_blocks(tf: TestFunction) -> BlockMatrix2N:
    """Second-derivative blocks of the test function: (E, B, D) = (alpha I, -alpha I, alpha I)."""
    e = SymmetricMatrix(tf.alpha * np.eye(tf.dim))
    return block_compose(e, -e.entries, e)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing positive eps values inside (0, eps0)."""

    eps0: float
    values: tuple

    def __post_init__(self):
        eps0 = _positive("eps0", self.eps0, BadArgument)
        vals = tuple(_real("each value", v, lambda e: 0.0 < e < eps0, "in (0, eps0)", BadArgument)
                     for v in self.values)
        if not vals:
            raise BadArgument("schedule must be nonempty")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise BadArgument("schedule values must be strictly decreasing")
        self.__dict__.update(eps0=eps0, values=vals)

    @classmethod
    def geometric(cls, eps0: float = 1.0, ratio: float = 0.5,
                  count: int = 40) -> "EpsilonSchedule":
        eps0 = _positive("eps0", eps0, BadArgument)
        ratio = _real("ratio", ratio, lambda v: 0.0 < v < 1.0, "in (0, 1)", BadArgument)
        count = _integer("count", count, 1, BadArgument)
        return cls(eps0, tuple(eps0 * ratio ** i for i in range(1, count + 1)))

    def to_json_obj(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class AdmissibleFamily:
    """Pairs (X_eps, Y_eps) satisfying the two-sided block inequality.

    Built by `generate_admissible`; every pair satisfies
    -(1/eps + ||A||) I <= diag(X_eps, -Y_eps) <= A + eps A^2 at tolerance
    1e-8 (`verify_eq1` rechecks it from scratch).
    """

    A: BlockMatrix2N
    schedule: EpsilonSchedule
    pairs: tuple


def _sigma_max(block: np.ndarray) -> float:
    gram = SymmetricMatrix(block.T @ block)
    top = float(gram.eigenvalues()[-1])
    return math.sqrt(max(top, 0.0))


def generate_admissible(a: BlockMatrix2N, sched: EpsilonSchedule,
                        slack: float = 0.0) -> AdmissibleFamily:
    """Build (X_eps, Y_eps) pairs satisfying the two-sided inequality.

    For each eps: W = A + eps A^2, c_eps = sigma_max(W_12) + slack,
    X_eps = W_11 - c_eps I and -Y_eps = W_22 - c_eps I. sigma_max and slack
    are subtracted one after the other, so slack is not rounded at the scale
    of sigma_max: on the quadratic family X_eps is exactly -slack I. The upper
    inequality holds because [[c I, W_12], [W_21, c I]] is PSD whenever
    c >= sigma_max(W_12); the lower one is checked per eps and a violation
    raises SlackTooLarge. With slack = 0 the recentering is guaranteed to fit
    above the -(1/eps + ||A||) floor whenever eps * ||A|| <= sqrt(3)/2 for
    every scheduled eps (lambda_1(W) >= -1/(4 eps) while sigma_max(W_12) <=
    ||A|| + eps ||A||^2); beyond that envelope, or for huge slack, the error
    is the documented outcome. The construction is closed form: nothing is drawn.
    """
    slack = _real("slack", slack, lambda v: 0.0 <= v < math.inf, "finite and >= 0", BadArgument)
    n = a.dim_half
    eye = np.eye(n)
    pairs = []
    for eps in sched.values:
        w = a.assemble().entries + eps * a.square()
        sigma_eye = _sigma_max(w[:n, n:]) * eye
        x, neg_y = (SymmetricMatrix(w[s, s] - sigma_eye - slack * eye)
                    for s in (slice(None, n), slice(n, None)))
        if not (_above_floor(a, eps, x) and _above_floor(a, eps, neg_y)):
            norm_a = operator_norm(a.assemble())
            floor = -(1.0 / eps + norm_a)
            lowest = min(float(x.eigenvalues()[0]), float(neg_y.eigenvalues()[0]))
            raise SlackTooLarge(
                f"recentered blocks fall below the -(1/eps + ||A||) floor at eps = {eps:g} "
                f"({lowest:g} < {floor:g}); slack = {slack:g}, eps * ||A|| = {eps * norm_a:g} "
                f"(the construction needs slack small and eps * ||A|| <= 0.86)"
            )
        y = SymmetricMatrix._symmetric(-neg_y.entries)
        y._negation = neg_y  # one way only: neg_y keeps no link back, so no reference cycle
        pairs.append((x, y))
    return AdmissibleFamily(A=a, schedule=sched, pairs=tuple(pairs))


def _above_floor(a: BlockMatrix2N, eps: float, m: SymmetricMatrix) -> bool:
    """lambda_1(m) + 1/eps + ||A|| >= -EQ1_TOL: m clears the lower side of the inequality."""
    # fl(1/eps) <= fl(1/eps + ||A||), so a matrix that clears -1/eps needs no ||A||
    return (_lambda1_at_least(m, -EQ1_TOL, 1.0 / eps)
            or _lambda1_at_least(m, -EQ1_TOL, 1.0 / eps + operator_norm(a.assemble())))


def _diag_x_neg_y(n: int, x: SymmetricMatrix, y: SymmetricMatrix) -> SymmetricMatrix:
    """diag(X, -Y), finite and symmetric bit for bit by construction; X and Y must be N x N."""
    if x.dim != n or y.dim != n:
        raise DimMismatch(f"pair dims ({x.dim}, {y.dim}) do not match blocks dim {n}")
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = x.entries
    out[n:, n:] = y.negated().entries
    return SymmetricMatrix._symmetric(out)


def _eq1_terms(a: BlockMatrix2N, eps: float, x: SymmetricMatrix, y: SymmetricMatrix):
    """(diag(X, -Y), A + eps A^2 - diag(X, -Y)): the two-sided inequality holds iff
    lambda_1 of the first plus 1/eps + ||A|| and lambda_1 of the second are both >= 0."""
    diag = _diag_x_neg_y(a.dim_half, x, y)
    w = SymmetricMatrix(a.assemble().entries + eps * a.square())
    return diag, SymmetricMatrix(w.entries - diag.entries)


def _eq1_margins(a: BlockMatrix2N, eps: float, x: SymmetricMatrix,
                 y: SymmetricMatrix) -> tuple[float, float]:
    """lambda_1(diag(X, -Y)) + 1/eps + ||A|| and lambda_1(A + eps A^2 - diag(X, -Y))."""
    diag, gap = _eq1_terms(a, eps, x, y)
    return (float(diag.eigenvalues()[0]) + (1.0 / eps + operator_norm(a.assemble())),
            float(gap.eigenvalues()[0]))


def verify_eq1(a: BlockMatrix2N, eps: float, x: SymmetricMatrix, y: SymmetricMatrix) -> bool:
    """Recheck both sides of the two-sided inequality for one pair, at tolerance EQ1_TOL."""
    eps = _positive("eps", eps, BadArgument)
    diag, gap = _eq1_terms(a, eps, x, y)
    return _above_floor(a, eps, diag) and _lambda1_at_least(gap, -EQ1_TOL)


def _upper_bounds(a: BlockMatrix2N, eps0: float):
    """(E~, D~) = (E^2 + B B^T, D^2 + B^T B) and the bounds (E + eps0 E~, D + eps0 D~)."""
    e, b, d = a.E, a.B, a.D
    e_tilde = SymmetricMatrix(e.entries @ e.entries + b @ b.T)
    d_tilde = SymmetricMatrix(d.entries @ d.entries + b.T @ b)
    return ((e_tilde, d_tilde),
            (SymmetricMatrix(e.entries + eps0 * e_tilde.entries),
             SymmetricMatrix(d.entries + eps0 * d_tilde.entries)))


def lemma_upper_bound(a: BlockMatrix2N, eps0: float, family: AdmissibleFamily):
    """Check the eps-uniform upper bounds on every pair of the family.

    X_eps <= E + eps0 (E^2 + B B^T) and -Y_eps <= D + eps0 (D^2 + B^T B)
    must hold for every eps in (0, eps0); the block identity
    A^2 = [[E^2 + B B^T, *], [*, D^2 + B^T B]] is verified numerically as
    well. Returns PassReport or the first violation as a Certificate.
    """
    eps0 = _positive("eps0", eps0, BadArgument)
    if any(eps >= eps0 for eps in family.schedule.values):
        raise BadArgument("the family's schedule must lie inside (0, eps0)")
    n = a.dim_half
    (e_tilde, d_tilde), (bound_x, bound_y) = _upper_bounds(a, eps0)
    a2 = a.square()
    scale = max(1.0, float(np.max(np.abs(a2))))
    if (float(np.max(np.abs(a2[:n, :n] - e_tilde.entries))) > 1e-9 * scale
            or float(np.max(np.abs(a2[n:, n:] - d_tilde.entries))) > 1e-9 * scale):
        raise ToolkitError("block identity for A^2 failed; assembly is inconsistent")
    for idx, (eps, (x, y)) in enumerate(zip(family.schedule.values, family.pairs)):
        for side, mat, bound in (("X", x, bound_x), ("negY", y.negated(), bound_y)):
            if not loewner_leq(mat, bound, EQ1_TOL):
                recheck = lambda mat=mat, bound=bound: -float(
                    SymmetricMatrix(bound.entries - mat.entries).eigenvalues()[0])
                margin = recheck()
                return Certificate(
                    kind="lemma_upper_bound.violation",
                    witnesses={"side": side, "eps": eps, "eps0": eps0,
                               "matrix": mat, "bound": bound},
                    inequality_values={"lambda1_of_gap": -margin},
                    margin=margin,
                    trial_index=idx,
                    description="a generated pair escaped the eps-uniform upper bound, "
                                "which a sound generator must never produce",
                    recheck=recheck,
                )
    return PassReport(
        kind="lemma_upper_bound", trials=2 * len(family.pairs), probes=0,
        config={"eps0": eps0, "schedule_len": len(family.pairs)},
        details={"dim_half": n},
    )


def extract_limit(family: AdmissibleFamily):
    """Entrywise limit of the schedule tail, or NonConvergent.

    The last (up to) 10 pairs must be Cauchy: the max entrywise oscillation
    across the tail has to stay within EQ1_TOL. The returned pair is the last
    element of the tail, which also satisfies diag(X, -Y) <= A + tol' with
    tol' absorbing the residual eps ||A^2|| of the final term.
    """
    if not family.pairs:
        raise BadArgument("family has no pairs")
    tail = family.pairs[-10:]
    stacks = (np.stack([pair[k].entries for pair in tail]) for k in (0, 1))
    osc = max(float(np.max(s.max(axis=0) - s.min(axis=0))) for s in stacks)
    if osc > EQ1_TOL:
        raise NonConvergent(
            f"schedule tail oscillates by {osc:g} entrywise, beyond tol {EQ1_TOL:g}",
            oscillation=osc,
        )
    return tail[-1]


def verify_conclusion(op: OperatorDescriptor, witnesses, tf: TestFunction,
                      family: AdmissibleFamily, limits) -> BoundReport:
    """Check the pipeline's final claims against one operator and witness pair.

    Asserted facts, all reported in the BoundReport:
      * diag(X, -Y) <= A (Loewner, tol 1e-8) for the extracted limits;
      * lower_X = g1(-, E)^{-1}(0) and lower_negY = -g2(-, D)^{-1}(0), and
        the limits respect them;
      * per eps: if F(omega_x, X_eps) <= 0 then lambda_1(X_eps) >=
        g1(-, E + eps0 Etilde)^{-1}(0) - 1e-8, and symmetrically
        if F(omega_y, Y_eps) >= 0 then lambda_N(Y_eps) <=
        g2(-, D + eps0 Dtilde)^{-1}(0) + 1e-8.

    Jet points come from the witness contexts when present, else from the
    test function anchors with a zero solution slot. OutOfDomain propagates
    when omega violates the operator's domain.
    """
    g1, g2 = witnesses
    a = family.A
    n = a.dim_half
    if tf.dim != n:
        raise BadArgument(f"test function dim {tf.dim} does not match blocks dim {n}")
    eps0 = family.schedule.eps0
    _, (e_slack, d_slack) = _upper_bounds(a, eps0)

    omega_x = g1.context if g1.context is not None else JetPoint(tf.x_hat, 0.0, tf.p)
    omega_y = g2.context if g2.context is not None else JetPoint(tf.y_hat, 0.0, tf.q)

    bound_x_eps = g1.inv_at_zero(e_slack)
    bound_y_eps = g2.inv_at_zero(d_slack)

    implications = []
    for eps, (x_eps, y_eps) in zip(family.schedule.values, family.pairs):
        f_x = op.evaluate(omega_x, x_eps)
        row = {"eps": eps, "F_X": f_x, "X_checked": f_x <= 0.0}
        if f_x <= 0.0:
            lam1 = float(x_eps.eigenvalues()[0])
            row.update(lambda1_X=lam1, X_holds=lam1 >= bound_x_eps - EQ1_TOL)
        f_y = op.evaluate(omega_y, y_eps)
        row.update(F_Y=f_y, Y_checked=f_y >= 0.0)
        if f_y >= 0.0:
            lamn = float(y_eps.eigenvalues()[-1])
            row.update(lambdaN_Y=lamn, Y_holds=lamn <= bound_y_eps + EQ1_TOL)
        implications.append(row)

    x_lim, y_lim = limits
    upper_ok = loewner_leq(_diag_x_neg_y(n, x_lim, y_lim), a.assemble(), EQ1_TOL)

    base = theorem_lower_bounds(g1, g2, a.E, a.D)
    lam1_x = float(x_lim.eigenvalues()[0])
    lamn_y = float(y_lim.eigenvalues()[-1])
    return replace(base, upper_block_ok=upper_ok, details={
        **base.details,
        "block_checked": True,
        "eps0": eps0,
        "bound_X_at_eps0": bound_x_eps,
        "bound_negY_at_eps0": -bound_y_eps,
        "implications": implications,
        "implications_ok": all(row.get("X_holds", True) and row.get("Y_holds", True)
                               for row in implications),
        "lambda1_X_limit": lam1_x,
        "lambdaN_Y_limit": lamn_y,
        "limit_lower_X_ok": lam1_x >= base.lower_X - EQ1_TOL,
        "limit_lower_negY_ok": -lamn_y >= base.lower_negY - EQ1_TOL,
    })
