"""Catalog of degenerate elliptic operators as uniform descriptor objects.

Each descriptor bundles a domain predicate over (jet point, matrix) with an
evaluation F(omega, X). Shipped families:

  linear_uniform      F = -tr(a(x) X) + b(x).nu + c(x) r,  a(x) = sigma(x) + theta I
  p_laplace           F_p(nu, X) = -|nu|^(p-2) [tr X + (p-2) <X nu/|nu|, nu/|nu|>]
  p_laplace_homog     the same bracket without the |nu|^(p-2) prefactor
  inf_laplace         F(nu, X) = -<X nu, nu>
  inf_laplace_homog   F(nu, X) = -<X nu, nu> / <nu, nu>
  k_hessian           F_k(X) = -S_k(lambda(X)) on the Gamma_k-bar cone
  eig_sum             F_H(X) = -sum_j H(lambda_j(X)) for strictly increasing H
  sqrt_gradient       F(nu, X) = -tr X - |nu|^(1/2)

Descriptors are immutable; coefficient callbacks must be pure, so concurrent
evaluation is safe. Evaluation refuses out-of-domain input instead of
extrapolating (the p-Laplace prefactor has no continuous extension at
nu = 0, so |nu| below 1e-12 is treated as zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .errors import (BadParams, DimMismatch, NonFiniteValue, OutOfDomain, ToolkitError, _array,
                     _integer, _integer_field, _positive, _real)
from .symmat import (
    GAMMA_CONE_TOL,
    SymmetricMatrix,
    _gamma_k,
    _lambda1_at_least,
    elementary_symmetric_prefix,
    matrix_to_json_obj,
)

GRAD_NORM_FLOOR = 1e-12

_MONOTONE_GRID = (-1e6, -1e3, -10.0, -1.0, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 1.0, 10.0, 1e3, 1e6)


@dataclass(frozen=True)
class JetPoint:
    """The non-matrix slots omega = (x, r, nu) of an operator argument.

    ``x`` is the base point, ``r`` the solution-value slot, ``nu`` the
    gradient slot; x and nu live in the same R^N. A number counts as a 1-vector.
    """

    x: np.ndarray
    r: float
    nu: np.ndarray

    def __post_init__(self):
        x = _array("x", [self.x] if np.isscalar(self.x) else self.x, 1)
        nu = _array("nu", [self.nu] if np.isscalar(self.nu) else self.nu, 1)
        if x.shape != nu.shape:
            raise BadParams(f"x and nu must be vectors of equal length, got {x.shape} and {nu.shape}")
        self._store(x, _real("r", self.r, math.isfinite, "finite"), nu)

    def _store(self, x: np.ndarray, r: float, nu: np.ndarray) -> "JetPoint":
        norm = math.hypot(*nu.tolist())
        if 1e-150 < norm < 1e150:  # numpy's sum of squares neither overflows nor underflows
            norm = float(np.linalg.norm(nu))
        x.setflags(write=False)
        nu.setflags(write=False)
        self.__dict__.update(x=x, r=r, nu=nu, _nu_norm=norm)
        return self

    @classmethod
    def _of_finite(cls, x: np.ndarray, r: float, nu: np.ndarray) -> "JetPoint":
        """The jet point of new finite float vectors x, nu of one length and float r, unchecked."""
        return cls.__new__(cls)._store(x, r, nu)

    @property
    def dim(self) -> int:
        return int(self.x.shape[0])


def unit_jet(dim: int, axis: int = 0) -> JetPoint:
    """Jet point at the origin with r = 0 and nu = e_axis, axis in -dim..dim-1; for checks."""
    dim = _integer("dim", dim, 1)
    nu = np.zeros(dim)
    nu[_integer("axis", axis, -dim, hi=dim - 1)] = 1.0
    return JetPoint._of_finite(np.zeros(dim), 0.0, nu)


@dataclass(frozen=True)
class MonotoneFunction:
    """A strictly increasing H: R -> R, with its inverse when H is onto R.

    ``inverse`` is present exactly when H is a bijection of R (unbounded both
    ways); ``bounded_below`` / ``bounded_above`` record bounds when they
    exist. Construction samples strict monotonicity on a fixed grid and, when
    the inverse is present, checks inverse(forward(t)) = t to 1e-9 there.
    """

    name: str
    forward: Callable[[float], float]
    inverse: Optional[Callable[[float], float]] = None
    bounded_below: Optional[float] = None
    bounded_above: Optional[float] = None

    def __post_init__(self):
        prev = None
        for t in _MONOTONE_GRID:
            val = self.forward(t)
            if not math.isfinite(val):
                raise BadParams(f"{self.name}: forward({t}) is not finite")
            if prev is not None and not val > prev:
                raise BadParams(f"{self.name}: not strictly increasing at t={t}")
            prev = val
            if self.inverse is not None:
                back = self.inverse(val)
                if abs(back - t) > 1e-9 * max(1.0, abs(t)):
                    raise BadParams(f"{self.name}: inverse(forward({t})) = {back}, expected {t}")

    @property
    def unbounded(self) -> bool:
        return self.inverse is not None and self.bounded_below is None and self.bounded_above is None


def identity_monotone() -> MonotoneFunction:
    return MonotoneFunction("identity", lambda t: t, inverse=lambda s: s)


def odd_root_monotone(d: int) -> MonotoneFunction:
    """t -> sign(t) |t|^(1/d), the real d-th root for odd d >= 3."""
    d = _integer("d", d, 3, odd=True)
    return MonotoneFunction(
        f"odd_root({d})",
        lambda t: math.copysign(abs(t) ** (1.0 / d), t),
        inverse=lambda s: math.copysign(abs(s) ** d, s),
    )


def arctan_monotone() -> MonotoneFunction:
    return MonotoneFunction(
        "arctan", math.atan, bounded_below=-math.pi / 2, bounded_above=math.pi / 2
    )


@dataclass(frozen=True, kw_only=True)
class OperatorDescriptor:
    """One catalog entry: a name, its parameters, a domain predicate, and F.

    ``in_domain(w, X)`` guards ``evaluate``; evaluate raises OutOfDomain
    rather than silently computing outside the domain. F is continuous in the
    matrix entry on the domain (verified statistically by the test suite).
    """

    name: str
    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    in_domain: Callable[[JetPoint, SymmetricMatrix], bool] = field(
        default=lambda w, x_mat: True, repr=False)
    raw_evaluate: Callable[[JetPoint, SymmetricMatrix], float] = field(repr=False)

    def evaluate(self, w: JetPoint, x: SymmetricMatrix, *, checked: bool = True) -> float:
        """F(w, x); ``checked=False`` skips the size and domain checks a caller has made."""
        if checked and w.dim != x.dim:
            raise DimMismatch(f"{self.name}: a jet point in R^{w.dim}, a {x.dim}x{x.dim} matrix")
        if checked and not self.in_domain(w, x):
            raise OutOfDomain(f"{self.name}: ({w!r}, matrix dim {x.dim}) is outside the domain")
        return _finite(self.name, self.raw_evaluate, w, x)


def _finite(name: str, fn, *args) -> float:
    """float(fn(*args)), refused with NonFiniteValue when not finite: the input overflowed."""
    try:
        val = float(fn(*args))
    except OverflowError:  # Python float powers raise where numpy would give inf
        val = math.inf
    if not math.isfinite(val):
        raise NonFiniteValue(f"{name}: evaluation produced a non-finite value")
    return val


def _jsonable(value, tag: Optional[str] = None):
    """``value`` as JSON data: a matrix as its dim and rows, a monotone function as its
    name, any other dataclass as the fields its repr shows (after ``"type": tag`` when a
    tag is given), an array or a tuple as a list, and containers entry by entry."""
    if isinstance(value, SymmetricMatrix):
        return matrix_to_json_obj(value)
    if isinstance(value, MonotoneFunction):
        return value.name
    if is_dataclass(value):
        obj = {} if tag is None else {"type": tag}
        obj.update((f.name, _jsonable(getattr(value, f.name))) for f in fields(value) if f.repr)
        return obj
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _psd_sample(value) -> SymmetricMatrix:
    """A value of sigma as a matrix; BadParams unless it is square and positive semi-definite."""
    arr = value.entries if isinstance(value, SymmetricMatrix) else _array("sigma", value, 2)
    if arr.shape[0] != arr.shape[1]:
        raise BadParams(f"sigma must be a square matrix, got shape {arr.shape}")
    mat = SymmetricMatrix(arr)
    if not _lambda1_at_least(mat, -1e-9):
        raise BadParams("sigma sample is not positive semi-definite")
    return mat


def _of_x(value, convert):
    """A coefficient as one function of x: None when omitted, a constant converted once,
    a callback with its value converted at each x."""
    if value is None:
        return None
    if callable(value):
        return lambda x: convert(value(x))
    const = convert(value)
    return lambda _x: const


def linear_uniform(theta: float, sigma=None, b=None, c=None) -> OperatorDescriptor:
    """Uniformly elliptic linear operator with a(x) = sigma(x) + theta I.

    ``sigma``, ``b`` and ``c`` may be constants (matrix, vector, scalar) or
    pure callbacks of x; omitted coefficients default to zero. A constant is
    checked when the operator is built (sigma square and PSD, b a vector, c
    finite), a callback's value at every evaluation, where b must match nu.
    """
    theta = _positive("theta", theta)

    sigma_at = _of_x(sigma, _psd_sample)
    b_at = _of_x(b, lambda v: _array("b", v, 1))
    c_at = _of_x(c, lambda v: _real("c", v, math.isfinite, "finite"))

    def raw(w: JetPoint, x_mat: SymmetricMatrix) -> float:
        a = theta * np.eye(x_mat.dim)
        if sigma_at is not None:
            s = sigma_at(w.x)
            if s.dim != x_mat.dim:
                raise BadParams(f"sigma(x) has dim {s.dim}, matrix has dim {x_mat.dim}")
            a = a + s.entries
        val = -float(np.trace(a @ x_mat.entries))
        if b_at is not None:
            b_x = b_at(w.x)
            if b_x.shape != w.nu.shape:
                raise BadParams(f"b(x) has length {b_x.shape[0]}, nu has length {w.dim}")
            val += float(np.dot(b_x, w.nu))
        if c_at is not None:
            val += c_at(w.x) * w.r
        return val

    return OperatorDescriptor(
        name=f"linear_uniform(theta={theta:g})",
        family="linear_uniform",
        params={"theta": theta, "sigma": "0" if sigma is None else "set",
                "b": "0" if b is None else "set", "c": "0" if c is None else "set"},
        raw_evaluate=raw,
    )


def _p_laplace(p: float, homogeneous: bool) -> OperatorDescriptor:
    p = _real("p", p, lambda v: 1.0 <= v < math.inf, "finite and >= 1")
    # |nu|^0 = 1 exactly, so the homogeneous bracket keeps its bits.
    power = 0.0 if homogeneous else p - 2.0
    family = "p_laplace_homog" if homogeneous else "p_laplace"

    def raw(w: JetPoint, x_mat: SymmetricMatrix) -> float:
        nn = w._nu_norm
        unit = w.nu / nn
        proj = float(unit @ x_mat.entries @ unit)
        return -(nn ** power) * (x_mat.trace() + (p - 2.0) * proj)

    return OperatorDescriptor(
        name=f"{family}(p={p:g})",
        family=family,
        params={"p": p},
        in_domain=lambda w, x_mat: w._nu_norm >= GRAD_NORM_FLOOR,
        raw_evaluate=raw,
    )


def p_laplace(p: float) -> OperatorDescriptor:
    """F_p(nu, X) = -|nu|^(p-2) [tr X + (p-2) <X nu/|nu|, nu/|nu|>], nu != 0."""
    return _p_laplace(p, homogeneous=False)


def p_laplace_homog(p: float) -> OperatorDescriptor:
    """The p-Laplace bracket without its |nu|^(p-2) prefactor; nu != 0."""
    return _p_laplace(p, homogeneous=True)


def inf_laplace() -> OperatorDescriptor:
    """F(nu, X) = -<X nu, nu>; defined for every nu."""
    return OperatorDescriptor(
        name="inf_laplace",
        family="inf_laplace",
        raw_evaluate=lambda w, x_mat: -float(w.nu @ x_mat.entries @ w.nu),
    )


def inf_laplace_homog() -> OperatorDescriptor:
    """F(nu, X) = -<X nu, nu> / <nu, nu>; nu != 0."""

    def raw(w: JetPoint, x_mat: SymmetricMatrix) -> float:
        # past |nu| = 1e150 the squares overflow, so nu is rescaled there only, as in _nu_norm
        nu = w.nu / w._nu_norm if w._nu_norm >= 1e150 else w.nu
        return -float(nu @ x_mat.entries @ nu) / float(nu @ nu)

    return OperatorDescriptor(
        name="inf_laplace_homog",
        family="inf_laplace_homog",
        in_domain=lambda w, x_mat: w._nu_norm >= GRAD_NORM_FLOOR,
        raw_evaluate=raw,
    )


def k_hessian(k: int) -> OperatorDescriptor:
    """F_k(X) = -S_k(lambda(X)), restricted to the closed cone Gamma_k-bar.

    k >= 1 is validated here; k <= N is validated against the matrix by the
    domain check, since descriptors are dimension generic.
    """
    k = _integer("k", k, 1)

    def in_domain(w: JetPoint, x_mat: SymmetricMatrix) -> bool:
        if k > x_mat.dim:
            raise BadParams(f"k_hessian(k={k}) applied to a {x_mat.dim}x{x_mat.dim} matrix")
        return _gamma_k(x_mat, k, GAMMA_CONE_TOL)

    def raw(w: JetPoint, x_mat: SymmetricMatrix) -> float:
        return -float(elementary_symmetric_prefix(x_mat.eigenvalues().tolist(), k)[-1])

    return OperatorDescriptor(
        name=f"k_hessian(k={k})",
        family="k_hessian",
        params={"k": k},
        in_domain=in_domain,
        raw_evaluate=raw,
    )


def eig_sum(h: MonotoneFunction) -> OperatorDescriptor:
    """F_H(X) = -sum_j H(lambda_j(X)) for strictly increasing H."""
    if not isinstance(h, MonotoneFunction):
        raise BadParams("eig_sum expects a MonotoneFunction")

    def raw(w: JetPoint, x_mat: SymmetricMatrix) -> float:
        return -sum(h.forward(float(lam)) for lam in x_mat.eigenvalues())

    return OperatorDescriptor(
        name=f"eig_sum({h.name})",
        family="eig_sum",
        params={"h": h},
        raw_evaluate=raw,
    )


def sqrt_gradient() -> OperatorDescriptor:
    """F(nu, X) = -tr X - |nu|^(1/2); elliptic but without a comparison principle."""
    return OperatorDescriptor(
        name="sqrt_gradient",
        family="sqrt_gradient",
        raw_evaluate=lambda w, x_mat: -x_mat.trace() - math.sqrt(w._nu_norm),
    )


_ALL = "all (omega, X)"
_P_FIELD = {"p": "required, >= 1"}

# family -> (constructor, JSON fields with their catalog text, domain)
_FAMILIES = {
    "linear_uniform": (linear_uniform, {"theta": "required, > 0",
                                        "sigma": "optional PSD matrix rows",
                                        "b": "optional vector", "c": "optional scalar"}, _ALL),
    "p_laplace": (p_laplace, _P_FIELD, "nu != 0"),
    "p_laplace_homog": (p_laplace_homog, _P_FIELD, "nu != 0"),
    "inf_laplace": (inf_laplace, {}, _ALL),
    "inf_laplace_homog": (inf_laplace_homog, {}, "nu != 0"),
    "k_hessian": (k_hessian, {"k": "required integer, 1 <= k <= N"},
                  "lambda(X) in closed Gamma_k cone"),
    "eig_sum": (eig_sum, {"h": "identity | arctan | odd_root",
                          "d": "odd integer >= 3 when h = odd_root"}, _ALL),
    "sqrt_gradient": (sqrt_gradient, {}, _ALL),
}


def make_operator(family: str, **params) -> OperatorDescriptor:
    """Construct a catalog operator by family name; BadParams on bad input."""
    if family not in _FAMILIES:
        raise BadParams(f"unknown operator family {family!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[family][0](**params)


_MONOTONE_BY_NAME = {
    "identity": identity_monotone,
    "arctan": arctan_monotone,
    "odd_root": odd_root_monotone,
}


def operator_from_json(spec) -> OperatorDescriptor:
    """Build an operator from its JSON description.

    ``spec`` holds "family" and that family's fields, as `catalog()` lists
    them. The constructors' rules decide each field, but 2.0 counts as the
    integer k or d, and null is refused, for it is not an omitted field.
    """
    if not isinstance(spec, dict):
        raise BadParams(f"operator spec must be a JSON object, got {type(spec).__name__}")
    spec = dict(spec)
    family = spec.pop("family", None)
    if family is None:
        raise BadParams("operator spec is missing the 'family' field")
    for name, value in spec.items():
        if value is None:
            raise BadParams(f"field {name!r} must not be null")
    try:
        if family == "eig_sum":
            return _eig_sum_from_json(spec)
        if family == "k_hessian" and "k" in spec:
            spec["k"] = _integer_field(spec["k"])
        return make_operator(family, **spec)
    except ToolkitError:
        raise
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad fields for family {family!r}: {exc}") from exc


def _eig_sum_from_json(spec: dict) -> OperatorDescriptor:
    hname = spec.pop("h", None)
    if hname not in _MONOTONE_BY_NAME:
        raise BadParams(f"unknown monotone function {hname!r}; known: {sorted(_MONOTONE_BY_NAME)}")
    return eig_sum(_MONOTONE_BY_NAME[hname](**{k: _integer_field(v) for k, v in spec.items()}))


def catalog() -> list[dict]:
    """Machine-readable listing of the shipped families and their JSON fields."""
    return [{"family": family, "fields": dict(fields), "domain": domain}
            for family, (_ctor, fields, domain) in _FAMILIES.items()]
