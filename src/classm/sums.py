"""Numerical embodiment of the improved two-sided block inequality pipeline.

The pipeline mirrors, at the level of matrix data, the compactness argument
that removes the eps A^2 term from the two-sided inequality

    -(1/eps + ||A||) I  <=  diag(X_eps, -Y_eps)  <=  A + eps A^2 :

1. `hessian_blocks` supplies A from the quadratic doubling test function
   z(x, y) = (alpha/2) |x - y|^2, whose blocks are the closed forms
   (E, B, D) = (alpha I, -alpha I, alpha I) with A^2 = 2 alpha A.
2. `generate_admissible` manufactures pairs (X_eps, Y_eps) that satisfy the
   inequality for every eps in a schedule. The construction is this
   artifact's own: with W = A + eps A^2 it recenters the diagonal blocks by
   c_eps = sigma_max(W_12) + slack, which makes W - diag(X_eps, -Y_eps) a
   PSD two-by-two block pattern by the singular-value bound on the coupling
   block.
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
from dataclasses import dataclass

import numpy as np

from .errors import BadArgument, BadParams, DimMismatch, NonConvergent, SlackTooLarge, ToolkitError
from .falsify import Certificate, PassReport
from .operators import JetPoint, OperatorDescriptor
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

    family: str
    alpha: float
    dim: int
    x_hat: np.ndarray
    y_hat: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return self.alpha * (self.x_hat - self.y_hat)

    @property
    def q(self) -> np.ndarray:
        return self.alpha * (self.x_hat - self.y_hat)


def quadratic_doubling(alpha: float, dim: int, x_hat=None, y_hat=None) -> TestFunction:
    alpha = float(alpha)
    if not alpha > 0.0:
        raise BadParams(f"alpha must be > 0, got {alpha}")
    if dim < 1:
        raise BadParams(f"dim must be >= 1, got {dim}")
    if x_hat is None:
        x_hat = np.zeros(dim)
        x_hat[0] = 1.0 / alpha
    if y_hat is None:
        y_hat = np.zeros(dim)
    x_hat = np.asarray(x_hat, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if x_hat.shape != (dim,) or y_hat.shape != (dim,):
        raise BadParams(f"anchors must be vectors of length {dim}")
    x_hat.setflags(write=False)
    y_hat.setflags(write=False)
    return TestFunction("quadratic", alpha, dim, x_hat, y_hat)


def hessian_blocks(tf: TestFunction) -> BlockMatrix2N:
    """Second-derivative blocks of the test function: (E, B, D)."""
    if tf.family != "quadratic":
        raise BadParams(f"unknown test-function family {tf.family!r}")
    n = tf.dim
    eye = np.eye(n)
    return block_compose(
        SymmetricMatrix(tf.alpha * eye),
        -tf.alpha * eye,
        SymmetricMatrix(tf.alpha * eye),
    )


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing positive eps values inside (0, eps0)."""

    eps0: float
    values: tuple

    def __post_init__(self):
        if not self.eps0 > 0.0:
            raise BadArgument(f"eps0 must be > 0, got {self.eps0}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise BadArgument("schedule must be nonempty")
        if any(not 0.0 < v < self.eps0 for v in vals):
            raise BadArgument("all schedule values must lie in (0, eps0)")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise BadArgument("schedule values must be strictly decreasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def geometric(cls, eps0: float = 1.0, ratio: float = 0.5,
                  count: int = 40) -> "EpsilonSchedule":
        if not 0.0 < ratio < 1.0:
            raise BadArgument(f"ratio must be in (0, 1), got {ratio}")
        if count < 1:
            raise BadArgument(f"count must be >= 1, got {count}")
        return cls(eps0, tuple(eps0 * ratio ** i for i in range(1, count + 1)))

    def to_json_obj(self) -> dict:
        return {"eps0": self.eps0, "values": list(self.values)}


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
    if not 0.0 <= slack < math.inf:
        raise BadArgument(f"slack must be finite and >= 0, got {slack}")
    n = a.dim_half
    amat = a.assemble().entries
    a2 = amat @ amat
    norm_a = operator_norm(a.assemble())
    eye = np.eye(n)
    slack_eye = slack * eye
    pairs = []
    for eps in sched.values:
        w = amat + eps * a2
        w11 = SymmetricMatrix(w[:n, :n])
        w12 = w[:n, n:]
        w22 = SymmetricMatrix(w[n:, n:])
        sigma_eye = _sigma_max(w12) * eye
        x = SymmetricMatrix(w11.entries - sigma_eye - slack_eye)
        neg_y = SymmetricMatrix(w22.entries - sigma_eye - slack_eye)
        floor = -(1.0 / eps + norm_a)
        if not all(_lambda1_at_least(m, floor - EQ1_TOL) for m in (x, neg_y)):
            lowest = min(float(x.eigenvalues()[0]), float(neg_y.eigenvalues()[0]))
            raise SlackTooLarge(
                f"recentered blocks fall below the -(1/eps + ||A||) floor at eps = {eps:g} "
                f"({lowest:g} < {floor:g}); slack = {slack:g}, eps * ||A|| = {eps * norm_a:g} "
                f"(the construction needs slack small and eps * ||A|| <= 0.86)"
            )
        pairs.append((x, neg_y.negated()))
    return AdmissibleFamily(A=a, schedule=sched, pairs=tuple(pairs))


def _eq1_terms(a: BlockMatrix2N, eps: float, x: SymmetricMatrix, y: SymmetricMatrix):
    """(diag(X, -Y), A + eps A^2 - diag(X, -Y), 1/eps + ||A||).

    The two-sided inequality holds iff lambda_1 of the first plus the third
    and lambda_1 of the second are both >= 0.
    """
    n = a.dim_half
    amat = a.assemble()
    w = SymmetricMatrix(amat.entries + eps * (amat.entries @ amat.entries))
    diag = block_compose(x, np.zeros((n, n)), y.negated()).assemble()
    return diag, SymmetricMatrix(w.entries - diag.entries), 1.0 / eps + operator_norm(amat)


def _eq1_margins(a: BlockMatrix2N, eps: float, x: SymmetricMatrix,
                 y: SymmetricMatrix) -> tuple[float, float]:
    """lambda_1(diag(X, -Y)) + 1/eps + ||A|| and lambda_1(A + eps A^2 - diag(X, -Y))."""
    diag, gap, floor = _eq1_terms(a, eps, x, y)
    return float(diag.eigenvalues()[0]) + floor, float(gap.eigenvalues()[0])


def verify_eq1(a: BlockMatrix2N, eps: float, x: SymmetricMatrix, y: SymmetricMatrix) -> bool:
    """Recheck both sides of the two-sided inequality for one pair, at tolerance EQ1_TOL."""
    if eps <= 0.0:
        raise BadArgument(f"eps must be > 0, got {eps}")
    n = a.dim_half
    if x.dim != n or y.dim != n:
        raise DimMismatch(f"pair dims ({x.dim}, {y.dim}) do not match blocks dim {n}")
    diag, gap, floor = _eq1_terms(a, eps, x, y)
    return _lambda1_at_least(diag, -EQ1_TOL, floor) and _lambda1_at_least(gap, -EQ1_TOL)


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
    if not eps0 > 0.0:
        raise BadArgument(f"eps0 must be > 0, got {eps0}")
    if any(eps >= eps0 for eps in family.schedule.values):
        raise BadArgument("the family's schedule must lie inside (0, eps0)")
    n = a.dim_half
    (e_tilde, d_tilde), (bound_x, bound_y) = _upper_bounds(a, eps0)
    a2 = a.assemble().entries @ a.assemble().entries
    scale = max(1.0, float(np.max(np.abs(a2))))
    if (float(np.max(np.abs(a2[:n, :n] - e_tilde.entries))) > 1e-9 * scale
            or float(np.max(np.abs(a2[n:, n:] - d_tilde.entries))) > 1e-9 * scale):
        raise ToolkitError("block identity for A^2 failed; assembly is inconsistent")
    for idx, (eps, (x, y)) in enumerate(zip(family.schedule.values, family.pairs)):
        neg_y = y.negated()
        for side, mat, bound in (("X", x, bound_x), ("negY", neg_y, bound_y)):
            if not loewner_leq(mat, bound, EQ1_TOL):
                gap = float(SymmetricMatrix(bound.entries - mat.entries).eigenvalues()[0])
                return Certificate(
                    kind="lemma_upper_bound.violation",
                    witnesses={"side": side, "eps": eps, "eps0": eps0,
                               "matrix": mat, "bound": bound},
                    inequality_values={"lambda1_of_gap": gap},
                    margin=-gap,
                    trial_index=idx,
                    description="a generated pair escaped the eps-uniform upper bound, "
                                "which a sound generator must never produce",
                    recheck=lambda mat=mat, bound=bound: -float(
                        SymmetricMatrix(bound.entries - mat.entries).eigenvalues()[0]),
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
    xs = np.stack([p[0].entries for p in tail])
    ys = np.stack([p[1].entries for p in tail])
    osc = max(
        float(np.max(xs.max(axis=0) - xs.min(axis=0))),
        float(np.max(ys.max(axis=0) - ys.min(axis=0))),
    )
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
    all_hold = True
    for eps, (x_eps, y_eps) in zip(family.schedule.values, family.pairs):
        row = {"eps": eps}
        f_x = op.evaluate(omega_x, x_eps)
        row["F_X"] = f_x
        row["X_checked"] = f_x <= 0.0
        if f_x <= 0.0:
            lam1 = float(x_eps.eigenvalues()[0])
            row["lambda1_X"] = lam1
            row["X_holds"] = lam1 >= bound_x_eps - EQ1_TOL
            all_hold = all_hold and row["X_holds"]
        f_y = op.evaluate(omega_y, y_eps)
        row["F_Y"] = f_y
        row["Y_checked"] = f_y >= 0.0
        if f_y >= 0.0:
            lamn = float(y_eps.eigenvalues()[-1])
            row["lambdaN_Y"] = lamn
            row["Y_holds"] = lamn <= bound_y_eps + EQ1_TOL
            all_hold = all_hold and row["Y_holds"]
        implications.append(row)

    x_lim, y_lim = limits
    diag = block_compose(x_lim, np.zeros((n, n)), y_lim.negated()).assemble()
    upper_ok = loewner_leq(diag, a.assemble(), EQ1_TOL)

    base = theorem_lower_bounds(g1, g2, a.E, a.D)
    details = dict(base.details)
    details.update({
        "block_checked": True,
        "eps0": eps0,
        "bound_X_at_eps0": bound_x_eps,
        "bound_negY_at_eps0": -bound_y_eps,
        "implications": implications,
        "implications_ok": all_hold,
        "lambda1_X_limit": float(x_lim.eigenvalues()[0]),
        "lambdaN_Y_limit": float(y_lim.eigenvalues()[-1]),
        "limit_lower_X_ok": float(x_lim.eigenvalues()[0]) >= base.lower_X - EQ1_TOL,
        "limit_lower_negY_ok": float(y_lim.negated().eigenvalues()[0]) >= base.lower_negY - EQ1_TOL,
    })
    return BoundReport(
        lower_X=base.lower_X,
        lower_negY=base.lower_negY,
        upper_block_ok=upper_ok,
        witness=base.witness,
        details=details,
    )
