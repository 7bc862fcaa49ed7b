"""Dense symmetric-matrix kernel.

Everything here is desk scale: dense storage, dimensions up to 16, and a
deterministic cyclic Jacobi eigensolver (no LAPACK nondeterminism, no
external solver dependency). The module provides

  * ``SymmetricMatrix`` / ``Spectrum`` / ``BlockMatrix2N`` value types; a
    matrix is checked in one pass over Python floats and stored as given
    when it is symmetric bit for bit,
  * the Loewner partial order test ``loewner_leq``; like every lambda_1
    decision it goes through Gershgorin discs, then a certified shifted
    Cholesky factorisation, then the Jacobi eigenvalue, which decides only
    inside a narrow band around the bound (see ``_lambda1_at_least``),
  * the operator norm (max absolute eigenvalue),
  * elementary symmetric polynomials and the Gamma_k cone membership test,
    decided from the power sums tr X^i by Newton's identities, with the
    Jacobi eigenvalues deciding only inside a narrow band (``_GAMMA_BAND``),
  * 2Nx2N block assembly and extraction,
  * text and JSON matrix formats that round-trip bit exactly.

All values are immutable after construction and safe to share across
threads; every function is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys

import numpy as np

from .errors import BadArgument, DimMismatch, InvalidMatrix, ToolkitError

# Construction rejects inputs whose raw asymmetry exceeds this fraction of
# the largest entry; below the threshold we silently symmetrize.
ASYMMETRY_REL_TOL = 1e-8

DEFAULT_LOEWNER_TOL = 1e-9
GAMMA_CONE_TOL = 1e-9

_JACOBI_MAX_SWEEPS = 30
_JACOBI_REL_OFF = 1e-12
# Inputs whose Frobenius norm (as the sweeps compute it) lies outside this
# range are scaled by a power of two first: beyond it the sum of squares
# overflows, or the squares of entries near the stopping threshold
# underflow. Scaling by 2^k is exact, so inputs inside keep their bits.
_JACOBI_SAFE_FRO = (2.0 ** -400, 2.0 ** 400)

# Half-width of the band around a lambda_1 threshold inside which
# ``_lambda1_at_least`` defers to the Jacobi eigenvalue, relative to
# ||M||_F + |bound| + |offset|. A "yes" outside the band is certified:
#   * Jacobi's lambda_1 is the least diagonal entry of the rotated matrix,
#     and a diagonal entry is never below that matrix's least eigenvalue.
#     The rotated matrix is Q^T M Q plus rounding, so Jacobi's value is at
#     least lambda_1(M) minus the rounding of at most 30 sweeps of at most
#     120 rotations, about 3e-12 ||M||_F (measured against LAPACK: at most
#     1.0e-15 ||M||_F). The stopping rule (off-diagonal Frobenius norm
#     <= 1e-12 ||M||_F) bounds, by Weyl, how far it can sit above.
#   * If Cholesky of M - sigma I completes with positive pivots, then
#     lambda_1(M) > sigma - O(n u ||M - sigma I||) (Higham, Accuracy and
#     Stability of Numerical Algorithms, ch. 10, Cholesky backward error),
#     about 1e-13 of the scale here for n <= 16.
#   * Every eigenvalue of M lies in a Gershgorin disc, so lambda_1(M) >=
#     min_i (a_ii - sum_(j != i) |a_ij|). Each disc edge is computed to within
#     (n + 1) u ||row_i||_1 <= (n + 1) u sqrt(n) ||M||_F, about 7.5e-15 ||M||_F
#     for n <= 16.
# With sigma = bound - offset + band, these errors and the rounding of sigma
# itself fit inside the band many times over, so discs above sigma or a
# completed factorisation imply the Jacobi comparison is True as well. A
# looser band (1e-9 of a coarser norm) pushed every tight upper bound of the
# sums pipeline back to Jacobi.
_CERTIFY_BAND = 1e-10

# Half-width of the band around -tol inside which ``gamma_k_member`` defers
# to the Jacobi eigenvalues, relative to sigma^j, sigma = N ||X||_F >= sum
# |lambda_i|; so |S_j| <= sigma^j / j! and |tr X^i| <= sigma^i. For N <= 16,
# u = 2^-53, in units of sigma^j:
#   * Jacobi moves each eigenvalue by at most 4e-12 ||X||_F (rounding plus the
#     stopping rule; see ``_CERTIFY_BAND``), so S_j by at most about 4e-12;
#     forming S_j from the eigenvalues adds 2N u / j!, about 4e-15.
#   * tr X^i on Python floats is off by at most (i N + N^2) u ||X||_F^i
#     <= 2N u sigma^i. The terms of Newton's step j S_j = sum_i (-1)^(i-1)
#     S_(j-i) tr X^i sum to at most 2.72 sigma^j, so its error eps_j obeys
#     j eps_j <= sum_(m<j) eps_m + 2.72 (2N + 2j + 2) u, and by induction
#     eps_j <= 1.1e-14 (1 + 1/2 + ... + 1/j) <= 4e-14.
# Both fit in the band twenty times over. -tol +- band rounds to the same
# side of -tol, and where it rounds to -tol itself the band is below half the
# float spacing, so no float lies in between. A band that is not a finite
# normal float, or a non-finite S_j, decides nothing.
_GAMMA_BAND = 1e-10


def default_loewner_tol() -> float:
    """Default absolute tolerance on lambda_1 of a difference matrix.

    The environment variable ``ELLIPTIC_TOL`` overrides the built-in 1e-9.
    """
    raw = os.environ.get("ELLIPTIC_TOL")
    if raw is None:
        return DEFAULT_LOEWNER_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise BadArgument(f"ELLIPTIC_TOL is not a number: {raw!r}") from exc
    if tol < 0.0:
        raise BadArgument(f"ELLIPTIC_TOL must be >= 0, got {tol}")
    return tol


class Spectrum:
    """Ordered eigensystem of a symmetric matrix.

    ``eigenvalues`` are sorted ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns, each with its largest-magnitude
    component made positive so the decomposition is reproducible.
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        evals = np.array(eigenvalues, dtype=float)
        evecs = np.array(eigenvectors, dtype=float)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        self.eigenvalues = evals
        self.eigenvectors = evecs

    def __repr__(self):
        return f"Spectrum(eigenvalues={self.eigenvalues.tolist()})"


class SymmetricMatrix:
    """Immutable dense symmetric N x N matrix.

    Construction symmetrizes via (M + M^T)/2 and records the raw asymmetry;
    inputs with asymmetry above ``ASYMMETRY_REL_TOL * max|entry|`` or any
    non-finite entry are rejected. The stored array is read only and exactly
    symmetric. Eigenvalues and the full spectrum are computed lazily and
    cached, which is safe because the value never changes.
    """

    __slots__ = ("dim", "entries", "asymmetry", "_evals", "_spectrum")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidMatrix(f"expected a nonempty square matrix, got shape {arr.shape}")
        rows = arr.tolist()
        if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
            raise InvalidMatrix("matrix entries must be finite")
        if arr.tobytes() == arr.T.tobytes():  # bit-identical mirrors: (a + a) / 2 == a
            asym, sym = 0.0, arr.copy()
        else:
            asym = max(abs(u - v) for row, col in zip(rows, zip(*rows)) for u, v in zip(row, col))
            scale = max(map(abs, itertools.chain.from_iterable(rows)))
            if asym > ASYMMETRY_REL_TOL * scale:
                raise InvalidMatrix(
                    f"asymmetry {asym:.3e} exceeds {ASYMMETRY_REL_TOL:.0e} * max|entry| = "
                    f"{ASYMMETRY_REL_TOL * scale:.3e}"
                )
            if scale <= sys.float_info.max / 2.0:
                sym = (arr + arr.T) / 2.0
            else:  # where a + b overflows, both are far above the subnormals and halve exactly
                with np.errstate(over="ignore"):
                    total = arr + arr.T
                sym = np.where(np.isinf(total), arr * 0.5 + arr.T * 0.5, total / 2.0)
        sym.setflags(write=False)
        self.dim = int(arr.shape[0])
        self.entries = sym
        self.asymmetry = asym
        self._evals = None
        self._spectrum = None

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls(np.eye(n))

    @classmethod
    def zero(cls, n: int) -> "SymmetricMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def scaled(self, factor: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.entries * float(factor))

    def negated(self) -> "SymmetricMatrix":
        return SymmetricMatrix(-self.entries)

    def plus(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        if other.dim != self.dim:
            raise DimMismatch(f"cannot add {self.dim}x{self.dim} and {other.dim}x{other.dim}")
        return SymmetricMatrix(self.entries + other.entries)

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (cached; vectors are not accumulated)."""
        if self._spectrum is not None:
            return self._spectrum.eigenvalues
        if self._evals is None:
            diag, _ = _jacobi(self.entries, want_vectors=False)
            evals = np.array(sorted(diag), dtype=float)
            evals.setflags(write=False)
            self._evals = evals
        return self._evals

    def spectrum(self) -> Spectrum:
        """Full cached eigendecomposition; see :func:`eigen_decompose`."""
        if self._spectrum is None:
            diag, q = _jacobi(self.entries, want_vectors=True)
            order = sorted(range(self.dim), key=diag.__getitem__)
            evals = [diag[i] for i in order]
            vecs = np.array([[q[i][j] for j in order] for i in range(self.dim)], dtype=float)
            for col in range(self.dim):
                pivot = int(np.argmax(np.abs(vecs[:, col])))
                if vecs[pivot, col] < 0.0:
                    vecs[:, col] = -vecs[:, col]
            self._spectrum = Spectrum(np.array(evals, dtype=float), vecs)
        return self._spectrum

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((self.dim, self.entries.tobytes()))

    def __repr__(self):
        return f"SymmetricMatrix(dim={self.dim}, entries={self.entries.tolist()})"


def _jacobi(matrix: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi sweeps on plain Python floats.

    Rotates (p, q) pairs in fixed row order until the off-diagonal Frobenius
    norm drops below 1e-12 times the Frobenius norm of the input, capped at
    30 sweeps. An input too large or too small for those norms is scaled by
    a power of two before the sweeps and the eigenvalues are scaled back, so
    the result is right at any finite scale. Pure sequential scalar
    arithmetic keeps the result bit deterministic for identical input.
    Returns (diagonal, vectors or None); the vectors are rows of a
    list-of-lists whose columns are eigenvectors.
    """
    a = matrix.tolist()
    n = len(a)
    q = None
    if want_vectors:
        q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    fro = math.sqrt(_sum_squares(a))
    shift = 0
    if not _JACOBI_SAFE_FRO[0] <= fro <= _JACOBI_SAFE_FRO[1]:
        shift = math.frexp(max(abs(v) for row in a for v in row))[1]
        a = [[math.ldexp(v, -shift) for v in row] for row in a]
        fro = math.sqrt(_sum_squares(a))
    thresh = _JACOBI_REL_OFF * fro
    schedule = _rotation_schedule(n)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off_sq = 0.0  # the squares above the diagonal, in row order
        for p, r, _ in schedule:
            v = a[p][r]
            off_sq += v * v
        if math.sqrt(2.0 * off_sq) <= thresh:
            break
        if sweep == _JACOBI_MAX_SWEEPS:
            raise ToolkitError(f"Jacobi eigensolver failed to converge in {_JACOBI_MAX_SWEEPS} sweeps")
        for p, r, others in schedule:
            ap = a[p]
            apq = ap[r]
            if apq == 0.0:
                continue
            ar = a[r]
            theta = (ar[r] - ap[p]) / (2.0 * apq)
            if abs(theta) > 1e154:  # avoid theta**2 overflow; limit of the exact formula
                t = 0.5 / theta
            elif theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            ap[p] -= t * apq
            ar[r] += t * apq
            ap[r] = ar[p] = 0.0
            for i in others:
                ai = a[i]
                aip = ai[p]
                air = ai[r]
                ai[p] = ap[i] = c * aip - s * air
                ai[r] = ar[i] = s * aip + c * air
            if q is not None:
                for qi in q:
                    qip = qi[p]
                    qir = qi[r]
                    qi[p] = c * qip - s * qir
                    qi[r] = s * qip + c * qir
    diag = [a[i][i] for i in range(n)]
    if shift:
        with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is inf
            diag = np.ldexp(diag, shift).tolist()
    return diag, q


@functools.cache
def _rotation_schedule(n: int) -> tuple:
    """The (p, r, indices other than p and r) of one cyclic sweep, in row order."""
    return tuple((p, r, tuple(i for i in range(n) if i != p and i != r))
                 for p in range(n - 1) for r in range(p + 1, n))


def _sum_squares(a: list) -> float:
    """Sum of squares of all entries, left to right."""
    total = 0.0
    for row in a:
        for v in row:
            total += v * v
    return total


def eigen_decompose(x: SymmetricMatrix) -> Spectrum:
    """Deterministic eigendecomposition, eigenvalues ascending.

    Ties are kept in stable (diagonal) order and each eigenvector's
    largest-magnitude component is made positive, so identical input yields
    an identical Spectrum.
    """
    if not isinstance(x, SymmetricMatrix):
        raise InvalidMatrix("eigen_decompose expects a SymmetricMatrix")
    return x.spectrum()


def operator_norm(x: SymmetricMatrix) -> float:
    """max_j |lambda_j(x)|."""
    evals = x.eigenvalues()
    return float(max(abs(evals[0]), abs(evals[-1])))


def loewner_leq(x: SymmetricMatrix, y: SymmetricMatrix, tol: float | None = None) -> bool:
    """True iff x <= y in the Loewner order, i.e. lambda_1(y - x) >= -tol."""
    if x.dim != y.dim:
        raise DimMismatch(f"Loewner comparison of {x.dim}x{x.dim} against {y.dim}x{y.dim}")
    if tol is None:
        tol = default_loewner_tol()
    if tol < 0.0:
        raise BadArgument(f"tolerance must be >= 0, got {tol}")
    return _lambda1_at_least(SymmetricMatrix(y.entries - x.entries), -tol)


def _lambda1_at_least(m: SymmetricMatrix, bound: float, offset: float = 0.0) -> bool:
    """``float(m.eigenvalues()[0]) + offset >= bound``, mostly without the eigensolve.

    Cached eigenvalues decide directly. Otherwise, with sigma = bound -
    offset + band, Gershgorin discs of m all lying above sigma, or else a
    Cholesky factorisation of m - sigma I that completes with positive
    pivots, certify True (see ``_CERTIFY_BAND``). Every other case,
    including a non-finite band or sigma, falls back to the Jacobi value, so
    a False answer always comes from the eigenvalue itself.
    """
    if m._evals is None and m._spectrum is None:
        rows = m.entries.tolist()
        scale = math.hypot(*(v for row in rows for v in row)) + abs(bound) + abs(offset)
        band = _CERTIFY_BAND * scale
        sigma = bound - offset + band
        # a band below the normal range would not cover underflow in the pivots
        if (sys.float_info.min <= band < math.inf and math.isfinite(sigma)
                and (_gershgorin_above(rows, sigma) or _cholesky_positive(rows, sigma))):
            return True
    return float(m.eigenvalues()[0]) + offset >= bound


def _gershgorin_above(a: list, sigma: float) -> bool:
    """True iff every disc edge a_ii - sum_(j != i) |a_ij| is above sigma; False on overflow."""
    return all(row[i] - (sum(map(abs, row)) - abs(row[i])) > sigma for i, row in enumerate(a))


def _cholesky_positive(a: list, sigma: float) -> bool:
    """True iff Cholesky of a - sigma I on Python floats has only finite positive pivots.

    Row j of the factor is built left to right and ends in its pivot's root.
    A non-finite entry of the factor shows up in the pivot of its row, so
    overflow anywhere makes the answer False.
    """
    factor = []
    for aj in a:
        lj = []
        for ajk, lk in zip(aj, factor):
            lj.append((ajk - sum(map(operator.mul, lj, lk))) / lk[-1])
        pivot = aj[len(factor)] - sigma - sum(map(operator.mul, lj, lj))
        if not 0.0 < pivot < math.inf:
            return False
        lj.append(math.sqrt(pivot))
        factor.append(lj)
    return True


def elementary_symmetric(k: int, values) -> float:
    """k-th elementary symmetric polynomial of the entries of ``values``.

    Uses the standard one-pass recurrence e_j <- e_j + x * e_{j-1} (j counted
    down), which performs only the additions the definition itself requires:
    it is exact for integer inputs and adds no cancellation beyond what the
    data forces. Python scalars are kept as given, so integer input stays in
    exact integer arithmetic.
    """
    vals = list(values)
    n = len(vals)
    if not isinstance(k, int) or k < 1 or k > n:
        raise BadArgument(f"k must be an integer in 1..{n}, got {k!r}")
    return elementary_symmetric_prefix(vals, k)[-1]


def elementary_symmetric_prefix(values, kmax: int) -> list:
    """[S_1, ..., S_kmax] of ``values`` in one recurrence pass."""
    vals = list(values)
    n = len(vals)
    if not isinstance(kmax, int) or kmax < 1 or kmax > n:
        raise BadArgument(f"kmax must be an integer in 1..{n}, got {kmax!r}")
    e = [0] * (kmax + 1)
    e[0] = 1
    for x in vals:
        for j in range(kmax, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e[1:]


def gamma_k_member(x: SymmetricMatrix, k: int, tol: float = GAMMA_CONE_TOL) -> bool:
    """Membership of lambda(x) in the closed cone Gamma_k-bar.

    True iff S_j(lambda(x)) >= -tol for every j = 1..k. This is the closure
    of the open cone where all the S_j are positive, which is the admissible
    domain of the k-Hessian operator.
    """
    if not isinstance(k, int) or k < 1 or k > x.dim:
        raise BadArgument(f"k must be an integer in 1..{x.dim}, got {k!r}")
    if tol < 0.0:
        raise BadArgument(f"tolerance must be >= 0, got {tol}")
    if x._evals is None and x._spectrum is None:
        decided = _gamma_k_certified(x.entries.tolist(), k, tol)
        if decided is not None:
            return decided
    sums = elementary_symmetric_prefix(x.eigenvalues().tolist(), k)
    return all(s >= -tol for s in sums)


def _gamma_k_certified(a: list, k: int, tol: float):
    """The Gamma_k-bar decision from the entries, or None inside the band.

    S_1..S_k come from the power sums tr X^i by Newton's identities; see
    ``_GAMMA_BAND``.
    """
    fro_sq = _sum_squares(a)
    power_sums = [sum(row[i] for i, row in enumerate(a)), fro_sq]
    power = a  # X^(i-1), for tr X^i = <X^(i-1), X>
    for _ in range(3, k + 1):
        power = [[sum(map(operator.mul, prow, arow)) for arow in a] for prow in power]
        power_sums.append(sum(map(operator.mul, itertools.chain.from_iterable(power),
                                  itertools.chain.from_iterable(a))))
    sigma = len(a) * math.sqrt(fro_sq)
    size = 1.0
    e = [1.0]
    verdict = True
    for j in range(1, k + 1):
        e.append(sum((-1.0) ** (i - 1) * e[j - i] * power_sums[i - 1]
                     for i in range(1, j + 1)) / j)
        size *= sigma
        band = _GAMMA_BAND * size
        if not (sys.float_info.min <= band < math.inf and math.isfinite(e[j])):
            verdict = None
        elif e[j] < -tol - band:
            return False
        elif not e[j] > -tol + band:
            verdict = None
    return verdict


class BlockMatrix2N:
    """2N x 2N symmetric matrix [[E, B], [B^T, D]] kept as its blocks.

    E and D are symmetric N x N; B is a general N x N array. The assembled
    matrix is symmetric by construction.
    """

    __slots__ = ("E", "B", "D", "_assembled")

    def __init__(self, e: SymmetricMatrix, b, d: SymmetricMatrix):
        barr = np.asarray(b, dtype=float)
        if e.dim != d.dim:
            raise DimMismatch(f"E is {e.dim}x{e.dim} but D is {d.dim}x{d.dim}")
        if barr.shape != (e.dim, e.dim):
            raise DimMismatch(f"B must be {e.dim}x{e.dim}, got shape {barr.shape}")
        if not np.all(np.isfinite(barr)):
            raise InvalidMatrix("B entries must be finite")
        barr = barr.copy()
        barr.setflags(write=False)
        self.E = e
        self.B = barr
        self.D = d
        self._assembled = None

    @property
    def dim_half(self) -> int:
        return self.E.dim

    def assemble(self) -> SymmetricMatrix:
        if self._assembled is None:
            n = self.E.dim
            full = np.zeros((2 * n, 2 * n))
            full[:n, :n] = self.E.entries
            full[:n, n:] = self.B
            full[n:, :n] = self.B.T
            full[n:, n:] = self.D.entries
            self._assembled = SymmetricMatrix(full)
        return self._assembled

    def __repr__(self):
        return f"BlockMatrix2N(dim_half={self.dim_half})"


def block_compose(e: SymmetricMatrix, b, d: SymmetricMatrix) -> BlockMatrix2N:
    """Assemble blocks (E, B, D) into the 2N x 2N value [[E, B], [B^T, D]]."""
    return BlockMatrix2N(e, b, d)


def block_extract(a2n: SymmetricMatrix) -> tuple[SymmetricMatrix, np.ndarray, SymmetricMatrix]:
    """Split a 2N x 2N symmetric matrix into its (E, B, D) blocks."""
    if a2n.dim % 2 != 0:
        raise DimMismatch(f"block extraction needs an even dimension, got {a2n.dim}")
    n = a2n.dim // 2
    e = SymmetricMatrix(a2n.entries[:n, :n])
    b = a2n.entries[:n, n:].copy()
    b.setflags(write=False)
    d = SymmetricMatrix(a2n.entries[n:, n:])
    return e, b, d


# ---------------------------------------------------------------------------
# Matrix text / JSON formats. Writers emit repr(float), the shortest decimal
# that parses back to the exact same double, so read -> write -> read is bit
# exact for any decimal input of up to 17 significant digits.
# ---------------------------------------------------------------------------

def format_matrix_text(x: SymmetricMatrix) -> str:
    """First line N, then N rows of N whitespace-separated decimals."""
    lines = [str(x.dim)]
    for row in x.entries:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> SymmetricMatrix:
    tokens_by_line = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens_by_line:
        raise InvalidMatrix("empty matrix text")
    head = tokens_by_line[0]
    if len(head) != 1:
        raise InvalidMatrix(f"first line must be the dimension alone, got {head!r}")
    try:
        n = int(head[0])
    except ValueError as exc:
        raise InvalidMatrix(f"bad dimension {head[0]!r}") from exc
    if n < 1:
        raise InvalidMatrix(f"dimension must be positive, got {n}")
    rows = tokens_by_line[1:]
    if len(rows) != n:
        raise InvalidMatrix(f"expected {n} rows, got {len(rows)}")
    data = []
    for row in rows:
        if len(row) != n:
            raise InvalidMatrix(f"expected {n} entries per row, got {len(row)}")
        try:
            data.append([float(tok) for tok in row])
        except ValueError as exc:
            raise InvalidMatrix(f"bad entry in row {row!r}") from exc
    return SymmetricMatrix(np.array(data))


def matrix_to_json_obj(x: SymmetricMatrix) -> dict:
    return {"dim": x.dim, "rows": [[float(v) for v in row] for row in x.entries]}


def matrix_from_json_obj(obj) -> SymmetricMatrix:
    if not isinstance(obj, dict) or set(obj.keys()) != {"dim", "rows"}:
        raise InvalidMatrix(f"matrix JSON must have exactly the keys dim and rows, got {obj!r}")
    n = obj["dim"]
    rows = obj["rows"]
    if not isinstance(n, int) or n < 1:
        raise InvalidMatrix(f"dim must be a positive integer, got {n!r}")
    try:
        entries = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"rows must be an {n}x{n} nested list of numbers: {exc}") from exc
    if entries.shape != (n, n):
        raise InvalidMatrix(f"rows must be an {n}x{n} nested list")
    return SymmetricMatrix(entries)
