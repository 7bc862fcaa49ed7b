"""The cyclic Jacobi loop and its norm helper as they were before the loop
walked a precomputed rotation schedule, kept verbatim as the bit-for-bit
reference for ``classm.symmat._jacobi``."""

import math

import numpy as np

from classm.errors import ToolkitError
from classm.symmat import _JACOBI_MAX_SWEEPS, _JACOBI_REL_OFF, _JACOBI_SAFE_FRO


def reference_jacobi(matrix: np.ndarray, want_vectors: bool):
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
    fro = math.sqrt(_sum_squares(a, upper=False))
    shift = 0
    if not _JACOBI_SAFE_FRO[0] <= fro <= _JACOBI_SAFE_FRO[1]:
        shift = math.frexp(max(abs(v) for row in a for v in row))[1]
        a = [[math.ldexp(v, -shift) for v in row] for row in a]
        fro = math.sqrt(_sum_squares(a, upper=False))
    thresh = _JACOBI_REL_OFF * fro
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off = math.sqrt(2.0 * _sum_squares(a, upper=True))
        if off <= thresh:
            break
        if sweep == _JACOBI_MAX_SWEEPS:
            raise ToolkitError(f"Jacobi eigensolver failed to converge in {_JACOBI_MAX_SWEEPS} sweeps")
        for p in range(n - 1):
            ap = a[p]
            for r in range(p + 1, n):
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
                ap[r] = 0.0
                ar[p] = 0.0
                for i in range(n):
                    if i == p or i == r:
                        continue
                    ai = a[i]
                    aip = ai[p]
                    air = ai[r]
                    ai[p] = c * aip - s * air
                    ai[r] = s * aip + c * air
                    ap[i] = ai[p]
                    ar[i] = ai[r]
                if q is not None:
                    for i in range(n):
                        qi = q[i]
                        qip = qi[p]
                        qir = qi[r]
                        qi[p] = c * qip - s * qir
                        qi[r] = s * qip + c * qir
    diag = [a[i][i] for i in range(n)]
    if shift:
        with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is inf
            diag = np.ldexp(diag, shift).tolist()
    return diag, q


def _sum_squares(a: list, upper: bool) -> float:
    """Sum of squares of all entries (or those above the diagonal), left to right."""
    total = 0.0
    for i, row in enumerate(a):
        for v in row[i + 1:] if upper else row:
            total += v * v
    return total
