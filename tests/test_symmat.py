import hashlib
import itertools
import json
import math
import sys
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classm import (
    BadArgument,
    DimMismatch,
    InvalidMatrix,
    SymmetricMatrix,
    ToolkitError,
    block_compose,
    block_extract,
    eigen_decompose,
    elementary_symmetric,
    format_matrix_text,
    gamma_k_member,
    loewner_leq,
    matrix_from_json_obj,
    matrix_to_json_obj,
    operator_norm,
    parse_matrix_text,
)
from classm import symmat
from classm.symmat import Spectrum, _jacobi, _lambda1_at_least
from conftest import brute_sk, eig2_oracle, random_orthogonal, random_symmetric
from jacobi_reference import _sum_squares as reference_sum_squares, reference_jacobi


class TestConstruction:
    def test_symmetrizes_exactly(self, rng):
        raw = rng.uniform(-1, 1, (4, 4)) * (1 + 1e-9)
        raw_sym = (raw + raw.T) / 2            # keep asymmetry below the reject threshold
        m = SymmetricMatrix(raw_sym + 1e-12 * rng.uniform(-1, 1, (4, 4)))
        assert np.array_equal(m.entries, m.entries.T)
        assert m.asymmetry <= 1e-8 * np.max(np.abs(m.entries))

    def test_rejects_large_asymmetry(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[1.0, 0.5], [0.4999, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        m = SymmetricMatrix.identity(3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_equality_and_hash(self):
        m = SymmetricMatrix([[1.0, 2.0], [2.0, 3.0]])
        same = SymmetricMatrix(np.array([[1, 2], [2, 3]]))
        assert m == same and hash(m) == hash(same) and len({m, same}) == 1
        assert m != SymmetricMatrix.identity(2) and m != SymmetricMatrix.identity(3)
        for other in (None, "m", 1.0, [[1.0, 2.0], [2.0, 3.0]]):
            assert (m == other, m != other) == (False, True), other

    def test_entries_are_copied(self):
        raw, b = np.eye(2), np.zeros((2, 2))
        m = SymmetricMatrix(raw)
        blocks = block_compose(m, b, m)
        raw[0, 0] = b[0, 0] = 5.0
        assert m.entries[0, 0] == 1.0 and blocks.B[0, 0] == 0.0

    def test_huge_entries_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymmetricMatrix(np.full((2, 2), 1.7e308))
            assert np.array_equal(m.entries, np.full((2, 2), 1.7e308))
            raw = np.array([[1.7e308, 1.7e308], [1.7e308 * (1 - 2.0 ** -40), 5e-324]])
            m = SymmetricMatrix(raw)
        assert np.array_equal(m.entries, m.entries.T)
        assert m.entries[0, 1] == 1.7e308 * 0.5 + raw[1, 0] * 0.5
        assert m.entries[1, 1] == 5e-324
        assert m.entries[0, 0] == 1.7e308

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           base=st.sampled_from([1e-300, 1e-3, 1.0, 1e150, 1e307, 8e307, 1.7e308]),
           rel=st.sampled_from([0.0, 1e-10, 5e-9, 1e-8, 2e-8, 1e-6, 1.0]),
           poison=st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0, -0.0]))
    def test_matches_the_numpy_checks(self, n, seed, base, rel, poison):
        # the checks the constructor made with whole-array numpy reductions
        rng = np.random.default_rng(seed)
        raw = base * rng.uniform(-1.0, 1.0, (n, n))
        with np.errstate(over="ignore"):
            raw = raw * 0.5 + raw.T * 0.5 + rel * base * rng.uniform(-1.0, 1.0, (n, n))
            if poison is not None:
                raw[rng.integers(n), rng.integers(n)] = poison
            finite = bool(np.all(np.isfinite(raw)))
            asym = float(np.max(np.abs(raw - raw.T))) if finite else None
            ok = finite and not asym > 1e-8 * float(np.max(np.abs(raw)))
        if not ok:
            with pytest.raises(InvalidMatrix):
                SymmetricMatrix(raw)
            return
        with np.errstate(over="ignore"):
            # only a finite raw gets here, so the sum can overflow but not
            # meet inf + -inf
            expect = (raw + raw.T) / 2.0
        m = SymmetricMatrix(raw)
        assert m.asymmetry == asym
        if np.all(np.isfinite(expect)):
            assert m.entries.tobytes() == expect.tobytes()
        assert np.all(np.isfinite(m.entries))


class TestUncheckedConstruction:
    """The symmetrised draws and negations that skip __init__'s checks store exactly what
    __init__ stores for the same array."""

    @staticmethod
    def _assert_same(got, ref):
        assert got.dim == ref.dim and got.entries.dtype == ref.entries.dtype
        assert got.entries.tobytes() == ref.entries.tobytes()
        assert got.asymmetry == ref.asymmetry == 0.0
        assert not got.entries.flags.writeable and not ref.entries.flags.writeable
        assert got.eigenvalues().tobytes() == ref.eigenvalues().tobytes()

    @staticmethod
    def _symmetrised(rng, n, scale):
        raw = rng.uniform(-scale, scale, (n, n))
        raw[rng.random((n, n)) < 0.25] = -0.0  # signed zeros, mirrored or not
        raw[rng.random((n, n)) < 0.25] = 0.0
        return (raw + raw.T) / 2.0

    # 1.75 * 2^1022 is the largest scale whose width 2 * scale a SampleConfig accepts
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200, 1.75 * 2.0 ** 1022])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_checked_constructor(self, n, scale):
        rng = np.random.default_rng(1000 * n + 7)
        for _ in range(3):
            sym = self._symmetrised(rng, n, scale)
            got, ref = SymmetricMatrix._symmetric(sym.copy()), SymmetricMatrix(sym)
            self._assert_same(got, ref)
            self._assert_same(got.negated(), SymmetricMatrix(-sym))
            assert got.negated() is got.negated() and ref.negated() is ref.negated()

    def test_entries_near_the_float_limit(self):
        big = 2.0 ** 1023 * (1.0 - 2.0 ** -52)  # the largest double
        sym = np.array([[big, -big, 0.0], [-big, -0.0, big], [0.0, big, -big]])
        got = SymmetricMatrix._symmetric(sym.copy())
        self._assert_same(got, SymmetricMatrix(sym))
        self._assert_same(got.negated(), SymmetricMatrix(-sym))
        assert np.signbit(got.entries[1, 1]) and not np.signbit(got.negated().entries[1, 1])


class TestEigen:
    def test_diagonal_sorted(self):
        s = eigen_decompose(SymmetricMatrix.diagonal([3.0, 1.0, 2.0]))
        assert np.array_equal(s.eigenvalues, [1.0, 2.0, 3.0])

    def test_hand_characteristic_polynomial(self):
        # oracle: det([[2-t, 1], [1, 2-t]]) = t^2 - 4t + 3 has roots 1 and 3
        lo, hi = eig2_oracle(2.0, 1.0, 2.0)
        assert (lo, hi) == (1.0, 3.0)
        s = eigen_decompose(SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(s.eigenvalues, [lo, hi], atol=1e-12)

    def test_identity(self):
        s = eigen_decompose(SymmetricMatrix.identity(5))
        assert np.array_equal(s.eigenvalues, np.ones(5))

    def test_spectrum_invariants_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = random_symmetric(rng, n, scale=5.0)
            s = eigen_decompose(x)
            assert np.all(np.diff(s.eigenvalues) >= 0)
            q = s.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
            recon = q @ np.diag(s.eigenvalues) @ q.T
            assert np.max(np.abs(recon - x.entries)) <= 1e-9 * max(1.0, operator_norm(x))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_reconstruction_property(self, seed, n):
        rng = np.random.default_rng(seed)
        q = random_orthogonal(rng, n)
        lam = np.sort(rng.uniform(-10, 10, n))
        x = SymmetricMatrix(q @ np.diag(lam) @ q.T)
        assert np.max(np.abs(x.eigenvalues() - lam)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_trace_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        x = random_symmetric(rng, n, scale=3.0)
        assert abs(x.trace() - float(np.sum(x.eigenvalues()))) <= 1e-9 * max(1.0, operator_norm(x))

    def test_deterministic_for_identical_input(self, rng):
        raw = random_symmetric(rng, 6, scale=2.0).entries
        s1 = eigen_decompose(SymmetricMatrix(raw))
        s2 = eigen_decompose(SymmetricMatrix(raw))
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_eigenvector_sign_convention(self):
        s = eigen_decompose(SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]]))
        for col in range(2):
            pivot = np.argmax(np.abs(s.eigenvectors[:, col]))
            assert s.eigenvectors[pivot, col] > 0


def test_spectrum_copies_its_inputs():
    ev, vecs = np.array([1.0, 2.0]), np.eye(2)
    s = Spectrum(ev, vecs)
    ev[0] = 5.0
    vecs[0, 0] = 3.0
    assert s.eigenvalues.tolist() == [1.0, 2.0] and s.eigenvectors.tolist() == np.eye(2).tolist()
    with pytest.raises(ValueError):
        s.eigenvalues[0] = 0.0


class TestEigenAtExtremeScales:
    """Jacobi against LAPACK where the Frobenius norm overflows or underflows."""

    BASE = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1e-3], [0.0, 1e-3, 5.0]])

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_repro_matches_lapack(self, scale):
        x = SymmetricMatrix(scale * self.BASE)
        ref = np.linalg.eigvalsh(x.entries)
        assert np.max(np.abs(x.eigenvalues() - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_overflowing_indefinite_matrix_is_not_psd(self):
        assert not loewner_leq(SymmetricMatrix.zero(2),
                               SymmetricMatrix([[0.0, 1e200], [1e200, 0.0]]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
           exponent=st.integers(-1000, 1000), clustered=st.booleans())
    def test_differential_against_lapack(self, seed, n, exponent, clustered):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-1.0, 1.0, n)
        if clustered:
            lam = np.round(lam, 1)
        q = random_orthogonal(rng, n)
        x = SymmetricMatrix(np.ldexp(q @ np.diag(lam) @ q.T, exponent))
        ref = np.linalg.eigvalsh(x.entries)
        assert np.max(np.abs(x.eigenvalues() - ref)) <= 1e-12 * np.max(np.abs(ref))


def _every_n_both_modes(test):
    """One pinned example per N in 1..16 and mode, so each N runs its own Jacobi path."""
    for n, want_vectors in itertools.product(range(1, 17), (False, True)):
        test = example(seed=n, n=n, exponent=(-500, 0, 500)[n % 3], sparse=n % 2 == 0,
                       want_vectors=want_vectors)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       exponent=st.sampled_from((-500, 0, 500)), sparse=st.booleans(),
       want_vectors=st.booleans())
@_every_n_both_modes
def test_jacobi_matches_the_reference_loop(seed, n, exponent, sparse, want_vectors):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (n, n))
    if sparse:  # zero pairs take the loop's apq == 0 branch
        raw[rng.uniform(size=(n, n)) < 0.5] = 0.0
    entries = SymmetricMatrix(np.ldexp((raw + raw.T) / 2.0, exponent)).entries
    diag, q = _jacobi(entries, want_vectors)
    ref_diag, ref_q = reference_jacobi(entries, want_vectors)
    assert np.array(diag).tobytes() == np.array(ref_diag).tobytes()
    assert (q is None) == (ref_q is None) == (not want_vectors)
    if want_vectors:
        assert np.array(q).tobytes() == np.array(ref_q).tobytes()


@pytest.mark.parametrize("n", [4, 9, 16])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_jacobi_matches_the_reference_loop_at_a_huge_theta(n, want_vectors):
    """diag(0..N-1) with a_01 = 1e-300 makes theta about 5e299, past the rotation's
    theta**2 overflow guard, on the generated kernel (N <= 8) and the loop alike."""
    raw = np.diag(np.arange(float(n)))
    raw[0, 1] = raw[1, 0] = 1e-300
    raw[n - 2, n - 1] = raw[n - 1, n - 2] = 1.0
    entries = SymmetricMatrix(raw).entries
    diag, q = _jacobi(entries, want_vectors)
    ref_diag, ref_q = reference_jacobi(entries, want_vectors)
    assert np.array(diag).tobytes() == np.array(ref_diag).tobytes()
    assert (q is None) == (not want_vectors)
    if want_vectors:
        assert np.array(q).tobytes() == np.array(ref_q).tobytes()


@pytest.mark.parametrize("n", [symmat._JACOBI_UNROLL_MAX_N, symmat._JACOBI_UNROLL_MAX_N + 4])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_sweep_cap_raises_the_same_error_on_both_paths(monkeypatch, n, want_vectors):
    """The generated kernel (eigenvalues, N <= the cap) and the loop (vectors, or N above
    the cap) stop alike."""
    rng = np.random.default_rng(n)
    raw = rng.uniform(-1.0, 1.0, (n, n))
    entries = SymmetricMatrix((raw + raw.T) / 2.0).entries
    monkeypatch.setattr(symmat, "_JACOBI_MAX_SWEEPS", 1)  # kernels read it when they run
    with pytest.raises(ToolkitError) as info:
        _jacobi(entries, want_vectors)
    assert str(info.value) == "Jacobi eigensolver failed to converge in 1 sweeps"
    where = traceback.extract_tb(info.tb)[-1].filename
    kernel = n <= symmat._JACOBI_UNROLL_MAX_N and not want_vectors
    assert where == (f"<jacobi n={n}>" if kernel else symmat.__file__)


@pytest.mark.parametrize("n", range(1, symmat._JACOBI_UNROLL_MAX_N + 1))
@pytest.mark.parametrize("edge", [2.0 ** -400, 2.0 ** 400])
def test_kernel_computes_its_own_norm_across_the_scaling_edges(n, edge):
    """Eigenvalues alone, N <= 8: matrices whose Frobenius norm, as the reference sums it,
    falls on both sides of a _JACOBI_SAFE_FRO edge. The kernel refuses exactly those
    outside, and _jacobi returns the reference loop's bits on both sides."""
    rng = np.random.default_rng(n)
    sides = set()
    for _ in range(4):
        raw = rng.uniform(-1.0, 1.0, (n, n))
        raw = (raw + raw.T) / 2.0
        for factor in (1 - 2.0**-40, 1 - 2.0**-52, 1.0, 1 + 2.0**-52, 1 + 2.0**-40):
            entries = SymmetricMatrix(raw * (edge * factor / np.linalg.norm(raw))).entries
            fro = math.sqrt(reference_sum_squares(entries.tolist(), upper=False))
            inside = symmat._JACOBI_SAFE_FRO[0] <= fro <= symmat._JACOBI_SAFE_FRO[1]
            sides.add(inside)
            assert (symmat._jacobi_kernel(n)(entries.tolist()) is None) == (not inside)
            diag, q = _jacobi(entries, False)
            ref_diag, _ = reference_jacobi(entries, False)
            assert np.array(diag).tobytes() == np.array(ref_diag).tobytes() and q is None
    assert sides == {True, False}


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_jacobi_zero_and_underflowing_norms_match_the_reference_loop(n, want_vectors):
    """A zero matrix, -0.0 on its diagonal included, has no scale to restore and is
    solved as given; entries whose squares all underflow are scaled like any other."""
    raw = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    for matrix in (np.zeros((n, n)), np.diag([-0.0] * n), 1e-200 * (raw + raw.T)):
        entries = SymmetricMatrix(matrix).entries
        diag, q = _jacobi(entries, want_vectors)
        ref_diag, ref_q = reference_jacobi(entries, want_vectors)
        assert np.array(diag).tobytes() == np.array(ref_diag).tobytes()
        assert np.array(q).tobytes() == np.array(ref_q).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       exponent=st.sampled_from((-1070, -500, 0, 500, 1019)))
def test_trace_is_numpys(seed, n, exponent):
    raw = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    x = SymmetricMatrix(np.ldexp((raw + raw.T) / 2.0, exponent))
    assert np.float64(x.trace()).tobytes() == np.float64(np.trace(x.entries)).tobytes()


def test_eigenvectors_compile_no_kernel():
    """Eigenvectors walk the rotation schedule at every N; only eigenvalues are generated."""
    rng = np.random.default_rng(5)
    raw = rng.uniform(-1.0, 1.0, (5, 5))
    symmat._jacobi_kernel.cache_clear()
    eigen_decompose(SymmetricMatrix((raw + raw.T) / 2.0))
    assert symmat._jacobi_kernel.cache_info().currsize == 0


class TestLambda1Decision:
    """The certified threshold test must answer exactly as the Jacobi comparison."""

    def test_matches_jacobi_near_the_bound(self):
        rng = np.random.default_rng(7)
        certified = 0
        for n, scale, offset, bound, rel, sign in itertools.product(
                (1, 2, 3, 4, 6, 8, 12, 16), (1e-6, 1e-3, 1.0, 1e3, 1e6), (0.0, 1.5, -0.75),
                (0.0, -1e-8), (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3), (1.0, -1.0)):
            # spectrum mu + c with lambda_1 = c placed rel * ||M||_F from bound - offset
            mu = np.sort(scale * rng.uniform(0.0, 1.0, n))
            mu -= mu[0]
            c = bound - offset
            c += sign * rel * np.linalg.norm(mu + c)
            q = random_orthogonal(rng, n)
            entries = q @ np.diag(mu + c) @ q.T
            m = SymmetricMatrix(entries)
            got = _lambda1_at_least(m, bound, offset)
            if got and m._evals is None:
                certified += 1
            ref = float(SymmetricMatrix(entries).eigenvalues()[0])
            assert got == (ref + offset >= bound), (n, scale, offset, bound, rel, sign)
        assert certified > 0

    def test_disc_tier_matches_jacobi_at_its_edge(self, monkeypatch):
        cholesky_calls = []
        cholesky = symmat._cholesky_positive
        monkeypatch.setattr(symmat, "_cholesky_positive",
                            lambda a, sigma: cholesky_calls.append(sigma) or cholesky(a, sigma))
        rng = np.random.default_rng(13)
        by_discs = 0
        for kind, n, scale, offset, rel, sign in itertools.product(
                ("diagonal", "dominant", "tight"), range(1, 17), (1e-6, 1e-3, 1.0, 1e3, 1e6),
                (0.0, 1.5, -0.75), (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3), (1.0, -1.0)):
            # The least disc edge sits at c = bound - offset +- rel * ||M||_F, bound 0.
            # On a diagonal, and on c I + S L S with L a weighted graph Laplacian and S
            # a sign diagonal ("tight"), lambda_1 is c; "dominant" lies above its discs.
            mu = np.sort(scale * rng.uniform(0.0, 1.0, n))
            mu -= mu[0]
            off = np.zeros((n, n))
            if kind == "dominant":
                off = np.triu(scale * rng.uniform(-1.0, 1.0, (n, n)) / n, 1)
                off += off.T
            elif kind == "tight":
                mu[:] = 0.0
                weights = np.triu(scale * rng.uniform(0.0, 1.0, (n, n)) / n, 1)
                signs = rng.choice((-1.0, 1.0), n)
                off = -(weights + weights.T) * np.outer(signs, signs)
            radius = np.abs(off).sum(axis=1)
            c = 0.0 - offset
            c += sign * rel * np.linalg.norm(np.diag(mu + radius + c) + off)
            entries = np.diag(mu + radius + c) + off
            m = SymmetricMatrix(entries)
            calls = len(cholesky_calls)
            got = _lambda1_at_least(m, 0.0, offset)
            if kind != "dominant" and rel <= 1e-12:  # lambda_1 inside the band: Jacobi decides
                assert m._evals is not None, (kind, n, scale, offset, rel, sign)
            elif got and m._evals is None and len(cholesky_calls) == calls:
                by_discs += 1
            ref = float(m.eigenvalues()[0])  # the fallback's solve, or a fresh one
            assert got == (ref + offset >= 0.0), (kind, n, scale, offset, rel, sign)
        assert by_discs > 0

    @pytest.mark.parametrize("bound, offset", [(0.5, 0.0), (0.0, -0.5), (0.25, -0.25)])
    def test_shift_overflow_is_silent_and_exact(self, monkeypatch, bound, offset):
        # ||M||_F + |bound| + |offset| just below the largest float: a_11 - sigma overflows
        half = sys.float_info.max / 2.0 * (1.0 - 1e-13)
        bound, offset = bound * 2.0 * half, offset * 2.0 * half
        entries = np.array([[-half, 0.0], [0.0, 1.0]])
        cholesky_calls = []
        cholesky = symmat._cholesky_positive
        monkeypatch.setattr(symmat, "_cholesky_positive",
                            lambda a, sigma: cholesky_calls.append(sigma) or cholesky(a, sigma))
        m = SymmetricMatrix(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _lambda1_at_least(m, bound, offset)
        assert len(cholesky_calls) == 1 and math.isinf(-half - cholesky_calls[0])
        ref = float(SymmetricMatrix(entries).eigenvalues()[0])
        assert got == (ref + offset >= bound) and not got

    def test_non_finite_factor_is_not_a_certificate(self, monkeypatch):
        assert symmat._cholesky_positive(np.eye(3), 0.5)
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, math.inf))
        assert not symmat._cholesky_positive(np.eye(3), 0.5)


def _kernel_golden_inputs(kind):
    """Seeded raw arrays at N = 1..16 for one golden case kind."""
    rng = np.random.default_rng(20261018)
    for n in range(1, 17):
        raw = rng.uniform(-1.0, 1.0, (n, n))
        dense = (raw + raw.T) / 2.0
        if kind == "dense":
            yield dense
        elif kind == "diagonal":
            yield np.diag(np.diag(dense))
        elif kind == "zero":
            yield np.zeros((n, n))
        elif kind == "scaled_up":
            yield np.ldexp(dense, 500)
        elif kind == "scaled_down":
            yield np.ldexp(dense, -500)
        elif kind == "asymmetric":
            yield dense + 1e-12 * rng.uniform(-1.0, 1.0, (n, n))
        elif kind == "signed_zeros":
            mixed = dense.copy()
            mixed[np.triu_indices(n, 1)] = 0.0
            mixed[np.tril_indices(n, -1)] = -0.0
            mixed[n - 1, 0] = 0.5
            mixed[0, n - 1] = 0.5
            yield mixed


# sha256 over the stored entries, ``eigenvalues()`` and ``spectrum()`` of
# every input of a kind. A change to construction, to the Jacobi rotation
# order or arithmetic, or to the spectrum's ordering and sign convention
# moves these.
KERNEL_GOLDEN = {
    "asymmetric":
        "18ce1952169de9413470706f4a1df1b9db09f4c1327192610cc92555e1c5b5b9",
    "dense":
        "e2395b2a1aaf4a8068cfeec8b3ecdcbfd57737a80a0395098ca4ef093cf9c08c",
    "diagonal":
        "992ae67330a68201a462cbdab67465cf7b0dc8df2ec63dbf5f9fb7cb84760843",
    "scaled_down":
        "8ffee280cf91d7d756674bca34f8d151e5bfe15ca54bb0cd44548385b5e79d50",
    "scaled_up":
        "3ac6ab9103b30bbbc1c941249d15301b5bcadfbc1612b04a3033f4415a693947",
    "signed_zeros":
        "2734d48a3113237e497fccf417540859cdbfaee8d6798867ad3225e21f6b3bc2",
    "zero":
        "d25343bd8ae957dfba6b5a5d038c688b1eb144ab2027f4cd62acce0c63f51935",
}


@pytest.mark.parametrize("kind", sorted(KERNEL_GOLDEN))
def test_kernel_golden(kind):
    digest = hashlib.sha256()
    for raw in _kernel_golden_inputs(kind):
        m = SymmetricMatrix(raw)
        digest.update(m.entries.tobytes())
        digest.update(m.eigenvalues().tobytes())
        s = SymmetricMatrix(raw).spectrum()
        digest.update(s.eigenvalues.tobytes())
        digest.update(s.eigenvectors.tobytes())
    assert digest.hexdigest() == KERNEL_GOLDEN[kind]


def _gamma_boundary_grid():
    """Run gamma_k_member next to the Gamma_k boundary against the Jacobi decision.

    Returns (mismatches, decisions that left the eigenvalues uncomputed).
    """
    rng = np.random.default_rng(11)
    mismatches = certified = 0
    for n, scale, tol, rel, sign in itertools.product(
            (1, 2, 3, 4, 6, 8), (1e-3, 1.0, 1e3), (0.0, 1e-9),
            (0.0, 1e-15, 1e-12, 1e-9, 1e-6), (1.0, -1.0)):
        for k in range(1, n + 1):
            # lambda_1 puts S_k at -tol + sign * rel * (n * scale)^k; the rest are positive
            rest = list(scale * rng.uniform(0.1, 1.0, n - 1))
            target = -tol + sign * rel * (n * scale) ** k
            lam1 = (target - brute_sk(rest, k)) / brute_sk(rest, k - 1)
            q = random_orthogonal(rng, n)
            entries = q @ np.diag([lam1] + rest) @ q.T
            m = SymmetricMatrix(entries)
            got = gamma_k_member(m, k, tol)
            certified += m._evals is None
            ref = SymmetricMatrix(entries)
            ref.eigenvalues()  # cached eigenvalues make the Jacobi path decide
            mismatches += got != gamma_k_member(ref, k, tol)
    return mismatches, certified


class TestGammaDecision:
    """The certified Gamma_k test must answer exactly as the Jacobi eigenvalues do."""

    def test_matches_jacobi_near_the_boundary(self):
        mismatches, certified = _gamma_boundary_grid()
        assert mismatches == 0
        assert certified > 0

    def test_grid_detects_a_band_that_is_too_narrow(self, monkeypatch):
        monkeypatch.setattr(symmat, "_GAMMA_BAND", 1e-17)
        mismatches, _ = _gamma_boundary_grid()
        assert mismatches > 0


class TestOperatorNorm:
    def test_examples(self):
        assert operator_norm(SymmetricMatrix.diagonal([-4.0, 3.0])) == 4.0
        assert operator_norm(SymmetricMatrix.identity(3)) == 1.0
        # oracle: [[0,1],[1,0]] has char poly t^2 - 1, eigenvalues -1 and 1
        assert abs(operator_norm(SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])) - 1.0) < 1e-12


class TestLoewner:
    def test_diagonal_spread_dominates_zero(self):
        assert loewner_leq(SymmetricMatrix.zero(2), SymmetricMatrix.diagonal([0.0, 5.0]))

    def test_reflexive(self, rng):
        x = random_symmetric(rng, 3)
        assert loewner_leq(x, x)

    def test_hand_negative_case(self):
        # oracle: Y - X = [[1,-2],[-2,1]] has eigenvalues 1 -+ 2 = (-1, 3)
        lo, hi = eig2_oracle(1.0, -2.0, 1.0)
        assert (lo, hi) == (-1.0, 3.0)
        x = SymmetricMatrix([[0.0, 2.0], [2.0, 0.0]])
        assert not loewner_leq(x, SymmetricMatrix.identity(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loewner_leq(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3))

    def test_soundness_against_quadratic_forms(self, rng):
        # whenever the test passes at tol 0, random unit vectors must agree
        hits = 0
        while hits < 20:
            x = random_symmetric(rng, 4)
            y = SymmetricMatrix(x.entries + (lambda p: p.T @ p)(rng.uniform(-1, 1, (4, 4))))
            if not loewner_leq(x, y, 0.0):
                continue
            hits += 1
            diff = y.entries - x.entries
            for _ in range(50):
                u = rng.normal(size=4)
                u /= np.linalg.norm(u)
                assert float(u @ diff @ u) >= -1e-8

    def test_monotone_trace_fact(self, rng):
        # C >= 0 and A <= A' force tr(CA) <= tr(CA')
        for _ in range(200):
            a = random_symmetric(rng, 3)
            a_prime = SymmetricMatrix(a.entries + (lambda p: p.T @ p)(rng.uniform(-1, 1, (3, 3))))
            c = (lambda p: p.T @ p)(rng.uniform(-1, 1, (3, 3)))
            assert np.trace(c @ a.entries) <= np.trace(c @ a_prime.entries) + 1e-8

    def test_environment_leaves_the_default_tolerance(self, monkeypatch):
        monkeypatch.setenv("ELLIPTIC_TOL", "0.5")
        assert not loewner_leq(SymmetricMatrix.diagonal([0.1, 0.0]), SymmetricMatrix.zero(2))


class TestElementarySymmetric:
    def test_s1_is_sum_and_sn_is_product(self, rng):
        v = rng.uniform(-2, 2, 5).tolist()
        assert abs(elementary_symmetric(1, v) - sum(v)) < 1e-12
        assert abs(elementary_symmetric(5, v) - math.prod(v)) < 1e-12

    def test_frozen_pair_sum(self):
        # oracle: pairs of (-5, -5, 1) give 25 - 5 - 5 = 15
        assert brute_sk([-5, -5, 1], 2) == 15
        assert elementary_symmetric(2, [-5, -5, 1]) == 15

    def test_integer_exactness(self):
        vals = [-7, 3, 11, -2]
        for k in range(1, 5):
            assert elementary_symmetric(k, vals) == brute_sk(vals, k)
            assert isinstance(elementary_symmetric(k, vals), int)

    @settings(max_examples=80, deadline=None)
    @given(vals=st.lists(st.integers(-9, 9), min_size=1, max_size=8),
           data=st.data())
    def test_matches_bruteforce(self, vals, data):
        k = data.draw(st.integers(1, len(vals)))
        assert elementary_symmetric(k, vals) == brute_sk(vals, k)

    def test_bad_k(self):
        with pytest.raises(BadArgument):
            elementary_symmetric(0, [1.0, 2.0])
        with pytest.raises(BadArgument):
            elementary_symmetric(3, [1.0, 2.0])


class TestGammaCone:
    def test_identity_in_every_cone(self):
        for k in range(1, 4):
            assert gamma_k_member(SymmetricMatrix.identity(3), k)

    def test_frozen_exclusion(self):
        # S_1(-5, -5, 1) = -9 < 0 already fails the first cone condition
        assert not gamma_k_member(SymmetricMatrix.diagonal([-5.0, -5.0, 1.0]), 2)

    def test_nonnegative_trace_in_gamma1(self, rng):
        for _ in range(50):
            x = random_symmetric(rng, 3)
            if x.trace() >= 0:
                assert gamma_k_member(x, 1)

    def test_bad_k(self):
        with pytest.raises(BadArgument):
            gamma_k_member(SymmetricMatrix.identity(2), 3)


class TestBlocks:
    def test_identity_compose(self):
        b = block_compose(SymmetricMatrix.identity(2), np.zeros((2, 2)),
                          SymmetricMatrix.identity(2))
        assert np.array_equal(b.assemble().entries, np.eye(4))

    def test_round_trip(self, rng):
        e = random_symmetric(rng, 3)
        d = random_symmetric(rng, 3)
        bmat = rng.uniform(-1, 1, (3, 3))
        e2, b2, d2 = block_extract(block_compose(e, bmat, d).assemble())
        assert np.array_equal(e2.entries, e.entries)
        assert np.array_equal(b2, bmat)
        assert np.array_equal(d2.entries, d.entries)

    def test_scaled_identity_pattern(self):
        alpha = 2.5
        eye = np.eye(2)
        b = block_compose(SymmetricMatrix(alpha * eye), -alpha * eye,
                          SymmetricMatrix(alpha * eye))
        expect = alpha * np.block([[eye, -eye], [-eye, eye]])
        assert np.array_equal(b.assemble().entries, expect)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            block_compose(SymmetricMatrix.identity(2), np.zeros((2, 2)),
                          SymmetricMatrix.identity(3))
        with pytest.raises(DimMismatch):
            block_extract(SymmetricMatrix.identity(3))


class TestFormats:
    def test_text_round_trip_exact(self, rng):
        x = random_symmetric(rng, 3, scale=1e3)
        assert parse_matrix_text(format_matrix_text(x)) == x

    def test_json_round_trip_exact(self, rng):
        x = random_symmetric(rng, 4)
        again = matrix_from_json_obj(json.loads(json.dumps(matrix_to_json_obj(x))))
        assert again == x

    @settings(max_examples=80, deadline=None)
    @given(vals=st.lists(
        st.floats(min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=4))
    def test_parser_writer_bit_exact(self, vals):
        # read -> write -> read is the identity on decimal strings <= 17 digits
        x = SymmetricMatrix([[vals[0], vals[1]], [vals[1], vals[3]]])
        text = format_matrix_text(x)
        assert parse_matrix_text(text) == x
        assert format_matrix_text(parse_matrix_text(text)) == text

    def test_text_format_shape(self):
        text = format_matrix_text(SymmetricMatrix.diagonal([1.0, 2.0]))
        lines = text.strip().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3

    def test_parse_errors(self):
        with pytest.raises(InvalidMatrix):
            parse_matrix_text("")
        with pytest.raises(InvalidMatrix):
            parse_matrix_text("2\n1.0 2.0\n")
        with pytest.raises(InvalidMatrix):
            parse_matrix_text("2\n1 2\n3 x\n")
        with pytest.raises(InvalidMatrix):
            matrix_from_json_obj({"dim": 2})
        with pytest.raises(InvalidMatrix):
            matrix_from_json_obj({"dim": 2, "rows": [[1.0, 0.0]]})


@pytest.mark.parametrize("call, error", [
    (lambda: eigen_decompose(np.eye(2)), InvalidMatrix),
    (lambda: loewner_leq(SymmetricMatrix.identity(2), SymmetricMatrix.identity(2), tol=-1e-9),
     BadArgument),
    (lambda: gamma_k_member(SymmetricMatrix.identity(2), 1, tol=-1e-9), BadArgument),
    (lambda: block_compose(SymmetricMatrix.identity(2), np.zeros((2, 3)),
                           SymmetricMatrix.identity(2)), DimMismatch),
    (lambda: block_compose(SymmetricMatrix.identity(2), [[0.0, math.inf], [0.0, 0.0]],
                           SymmetricMatrix.identity(2)), InvalidMatrix),
    (lambda: parse_matrix_text("2 2\n1 0\n0 1\n"), InvalidMatrix),
    (lambda: parse_matrix_text("two\n1 0\n0 1\n"), InvalidMatrix),
    (lambda: parse_matrix_text("0\n"), InvalidMatrix),
    (lambda: parse_matrix_text("2\n1 0\n0\n"), InvalidMatrix),
    (lambda: matrix_from_json_obj({"dim": 0, "rows": []}), InvalidMatrix),
    (lambda: matrix_from_json_obj({"dim": True, "rows": [[True]]}), InvalidMatrix),
    (lambda: matrix_from_json_obj({"dim": 2.0, "rows": [[1.0, 0.0], [0.0, 1.0]]}),
     InvalidMatrix),
    (lambda: matrix_from_json_obj({"dim": 2, "rows": [["1", 0], [0, "2"]]}), InvalidMatrix),
    (lambda: matrix_from_json_obj({"dim": 1, "rows": [[None]]}), InvalidMatrix),
], ids=["eigen_decompose-array", "loewner-negative-tol", "gamma-negative-tol", "block-b-shape",
        "block-b-inf", "text-two-token-head", "text-word-head", "text-dim-0", "text-short-row",
        "json-dim-0", "json-bool", "json-float-dim", "json-string-entries", "json-null-entry"])
def test_documented_refusals(call, error):
    with pytest.raises(error):
        call()
