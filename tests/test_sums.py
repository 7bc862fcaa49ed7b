import re

import numpy as np
import pytest

from classm import (
    AdmissibleFamily,
    BadArgument,
    BadParams,
    Certificate,
    DimMismatch,
    EpsilonSchedule,
    JetPoint,
    NonConvergent,
    OutOfDomain,
    PassReport,
    SlackTooLarge,
    SymmetricMatrix,
    block_compose,
    class_u_constant,
    class_u_to_class_m,
    extract_limit,
    generate_admissible,
    hessian_blocks,
    lemma_upper_bound,
    linear_uniform,
    loewner_leq,
    operator_norm,
    p_laplace,
    quadratic_doubling,
    verify_conclusion,
    verify_eq1,
    witness_p_laplace,
)
from classm import sums, symmat
from conftest import random_blocks


def quadratic_setup(alpha=1.0, dim=2, terms=20, slack=0.0, eps0=1.0):
    tf = quadratic_doubling(alpha, dim)
    blocks = hessian_blocks(tf)
    sched = EpsilonSchedule.geometric(eps0, 0.5, terms)
    fam = generate_admissible(blocks, sched, slack=slack)
    return tf, blocks, sched, fam


class TestTestFunction:
    def test_blocks_closed_form(self):
        tf = quadratic_doubling(2.0, 3)
        blocks = hessian_blocks(tf)
        eye = np.eye(3)
        assert np.array_equal(blocks.E.entries, 2.0 * eye)
        assert np.array_equal(blocks.B, -2.0 * eye)
        assert np.array_equal(blocks.D.entries, 2.0 * eye)

    def test_a_squared_is_2_alpha_a(self):
        for alpha in (0.5, 1.0, 3.0):
            a = hessian_blocks(quadratic_doubling(alpha, 2)).assemble().entries
            assert np.allclose(a @ a, 2.0 * alpha * a, atol=1e-12)

    def test_gradient_slots(self):
        tf = quadratic_doubling(2.0, 3)
        assert np.allclose(tf.p, [1.0, 0.0, 0.0])
        assert np.array_equal(tf.p, tf.q)
        tf2 = quadratic_doubling(1.0, 2, x_hat=[3.0, 1.0], y_hat=[1.0, 1.0])
        assert np.allclose(tf2.p, [2.0, 0.0])

    def test_degenerate_alpha_rejected(self):
        with pytest.raises(BadParams):
            quadratic_doubling(0.0, 2)
        with pytest.raises(BadParams):
            quadratic_doubling(-1.0, 2)

    def test_unknown_family_rejected(self):
        tf = quadratic_doubling(1.0, 2)
        object.__setattr__(tf, "family", "cubic")
        with pytest.raises(BadParams):
            hessian_blocks(tf)


class TestSchedule:
    def test_geometric_default(self):
        sched = EpsilonSchedule.geometric()
        assert len(sched.values) == 40
        assert sched.values[0] == 0.5
        assert all(b < a for a, b in zip(sched.values, sched.values[1:]))
        assert all(0.0 < v < sched.eps0 for v in sched.values)

    def test_validation(self):
        with pytest.raises(BadArgument):
            EpsilonSchedule(1.0, ())
        with pytest.raises(BadArgument):
            EpsilonSchedule(1.0, (0.5, 0.5))
        with pytest.raises(BadArgument):
            EpsilonSchedule(1.0, (1.5,))
        with pytest.raises(BadArgument):
            EpsilonSchedule(0.0, (0.5,))


class TestGenerator:
    def test_quadratic_family_collapses_to_zero(self):
        _, blocks, sched, fam = quadratic_setup()
        # c_eps = sigma_max(W12) recenters both blocks exactly to zero here
        for x, y in fam.pairs:
            assert np.allclose(x.entries, 0.0, atol=1e-12)
            assert np.allclose(y.entries, 0.0, atol=1e-12)

    def test_zero_coupling_gives_exact_formula(self):
        e = SymmetricMatrix.diagonal([1.0, -0.5])
        d = SymmetricMatrix.diagonal([0.3, 2.0])
        blocks = block_compose(e, np.zeros((2, 2)), d)
        sched = EpsilonSchedule.geometric(1.0, 0.5, 10)
        fam = generate_admissible(blocks, sched)
        for eps, (x, y) in zip(sched.values, fam.pairs):
            assert np.allclose(x.entries, e.entries + eps * e.entries @ e.entries, atol=1e-14)
            assert np.allclose((-y.entries), d.entries + eps * d.entries @ d.entries, atol=1e-14)

    def test_every_generated_pair_passes_eq1(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            blocks = random_blocks(rng, n, target_norm=float(rng.uniform(0.2, 1.5)))
            sched = EpsilonSchedule.geometric(0.7, 0.5, 12)
            fam = generate_admissible(blocks, sched, slack=float(rng.uniform(0, 0.5)))
            for eps, (x, y) in zip(sched.values, fam.pairs):
                assert verify_eq1(blocks, eps, x, y)

    def test_slack_too_large(self):
        _, blocks, sched, _ = quadratic_setup()
        with pytest.raises(SlackTooLarge):
            generate_admissible(blocks, sched, slack=1e9)

    def test_negative_slack_rejected(self):
        _, blocks, sched, _ = quadratic_setup()
        with pytest.raises(BadArgument):
            generate_admissible(blocks, sched, slack=-0.1)


class TestGeneratorSolves:
    """The floor check is certified without eigensolves; only a raise solves."""

    def test_floor_check_makes_no_solves(self, monkeypatch, rng):
        blocks = random_blocks(rng, 4)
        sched = EpsilonSchedule.geometric(0.7, 0.5, 12)
        shapes = []
        jacobi = symmat._jacobi
        monkeypatch.setattr(symmat, "_jacobi", lambda m, want_vectors: shapes.append(m.shape)
                            or jacobi(m, want_vectors))
        generate_admissible(blocks, sched)
        # sigma_max(W_12) per eps; the -1/eps floor decides every block without ||A||
        assert shapes == [(4, 4)] * 12

    @pytest.mark.parametrize("slack", [1e9, 7.25])
    def test_slack_too_large_reports_the_jacobi_minimum(self, rng, slack):
        blocks = random_blocks(rng, 4)
        sched = EpsilonSchedule.geometric(0.7, 0.5, 12)
        eps = sched.values[0]
        amat = blocks.assemble().entries
        w = amat + eps * (amat @ amat)
        c = sums._sigma_max(w[:4, 4:]) + slack
        lowest = min(float(SymmetricMatrix(w[:4, :4] - c * np.eye(4)).eigenvalues()[0]),
                     float(SymmetricMatrix(w[4:, 4:] - c * np.eye(4)).eigenvalues()[0]))
        floor = -(1.0 / eps + operator_norm(blocks.assemble()))
        with pytest.raises(SlackTooLarge, match=re.escape(f"({lowest:g} < {floor:g})")):
            generate_admissible(blocks, sched, slack=slack)


class TestVerifyEq1:
    def test_gross_upper_violation(self):
        _, blocks, sched, _ = quadratic_setup()
        eps = sched.values[0]
        big = SymmetricMatrix(10.0 * np.eye(2))
        assert not verify_eq1(blocks, eps, big, SymmetricMatrix.zero(2))

    def test_gross_lower_violation(self):
        _, blocks, sched, _ = quadratic_setup()
        eps = sched.values[0]
        low = SymmetricMatrix(-(2.0 / eps + 10.0) * np.eye(2))
        assert not verify_eq1(blocks, eps, low, SymmetricMatrix.zero(2))

    def test_bad_eps(self):
        _, blocks, _, _ = quadratic_setup()
        with pytest.raises(BadArgument):
            verify_eq1(blocks, 0.0, SymmetricMatrix.zero(2), SymmetricMatrix.zero(2))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_generated_pairs_make_no_solves(self, monkeypatch, rng, n):
        """Discs or the Cholesky certify both sides of every generated pair; Jacobi never runs."""
        blocks = random_blocks(rng, n)
        sched = EpsilonSchedule.geometric(1.0, 0.5, 40)
        fam = generate_admissible(blocks, sched)
        shapes = []
        jacobi = symmat._jacobi
        monkeypatch.setattr(symmat, "_jacobi", lambda m, want_vectors: shapes.append(m.shape)
                            or jacobi(m, want_vectors))
        for eps, (x, y) in zip(sched.values, fam.pairs):
            assert verify_eq1(blocks, eps, x, y)
        assert shapes == []


class TestLemmaUpperBound:
    def test_quadratic_bound_matrix(self):
        # E + eps0 (E^2 + B B^T) = (1 + 2 eps0) I for the unit quadratic family
        _, blocks, sched, fam = quadratic_setup()
        rep = lemma_upper_bound(blocks, 1.0, fam)
        assert isinstance(rep, PassReport)
        eps0 = 1.0
        bound = blocks.E.entries + eps0 * (blocks.E.entries @ blocks.E.entries
                                           + blocks.B @ blocks.B.T)
        assert np.allclose(bound, 3.0 * np.eye(2))

    def test_zero_coupling_reduces_to_e_plus_eps_e2(self):
        e = SymmetricMatrix.diagonal([1.0, 2.0])
        blocks = block_compose(e, np.zeros((2, 2)), e)
        sched = EpsilonSchedule.geometric(0.5, 0.5, 8)
        fam = generate_admissible(blocks, sched)
        assert isinstance(lemma_upper_bound(blocks, 0.5, fam), PassReport)

    def test_random_families_pass(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            blocks = random_blocks(rng, n, target_norm=float(rng.uniform(0.2, 1.5)))
            for eps0 in (1.0, 0.1):
                sched = EpsilonSchedule.geometric(eps0, 0.5, 8)
                fam = generate_admissible(blocks, sched)
                assert isinstance(lemma_upper_bound(blocks, eps0, fam), PassReport)

    def test_injected_violation_is_certified(self):
        _, blocks, sched, fam = quadratic_setup()
        bad_pairs = list(fam.pairs)
        bad_pairs[3] = (SymmetricMatrix(100.0 * np.eye(2)), bad_pairs[3][1])
        bad = AdmissibleFamily(A=blocks, schedule=sched, pairs=tuple(bad_pairs))
        cert = lemma_upper_bound(blocks, 1.0, bad)
        assert isinstance(cert, Certificate)
        assert cert.trial_index == 3
        cert.reverify()

    def test_schedule_must_sit_inside_eps0(self):
        _, blocks, sched, fam = quadratic_setup()
        with pytest.raises(BadArgument):
            lemma_upper_bound(blocks, 0.25, fam)


class TestExtractLimit:
    def test_constant_family(self):
        _, blocks, sched, fam = quadratic_setup()
        x, y = extract_limit(fam)
        assert np.allclose(x.entries, 0.0) and np.allclose(y.entries, 0.0)
        diag = block_compose(x, np.zeros((2, 2)), y.negated()).assemble()
        assert loewner_leq(diag, blocks.assemble(), 1e-8)

    def test_monotone_envelope_decreases(self):
        _, blocks, sched, _ = quadratic_setup()
        e = blocks.E
        e_tilde = SymmetricMatrix(e.entries @ e.entries + blocks.B @ blocks.B.T)
        prev = None
        for eps in sched.values:
            envelope = SymmetricMatrix(e.entries + eps * e_tilde.entries)
            if prev is not None:
                assert loewner_leq(envelope, prev, 1e-12)
            prev = envelope
        assert loewner_leq(e, prev, 1e-12)

    def test_oscillation_detected(self):
        _, blocks, sched, fam = quadratic_setup()
        wobble = [(SymmetricMatrix(((-1.0) ** i) * np.eye(2)), y)
                  for i, (x, y) in enumerate(fam.pairs)]
        bad = AdmissibleFamily(A=blocks, schedule=sched, pairs=tuple(wobble))
        with pytest.raises(NonConvergent) as err:
            extract_limit(bad)
        assert err.value.oscillation == 2.0

    def test_empty_family_rejected(self):
        _, blocks, sched, fam = quadratic_setup()
        empty = AdmissibleFamily(A=blocks, schedule=sched, pairs=())
        with pytest.raises(BadArgument):
            extract_limit(empty)


class TestVerifyConclusion:
    def test_laplacian_corollary_value(self):
        tf, blocks, sched, fam = quadratic_setup(alpha=1.0, dim=2)
        op = linear_uniform(1.0)
        w = class_u_constant(1.0)
        omx = JetPoint(tf.x_hat, 0.0, tf.p)
        omy = JetPoint(tf.y_hat, 0.0, tf.q)
        g1 = class_u_to_class_m(op, w, omx)[0]
        g2 = class_u_to_class_m(op, w, omy)[1]
        limits = extract_limit(fam)
        rep = verify_conclusion(op, (g1, g2), tf, fam, limits)
        assert rep.lower_X == -1.0
        assert rep.lower_negY == -1.0
        assert rep.upper_block_ok
        assert rep.details["implications_ok"]
        assert rep.details["limit_lower_X_ok"] and rep.details["limit_lower_negY_ok"]
        assert float(limits[0].eigenvalues()[0]) >= -1.0 - 1e-8

    def test_p_laplace_4_bound(self):
        tf, blocks, sched, fam = quadratic_setup(alpha=1.0, dim=2)
        op = p_laplace(4)
        omx = JetPoint(tf.x_hat, 0.0, tf.p)
        omy = JetPoint(tf.y_hat, 0.0, tf.q)
        g1 = witness_p_laplace(4, omx)[0]
        g2 = witness_p_laplace(4, omy)[1]
        rep = verify_conclusion(op, (g1, g2), tf, fam, extract_limit(fam))
        assert rep.lower_X == -3.0          # -(N + p - 3) alpha = -(N + 1) alpha
        assert rep.upper_block_ok and rep.details["implications_ok"]

    def test_zero_blocks_trivial(self):
        tf = quadratic_doubling(1.0, 2)
        zero = SymmetricMatrix.zero(2)
        blocks = block_compose(zero, np.zeros((2, 2)), zero)
        sched = EpsilonSchedule.geometric(1.0, 0.5, 12)
        fam = generate_admissible(blocks, sched)
        op = linear_uniform(1.0)
        w = class_u_constant(1.0)
        omx = JetPoint(tf.x_hat, 0.0, tf.p)
        g1 = class_u_to_class_m(op, w, omx)[0]
        g2 = class_u_to_class_m(op, w, omx)[1]
        rep = verify_conclusion(op, (g1, g2), tf, fam, extract_limit(fam))
        assert rep.lower_X == 0.0 and rep.lower_negY == 0.0
        assert rep.upper_block_ok

    def test_eps0_independence_of_final_bounds(self):
        results = []
        for eps0 in (1.0, 0.1, 0.01):
            tf, blocks, sched, fam = quadratic_setup(alpha=1.0, dim=2, eps0=eps0)
            op = linear_uniform(1.0)
            w = class_u_constant(1.0)
            omx = JetPoint(tf.x_hat, 0.0, tf.p)
            g1 = class_u_to_class_m(op, w, omx)[0]
            g2 = class_u_to_class_m(op, w, omx)[1]
            rep = verify_conclusion(op, (g1, g2), tf, fam, extract_limit(fam))
            results.append((rep.lower_X, rep.lower_negY))
        spread_x = max(r[0] for r in results) - min(r[0] for r in results)
        spread_y = max(r[1] for r in results) - min(r[1] for r in results)
        assert spread_x <= 1e-6 and spread_y <= 1e-6

    def test_out_of_domain_gradient_reported(self):
        # anchors with x_hat = y_hat zero the gradient slots
        tf = quadratic_doubling(1.0, 2, x_hat=[0.0, 0.0], y_hat=[0.0, 0.0])
        blocks = hessian_blocks(tf)
        sched = EpsilonSchedule.geometric(1.0, 0.5, 12)
        fam = generate_admissible(blocks, sched)
        op = p_laplace(4)
        om_ok = JetPoint([0.0, 0.0], 0.0, [1.0, 0.0])
        g1 = witness_p_laplace(4, om_ok)[0]
        g2_bad = witness_p_laplace(4, om_ok)[1]
        object.__setattr__(g2_bad, "context", None)   # force the tf-derived jet
        with pytest.raises(OutOfDomain):
            verify_conclusion(op, (g1, g2_bad), tf, fam, extract_limit(fam))


def _conclusion_with_a_wider_test_function():
    fam = quadratic_setup(dim=2)[3]
    wide = quadratic_doubling(1.0, 3)
    op = linear_uniform(1.0)
    witnesses = class_u_to_class_m(op, class_u_constant(1.0), JetPoint(wide.x_hat, 0.0, wide.p))
    return verify_conclusion(op, witnesses, wide, fam, extract_limit(fam))


def _conclusion_with_a_1x1_limit():
    tf, _, _, fam = quadratic_setup(dim=2)
    op = linear_uniform(1.0)
    witnesses = class_u_to_class_m(op, class_u_constant(1.0), JetPoint(tf.x_hat, 0.0, tf.p))
    return verify_conclusion(op, witnesses, tf, fam, (fam.pairs[-1][0], SymmetricMatrix.zero(1)))


@pytest.mark.parametrize("call, error", [
    (lambda: quadratic_doubling(1.0, 0), BadParams),
    (lambda: quadratic_doubling(1.0, 2, x_hat=[0.0, 0.0, 0.0]), BadParams),
    (lambda: EpsilonSchedule.geometric(1.0, ratio=1.0), BadArgument),
    (lambda: verify_eq1(quadratic_setup(dim=2)[1], 0.5, SymmetricMatrix.zero(3),
                        SymmetricMatrix.zero(3)), DimMismatch),
    (lambda: lemma_upper_bound(quadratic_setup()[1], 0.0, quadratic_setup()[3]), BadArgument),
    (_conclusion_with_a_wider_test_function, BadArgument),
    (_conclusion_with_a_1x1_limit, DimMismatch),
], ids=["doubling-dim-0", "doubling-anchor-length", "schedule-ratio-1", "eq1-pair-dim",
        "lemma-eps0-0", "conclusion-tf-dim", "conclusion-limit-dim"])
def test_documented_refusals(call, error):
    with pytest.raises(error):
        call()
