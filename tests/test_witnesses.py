import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classm import (
    BadArgument,
    BadParams,
    ClassMWitness,
    ClassUWitness,
    DimMismatch,
    JetPoint,
    NonFiniteValue,
    NotInClassM,
    OutOfDomain,
    SymmetricMatrix,
    arctan_monotone,
    auto_witness_pair,
    bisect_inverse_at_zero,
    class_u_constant,
    class_u_to_class_m,
    corollary_bounds,
    eig_sum,
    identity_monotone,
    inf_laplace,
    k_hessian,
    linear_uniform,
    odd_root_monotone,
    p_laplace,
    sqrt_gradient,
    theorem_lower_bounds,
    unit_jet,
    witness_eig_sum,
    witness_p_laplace,
)
from conftest import random_psd, random_symmetric

T_GRID = [-1e6, -1e3, -10.0, -0.1, 0.0, 0.1, 10.0, 1e3, 1e6]


def shipped_pairs(dim=3):
    """(operator, g1, g2) triples for every shipped witness family."""
    om = unit_jet(dim)
    triples = []
    for p in (1.5, 3.0):
        g1, g2 = witness_p_laplace(p, om)
        triples.append((p_laplace(p), g1, g2))
    for h in (identity_monotone(), odd_root_monotone(3)):
        g1, g2 = witness_eig_sum(h)
        triples.append((eig_sum(h), g1, g2))
    for op, lam in ((linear_uniform(1.7), 1.7), (sqrt_gradient(), 1.0),
                    (eig_sum(identity_monotone()), 1.0)):
        w = class_u_constant(lam, 0.0)
        triples.append((op, *class_u_to_class_m(op, w, om)))
    return triples


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from((1e-3, 1.0, 10.0)))
def test_closed_forms_are_the_bisected_zero_crossing(n, seed, scale):
    """Every shipped closed-form g(-, M)^{-1}(0) against bisection on g itself, which
    shares no code with the closed forms."""
    m = random_symmetric(np.random.default_rng(seed), n, scale)
    om = unit_jet(n)
    witnesses = [g for triple in shipped_pairs(n) for g in triple[1:]]
    witnesses += [*witness_p_laplace(4.0, om, homogeneous=True), *witness_p_laplace(2.0, om),
                  *witness_eig_sum(odd_root_monotone(5))]
    for g in witnesses:
        closed = g.inv_at_zero(m)
        assert abs(closed - bisect_inverse_at_zero(g.eval_fn, m)) <= 1e-8 * (1.0 + abs(closed)), \
            g.name


def _embedding_formula(which, op, lam, h, omega, t, m):
    """class_u_to_class_m's docstring term by term: (g(t, M), g(-, M)^{-1}(0))."""
    lam1 = float(m.eigenvalues()[0])
    if which == "g1":
        f = op.evaluate(omega, m)
        return lam * t - lam * lam1 - h - f, (h + f) / lam + lam1
    f = op.evaluate(omega, m.negated())
    return lam * t + lam * lam1 + h - f, (f - h) / lam - lam1


def _eig_sum_formula(which, hf, t, m):
    """witness_eig_sum's docstring term by term: H(t) plus the sum of H(lambda_j(M)) over
    j = 2..N for g1, of H(lambda_j(-M)) over j = 1..N-1 for g2, lambda(-M) = sorted(-lambda(M))."""
    evals = [float(v) for v in m.eigenvalues()]
    tail = sum(map(hf.forward, evals[1:] if which == "g1" else sorted(-v for v in evals)[:-1]))
    return hf.forward(t) + tail, hf.inverse(-tail)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sides_keep_the_bits_of_their_written_out_formulas(n):
    """Both pairs build g1 and g2 through one side(which, s), s = +-1; every side's value and
    zero crossing are its docstring formula bit for bit, signed zeros included."""
    rng = np.random.default_rng(2400 + n)
    omega = JetPoint(rng.uniform(-1.0, 1.0, n), 0.5, rng.uniform(0.5, 1.5, n))
    ops = [linear_uniform(1.7, sigma=random_psd(rng, n), b=rng.uniform(-1.0, 1.0, n), c=0.3),
           p_laplace(3.0), sqrt_gradient(), inf_laplace(), eig_sum(odd_root_monotone(3))]
    sides = [(g, functools.partial(_embedding_formula, g.which, op, w.lam, w.H(omega), omega))
             for op in ops
             for w in (class_u_constant(0.7, 0.0), ClassUWitness(2.5, lambda jet: jet.r - 0.4))
             for g in class_u_to_class_m(op, w, omega)]
    sides += [(g, functools.partial(_eig_sum_formula, g.which, hf))
              for hf in (identity_monotone(), odd_root_monotone(3), odd_root_monotone(5))
              for g in witness_eig_sum(hf)]
    zero_row = random_symmetric(rng, n).entries.copy()
    zero_row[0, :] = zero_row[:, 0] = 0.0
    mats = [random_symmetric(rng, n, scale) for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6)]
    mats.append(SymmetricMatrix(zero_row))
    bits = lambda x: struct.pack("<d", float(x))  # noqa: E731
    for g, formula in sides:
        for m in mats:
            for t in (0.0, -0.0, 1.0, float(rng.uniform(-10.0, 10.0))):
                value, zero = formula(t, m)
                assert bits(g.evaluate(t, m)) == bits(value), (g.name, t, m.entries)
                assert bits(g.inv_at_zero(m)) == bits(zero), (g.name, m.entries)


class TestClassUEmbedding:
    def test_laplacian_inverse_at_identity(self):
        op = linear_uniform(1.0)
        g1, _ = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(2))
        # (H + F(I))/lam + lambda_1(I) = (0 - 2)/1 + 1
        assert g1.inv_at_zero(SymmetricMatrix.identity(2)) == -1.0
        assert g1.inv_at_zero(SymmetricMatrix.zero(2)) == 0.0

    def test_inverse_is_a_zero(self, rng):
        op = eig_sum(identity_monotone())
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.3, 0.2), unit_jet(3))
        for _ in range(30):
            m = random_symmetric(rng, 3, scale=2.0)
            for g in (g1, g2):
                assert abs(g.evaluate(g.inv_at_zero(m), m)) <= 1e-8

    def test_condition3_sampled(self, rng):
        op = eig_sum(identity_monotone())
        om = unit_jet(3)
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), om)
        for _ in range(500):
            m = random_symmetric(rng, 3)
            x = SymmetricMatrix(m.entries - random_psd(rng, 3))
            assert -op.evaluate(om, x) <= g1.evaluate(float(x.eigenvalues()[0]), m) + 1e-8
            y = SymmetricMatrix(random_psd(rng, 3) - m.entries)
            assert -op.evaluate(om, y) >= g2.evaluate(float(y.eigenvalues()[-1]), m) - 1e-8

    def test_domain_follows_operator(self):
        op = k_hessian(2)
        g1, _ = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        with pytest.raises(OutOfDomain):
            g1.inv_at_zero(SymmetricMatrix.diagonal([-5.0, -5.0, 1.0]))

    def test_fields_keep_the_operator_domain_check(self):
        """A member rebuilt from the embedding's callables under all of S(N) still
        refuses a matrix outside F's domain, rather than evaluating F there."""
        op = k_hessian(2)
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        outside = SymmetricMatrix.diagonal([-1.0, -1.0, -1.0])  # not in Gamma_2
        for g, m in ((g1, outside), (g2, outside.negated())):
            wide = ClassMWitness(name="wide", which=g.which, eval_fn=g.eval_fn,
                                 inv_at_zero_fn=g.inv_at_zero_fn)
            with pytest.raises(OutOfDomain):
                wide.evaluate(0.0, m)
            with pytest.raises(OutOfDomain):
                wide.inv_at_zero(m)
            with pytest.raises(OutOfDomain):
                wide.evaluate(0.0, m, checked=False)
            with pytest.raises(OutOfDomain):
                wide.inv_at_zero(m, checked=False)

    def test_unchecked_inverse_skips_only_the_gate(self):
        g = ClassMWitness(name="nowhere", which="g1", eval_fn=lambda t, m: t,
                          inv_at_zero_fn=lambda m: 0.0, domain_S=lambda m: False)
        with pytest.raises(OutOfDomain):
            g.inv_at_zero(SymmetricMatrix.zero(2))
        assert g.inv_at_zero(SymmetricMatrix.zero(2), checked=False) == 0.0


class TestPLaplaceWitness:
    def test_inverse_formulas(self):
        om = unit_jet(2)
        g1, g2 = witness_p_laplace(4, om)
        eye = SymmetricMatrix.identity(2)
        assert g1.inv_at_zero(eye) == -3.0          # -(N + p - 3) lambda_N
        assert g2.inv_at_zero(eye) == 3.0
        g1, g2 = witness_p_laplace(1.5, om)
        assert g1.inv_at_zero(eye) == -2.0          # -(N - 1)/(p - 1) lambda_N
        assert g2.inv_at_zero(eye) == 2.0
        for g in witness_p_laplace(4, om) + witness_p_laplace(1.5, om):
            assert g.inv_at_zero(SymmetricMatrix.zero(2)) == 0.0

    def test_not_in_class_m_for_small_p(self):
        with pytest.raises(NotInClassM):
            witness_p_laplace(1.0, unit_jet(2))
        with pytest.raises(NotInClassM):
            witness_p_laplace(0.5, unit_jet(2))

    def test_zero_gradient_refused(self):
        with pytest.raises(OutOfDomain):
            witness_p_laplace(3, JetPoint(np.zeros(2), 0.0, np.zeros(2)))

    def test_dim_mismatch(self):
        g1, _ = witness_p_laplace(3, unit_jet(2))
        with pytest.raises(DimMismatch):
            g1.inv_at_zero(SymmetricMatrix.identity(3))

    def test_prefactor_scales_eval_not_inverse(self):
        om_small = JetPoint([0.0, 0.0], 0.0, [0.5, 0.0])
        g1_small, _ = witness_p_laplace(4, om_small)
        g1_unit, _ = witness_p_laplace(4, unit_jet(2))
        m = SymmetricMatrix.diagonal([1.0, 2.0])
        assert g1_small.inv_at_zero(m) == g1_unit.inv_at_zero(m)
        assert g1_small.evaluate(1.0, m) == 0.25 * g1_unit.evaluate(1.0, m)

    def test_overflowing_prefactor_is_refused_at_evaluate(self):
        g1, g2 = witness_p_laplace(1e300, JetPoint([0.0, 0.0], 0.0, [2.0, 0.0]))
        eye = SymmetricMatrix.identity(2)
        assert (g1.inv_at_zero(eye), g2.inv_at_zero(eye)) == (-1e300, 1e300)
        for g in (g1, g2):
            with pytest.raises(NonFiniteValue):
                g.evaluate(1.0, eye)

    def test_homogeneous_variant(self):
        om = JetPoint([0.0, 0.0], 0.0, [0.5, 0.0])
        g1h, _ = witness_p_laplace(4, om, homogeneous=True)
        m = SymmetricMatrix.diagonal([1.0, 2.0])
        assert g1h.evaluate(1.0, m) == 1.0 + 3.0 * 2.0
        assert g1h.inv_at_zero(m) == -6.0


class TestEigSumWitness:
    def test_identity_inverse(self):
        g1, g2 = witness_eig_sum(identity_monotone())
        eye3 = SymmetricMatrix.identity(3)
        assert g1.inv_at_zero(eye3) == -2.0         # -(sum of the N-1 largest of lambda(M))
        assert g2.inv_at_zero(eye3) == 2.0          # -(sum of the N-1 smallest of lambda(-M))

    def test_zero_matrix(self):
        for h in (identity_monotone(), odd_root_monotone(3)):
            g1, g2 = witness_eig_sum(h)
            assert g1.inv_at_zero(SymmetricMatrix.zero(3)) == 0.0
            assert g2.inv_at_zero(SymmetricMatrix.zero(3)) == 0.0

    def test_overflowing_inverse_is_refused(self):
        g1, g2 = witness_eig_sum(odd_root_monotone(5))
        big = SymmetricMatrix.diagonal([1e308, 1e308, 1e308])
        with pytest.raises(NonFiniteValue):  # (2 * 1e308^(1/5))^5 = 32e308 overflows
            g1.inv_at_zero(big)
        with pytest.raises(NonFiniteValue):  # 3 * 1e308 overflows the sum
            witness_eig_sum(identity_monotone())[0].evaluate(1e308, big)

    def test_arctan_not_in_class_m(self):
        with pytest.raises(NotInClassM):
            witness_eig_sum(arctan_monotone())

    def test_inverse_is_a_zero(self, rng):
        for h in (identity_monotone(), odd_root_monotone(3)):
            g1, g2 = witness_eig_sum(h)
            for _ in range(20):
                m = random_symmetric(rng, 4, scale=2.0)
                for g in (g1, g2):
                    assert abs(g.evaluate(g.inv_at_zero(m), m)) <= 1e-8


class TestConditions:
    def test_monotone_bijection_on_grid(self, rng):
        for op, g1, g2 in shipped_pairs():
            m = random_symmetric(rng, 3)
            for g in (g1, g2):
                if not g.domain_S(m):
                    continue
                vals = [g.evaluate(t, m) for t in T_GRID]
                assert all(b > a for a, b in zip(vals, vals[1:])), g.name
                assert vals[0] < 0.0 < vals[-1]

    def test_conditions_3_and_4_sampled(self, rng):
        for op, g1, g2 in shipped_pairs():
            om1 = g1.context if g1.context is not None else unit_jet(3)
            om2 = g2.context if g2.context is not None else unit_jet(3)
            done = 0
            while done < 300:
                m = random_symmetric(rng, 3)
                x = SymmetricMatrix(m.entries - random_psd(rng, 3))
                y = SymmetricMatrix(random_psd(rng, 3) - m.entries)
                if not (g1.domain_S(m) and op.in_domain(om1, x) and op.in_domain(om2, y)):
                    continue
                done += 1
                assert -op.evaluate(om1, x) <= g1.evaluate(float(x.eigenvalues()[0]), m) + 1e-8, \
                    (op.name, g1.name)
                assert -op.evaluate(om2, y) >= g2.evaluate(float(y.eigenvalues()[-1]), m) - 1e-8, \
                    (op.name, g2.name)

    def test_lambda_min_reflection_identity(self, rng):
        """Jacobi is odd under negation: the spectrum of -M is that of M reversed and
        negated, to the bit, so lambda_1(-Y) may be read as -lambda_N(Y)."""
        for i in range(320):
            m = random_symmetric(rng, 1 + i % 16, scale=3.0)
            assert m.negated().eigenvalues().tobytes() == (-m.eigenvalues()[::-1]).tobytes()


class TestBoundRoutes:
    def test_two_routes_agree(self, rng):
        om = unit_jet(3)
        for op, lam, h0 in ((linear_uniform(1.7), 1.7, 0.3),
                            (eig_sum(identity_monotone()), 1.0, -0.5),
                            (sqrt_gradient(), 1.0, 0.0)):
            w = class_u_constant(lam, h0)
            g1 = class_u_to_class_m(op, w, om)[0]
            g2 = class_u_to_class_m(op, w, om)[1]
            for _ in range(50):
                e = random_symmetric(rng, 3, scale=2.0)
                d = random_symmetric(rng, 3, scale=2.0)
                r_thm = theorem_lower_bounds(g1, g2, e, d)
                r_cor = corollary_bounds(op, w, om, om, e, d)
                assert abs(r_thm.lower_X - r_cor.lower_X) <= 1e-8
                assert abs(r_thm.lower_negY - r_cor.lower_negY) <= 1e-8

    def test_e_and_d_of_different_sizes_are_refused(self):
        """Both routes refuse an E and a D of different sizes by name; the corollary route
        raised numpy's raw matmul ValueError before the rule moved into theorem_lower_bounds."""
        e, d = SymmetricMatrix.identity(2), SymmetricMatrix.identity(3)
        op, w, om = linear_uniform(1.0), class_u_constant(1.0), unit_jet(2)
        for call in (lambda: corollary_bounds(op, w, om, om, e, d),
                     lambda: theorem_lower_bounds(*class_u_to_class_m(op, w, om), e, d),
                     lambda: theorem_lower_bounds(*witness_p_laplace(4.0, om), e, d)):
            with pytest.raises(DimMismatch) as info:
                call()
            assert str(info.value) == "E is 2x2 but D is 3x3"

    def test_corollary_zero_bound_is_positive_zero(self):
        """Where lower_negY is zero, the theorem route's negated crossing is -0.0 and the
        corollary route keeps the +0.0 of its difference formula."""
        op, w, om = p_laplace(3.0), class_u_constant(3.0), unit_jet(2)
        eye = SymmetricMatrix.identity(2)
        g1, g2 = class_u_to_class_m(op, w, om)
        assert repr(theorem_lower_bounds(g1, g2, eye, eye).lower_negY) == "-0.0"
        assert repr(corollary_bounds(op, w, om, om, eye, eye).lower_negY) == "0.0"

    def test_p_laplace_bound_values(self):
        alpha = 1.75
        for n in (2, 3):
            om = unit_jet(n)
            e = SymmetricMatrix(alpha * np.eye(n))
            for p in (4.0, 10.0):
                g1, g2 = witness_p_laplace(p, om)
                rep = theorem_lower_bounds(g1, g2, e, e)
                assert abs(rep.lower_X - (-(n + p - 3) * alpha)) < 1e-12
            for p in (1.25, 1.5):
                g1, g2 = witness_p_laplace(p, om)
                rep = theorem_lower_bounds(g1, g2, e, e)
                assert abs(rep.lower_X - (-(n - 1) / (p - 1) * alpha)) < 1e-12

    def test_zero_blocks_zero_bounds(self):
        g1, g2 = witness_eig_sum(identity_monotone())
        z = SymmetricMatrix.zero(3)
        rep = theorem_lower_bounds(g1, g2, z, z)
        assert rep.lower_X == 0.0 and rep.lower_negY == 0.0

    def test_corollary_laplacian_value(self):
        op = linear_uniform(1.0)
        w = class_u_constant(1.0)
        alpha = 0.7
        e = SymmetricMatrix(alpha * np.eye(2))
        om = unit_jet(2)
        rep = corollary_bounds(op, w, om, om, e, e)
        assert abs(rep.lower_X - (-alpha)) < 1e-12
        assert abs(rep.lower_negY - (-alpha)) < 1e-12

    def test_corollary_zero_blocks(self):
        op = linear_uniform(1.0)
        rep = corollary_bounds(op, class_u_constant(1.0), unit_jet(2), unit_jet(2),
                               SymmetricMatrix.zero(2), SymmetricMatrix.zero(2))
        assert rep.lower_X == 0.0 and rep.lower_negY == 0.0

    def test_corollary_linear_uniform_display(self, rng):
        # the direct formula with nonzero b, c, sigma, and solution slots
        theta = 0.8
        sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
        b = np.array([0.3, -0.4])
        c = 1.1
        op = linear_uniform(theta, sigma=sigma, b=b, c=c)
        w = class_u_constant(theta)
        wx = JetPoint([0.0, 0.0], 2.0, [1.0, -1.0])
        wy = JetPoint([0.0, 0.0], -1.0, [0.5, 0.5])
        e = random_symmetric(rng, 2)
        d = random_symmetric(rng, 2)
        a_mat = sigma + theta * np.eye(2)
        want_x = ((-np.trace(a_mat @ e.entries) + b @ wx.nu + c * wx.r) / theta
                  + float(e.eigenvalues()[0]))
        neg_d = d.negated()
        want_y = ((-(-np.trace(a_mat @ neg_d.entries) + b @ wy.nu + c * wy.r)) / theta
                  - float(neg_d.eigenvalues()[-1]))
        rep = corollary_bounds(op, w, wx, wy, e, d)
        assert abs(rep.lower_X - want_x) < 1e-10
        assert abs(rep.lower_negY - want_y) < 1e-10

    def test_bound_report_json(self):
        g1, g2 = witness_eig_sum(identity_monotone())
        rep = theorem_lower_bounds(g1, g2, SymmetricMatrix.identity(2),
                                   SymmetricMatrix.identity(2))
        obj = rep.to_json_obj()
        assert set(obj) >= {"type", "lower_X", "lower_negY", "upper_block_ok", "witness"}


class TestBisection:
    def test_matches_closed_form(self, rng):
        op = eig_sum(identity_monotone())
        g1, _ = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        user = ClassMWitness(name="user_g1", which="g1", eval_fn=g1.eval_fn)
        for _ in range(10):
            m = random_symmetric(rng, 3)
            assert abs(user.inv_at_zero(m) - g1.inv_at_zero(m)) <= 1e-9

    def test_no_sign_change(self):
        with pytest.raises(BadArgument):
            bisect_inverse_at_zero(lambda t, m: 1.0 + t * 0, SymmetricMatrix.identity(2))

    def test_which_validated(self):
        with pytest.raises(Exception):
            ClassMWitness(name="x", which="g3", eval_fn=lambda t, m: t)


class TestAutoPair:
    def test_families(self):
        om = unit_jet(3)
        g1, g2 = auto_witness_pair(p_laplace(3), om, om)
        assert g1.which == "g1" and g2.which == "g2"
        g1, g2 = auto_witness_pair(eig_sum(odd_root_monotone(3)), om, om)
        assert "eig_sum" in g1.name
        g1, g2 = auto_witness_pair(linear_uniform(2.0), om, om)
        assert "class_u" in g1.name
        g1, g2 = auto_witness_pair(k_hessian(1), om, om)  # -S_1 = -tr X: slope 1
        assert g1.name == "class_u_g1[k_hessian(k=1)]"
        with pytest.raises(NotInClassM):
            auto_witness_pair(inf_laplace(), om, om)
        with pytest.raises(NotInClassM):
            auto_witness_pair(k_hessian(2), om, om)
        with pytest.raises(NotInClassM):
            auto_witness_pair(eig_sum(arctan_monotone()), om, om)
        with pytest.raises(NotInClassM):
            auto_witness_pair(p_laplace(1), om, om)


@pytest.mark.parametrize("h", ["identity", None, identity_monotone().forward])
def test_eig_sum_witness_refuses_what_is_not_a_monotone_function(h):
    with pytest.raises(BadParams, match="^h must be a MonotoneFunction, not "):
        witness_eig_sum(h)
