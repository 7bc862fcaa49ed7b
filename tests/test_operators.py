import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classm import (
    BadParams,
    DimMismatch,
    JetPoint,
    NonFiniteValue,
    OutOfDomain,
    PassReport,
    SampleConfig,
    SymmetricMatrix,
    arctan_monotone,
    catalog,
    check_class_u,
    check_degenerate_ellipticity,
    class_u_constant,
    eig_sum,
    identity_monotone,
    inf_laplace,
    inf_laplace_homog,
    k_hessian,
    linear_uniform,
    make_operator,
    odd_root_monotone,
    operator_from_json,
    p_laplace,
    p_laplace_homog,
    sqrt_gradient,
    unit_jet,
)
from classm.operators import _FAMILIES, MonotoneFunction, OperatorDescriptor
from conftest import brute_sk, random_orthogonal, random_symmetric


def all_catalog_instances():
    return [
        linear_uniform(1.0),
        linear_uniform(0.5, sigma=np.eye(3), b=[1.0, 0.0, -1.0], c=0.25),
        p_laplace(1), p_laplace(1.5), p_laplace(2), p_laplace(4),
        p_laplace_homog(4),
        inf_laplace(), inf_laplace_homog(),
        k_hessian(2),
        eig_sum(identity_monotone()), eig_sum(odd_root_monotone(3)),
        eig_sum(arctan_monotone()),
        sqrt_gradient(),
    ]


@pytest.mark.parametrize("op", all_catalog_instances(), ids=lambda op: op.name)
def test_jet_point_and_matrix_of_different_sizes_are_refused(op):
    """The checked evaluate refuses sizes that differ before its domain test, in every family;
    the unchecked path, which the checkers' trial loops take, adds no check."""
    for jet_dim, mat_dim in ((3, 2), (2, 3)):
        with pytest.raises(DimMismatch) as info:
            op.evaluate(unit_jet(jet_dim), SymmetricMatrix.identity(mat_dim))
        assert str(info.value) == (f"{op.name}: a jet point in R^{jet_dim}, "
                                   f"a {mat_dim}x{mat_dim} matrix")
    assert linear_uniform(1.0).evaluate(unit_jet(3), SymmetricMatrix.identity(2),
                                        checked=False) == -2.0


class TestFrozenValues:
    def test_p2_is_negative_trace(self, rng):
        op = p_laplace(2)
        for _ in range(10):
            x = random_symmetric(rng, 3)
            w = JetPoint(rng.normal(size=3), 0.0, rng.normal(size=3))
            assert abs(op.evaluate(w, x) + x.trace()) < 1e-12

    def test_monge_ampere_product(self):
        assert k_hessian(3).evaluate(unit_jet(3), SymmetricMatrix.diagonal([1, 2, 3])) == -6.0

    def test_odd_root_sum(self):
        # hand oracle: cbrt(-8) = -2 and cbrt(27) = 3, so the sum is 1
        op = eig_sum(odd_root_monotone(3))
        assert abs(op.evaluate(unit_jet(2), SymmetricMatrix.diagonal([-8.0, 27.0])) + 1.0) < 1e-12

    def test_p4_hand_value(self):
        # -(tr + 2 <X e1, e1>) = -(3 + 4) with X = diag(2, 1), |nu| = 1
        assert p_laplace(4).evaluate(unit_jet(2), SymmetricMatrix.diagonal([2.0, 1.0])) == -7.0

    def test_p_laplace_nullspace_gap(self):
        # F_p(nu, X) - F_p(nu, Y) = |nu|^(p-2) l for Y = diag(0, l), nu = c e1
        for p in (1.5, 3.0, 4.0):
            for c in (0.25, 2.0):
                op = p_laplace(p)
                w = JetPoint([0.0, 0.0], 0.0, [c, 0.0])
                x = SymmetricMatrix.zero(2)
                y = SymmetricMatrix.diagonal([0.0, 7.0])
                gap = op.evaluate(w, x) - op.evaluate(w, y)
                assert abs(gap - c ** (p - 2) * 7.0) < 1e-10 * max(1.0, c ** (p - 2) * 7.0)

    def test_inf_laplace_spike_constant(self):
        op = inf_laplace()
        for c in (0.0, -5.0, -1e6):
            x = SymmetricMatrix.diagonal([1.0, 0.0, c])
            assert op.evaluate(unit_jet(3), x) == -1.0

    def test_p1_constant_value(self):
        op = p_laplace(1)
        for n in (2, 3, 4, 5):
            w = unit_jet(n, axis=n - 1)
            for c in (0.0, -1.0, -1e3):
                x = SymmetricMatrix.diagonal([1.0] * (n - 1) + [c])
                assert op.evaluate(w, x) == -(n - 1)

    def test_k_hessian_double_spike(self):
        # N = 3, k = 2: S_2(-n, -n, 1) = n^2 - 2n, checked against enumeration
        op = k_hessian(2)
        for n in (1, 5, 12):
            vals = [-n, -n, 1]
            assert brute_sk(vals, 2) == n * n - 2 * n
            x = SymmetricMatrix.diagonal(vals)
            if n >= 1:  # outside the cone; evaluate via the raw formula path
                with pytest.raises(OutOfDomain):
                    op.evaluate(unit_jet(3), x)

    def test_sqrt_gradient(self):
        op = sqrt_gradient()
        w = JetPoint([0.0, 0.0], 0.0, [4.0, 0.0])
        assert op.evaluate(w, SymmetricMatrix.diagonal([1.0, 2.0])) == -(3.0 + 2.0)

    def test_overflow_is_an_input_error(self):
        x = SymmetricMatrix(np.full((2, 2), 1e308))
        with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
            linear_uniform(1.0).evaluate(unit_jet(2), x)
        with pytest.raises(NonFiniteValue):  # a Python float power that overflows
            p_laplace(1e308).evaluate(JetPoint([0.0], 0.0, [2.0]), SymmetricMatrix([[1.0]]))

    def test_linear_uniform_full_formula(self):
        op = linear_uniform(1.0, sigma=np.eye(2), b=[1.0, 0.0], c=2.0)
        w = JetPoint([0.0, 0.0], 3.0, [2.0, 0.0])
        # -tr(2I * I) + b.nu + c r = -4 + 2 + 6
        assert op.evaluate(w, SymmetricMatrix.identity(2)) == 4.0



class TestCallableCoefficients:
    """linear_uniform with sigma, b and c given as callbacks of x."""

    @staticmethod
    def op():
        return linear_uniform(1.0, sigma=lambda x: np.diag([1.0 + x[0] ** 2, 2.0]),
                              b=lambda x: [x[0], 1.0], c=lambda x: x[0])

    def test_matches_the_equal_constants(self):
        w = JetPoint([0.6, 0.0], 1.0, [2.0, 1.0])
        x = SymmetricMatrix(-np.eye(2))
        const = linear_uniform(1.0, sigma=np.diag([1.0 + 0.6 ** 2, 2.0]), b=[0.6, 1.0], c=0.6)
        # -tr(diag(2.36, 3) (-I)) + (0.6, 1).(2, 1) + 0.6 * 1 = 5.36 + 2.2 + 0.6
        assert self.op().evaluate(w, x) == const.evaluate(w, x) == 8.16

    @pytest.mark.parametrize("sigma", [lambda x: -np.eye(2), lambda x: np.eye(3)],
                             ids=["not_psd", "wrong_dim"])
    def test_bad_sigma_samples_are_refused_at_evaluation(self, sigma):
        op = linear_uniform(1.0, sigma=sigma)
        with pytest.raises(BadParams):
            op.evaluate(unit_jet(2), SymmetricMatrix.identity(2))

    def test_checkers_pass(self):
        cfg = SampleConfig(seed=1, trials=200, dim=2)
        assert isinstance(check_degenerate_ellipticity(self.op(), cfg), PassReport)
        assert isinstance(check_class_u(self.op(), class_u_constant(0.5), cfg), PassReport)


class TestJetPoint:
    def test_scalars_become_vectors(self):
        w = JetPoint(1.0, 2, 3.0)
        assert w.x.tolist() == [1.0] and w.nu.tolist() == [3.0] and w.r == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_components(self, bad):
        with pytest.raises(BadParams):
            JetPoint([0.0, bad], 0.0, [1.0, 0.0])
        with pytest.raises(BadParams):
            JetPoint([0.0, 0.0], 0.0, [bad, 0.0])
        with pytest.raises(BadParams):
            JetPoint([0.0, 0.0], bad, [1.0, 0.0])

    def test_caller_arrays_stay_writable(self):
        x, nu = np.zeros(2), np.array([1.0, 0.0])
        w = JetPoint(x, 0.0, nu)
        x[0] = 1.0
        nu[1] = 2.0
        assert w.x.tolist() == [0.0, 0.0] and w.nu.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            w.nu[0] = 0.0

    def test_gradient_norm_is_numpy_norm(self):
        w = JetPoint([0.0, 0.0, 0.0], 0.0, [0.1, -0.7, 0.3])
        assert w._nu_norm == float(np.linalg.norm(w.nu))

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e307])
    def test_gradient_norm_is_right_where_the_squares_leave_the_float_range(self, scale):
        w = JetPoint([0.0, 0.0], 0.0, [3.0 * scale, 4.0 * scale])
        assert w._nu_norm == math.hypot(3.0 * scale, 4.0 * scale)
        assert math.isclose(w._nu_norm, 5.0 * scale)

    def test_huge_gradient_keeps_the_p_laplace_projection(self):
        """The unit vector nu/|nu| stays e1, so the (p-2) projection term is not lost."""
        w = JetPoint([0.0, 0.0], 0.0, [1e200, 0.0])
        assert p_laplace_homog(4).evaluate(w, SymmetricMatrix.diagonal([1.0, 0.0])) == -3.0

    def test_huge_gradient_keeps_the_homogeneous_inf_laplacian_finite(self):
        """<X nu, nu> / <nu, nu> is read from nu/|nu| where the squares of nu overflow."""
        w = JetPoint([0.0, 0.0], 0.0, [1e200, 0.0])
        assert inf_laplace_homog().evaluate(w, SymmetricMatrix.diagonal([1.0, 0.0])) == -1.0

    # |nu| at the draws' redraw threshold, on both edges of the (1e-150, 1e150) band where
    # numpy's norm takes over from math.hypot, and well inside and outside it
    @pytest.mark.parametrize("norm", [1e-6, 1e-150 * (1 - 2e-16), 1e-150, 1e-150 * (1 + 4e-16),
                                      1e150 * (1 - 2e-16), 1e150, 1e150 * (1 + 4e-16),
                                      1.0, 1e-300, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_unchecked_construction_matches_the_checked_one(self, n, norm):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x, r = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
            direction = rng.normal(size=n)
            nu = direction * (norm / math.hypot(*direction.tolist()))
            got = JetPoint._of_finite(x.copy(), r, nu.copy())
            ref = JetPoint(x, r, nu)
            assert got.x.tobytes() == ref.x.tobytes() and got.nu.tobytes() == ref.nu.tobytes()
            assert (got.r, got._nu_norm) == (ref.r, ref._nu_norm) and type(got.r) is float
            assert not (got.x.flags.writeable or got.nu.flags.writeable)
            assert not (ref.x.flags.writeable or ref.nu.flags.writeable)

    # |nu| just inside both gates of math.hypot, subnormal entries and subnormal squares
    # next to normal ones, and a view into a larger buffer
    @pytest.mark.parametrize("nu", [[1e-150 * (1 + 4e-16)], [0.0, -1e-150 * (1 + 4e-16)],
                                    [1e150 * (1 - 2e-16)], [6e149, -8e149 * (1 - 2e-16)],
                                    [1.0, 5e-324], [5e-324, -2.5e-310, 1e-3], [2e-150, 1e-160],
                                    [1e-150] * 16, [0.1, -0.7, 0.3], [2.0**-537, 2.0**480]])
    def test_gradient_norm_is_numpys_bit_for_bit_inside_the_gates(self, nu):
        assert 1e-150 < math.hypot(*nu) < 1e150
        w = JetPoint(np.zeros(len(nu)), 0.0, nu)
        assert w._nu_norm == float(np.linalg.norm(w.nu))
        buffer = np.array([7.0] + nu + [7.0])
        view = JetPoint._of_finite(np.zeros(len(nu)), 0.0, buffer[1:-1])
        assert view._nu_norm == w._nu_norm

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                              st.floats(-1e149, 1e149)), min_size=1, max_size=16))
    def test_gradient_norm_is_numpys_or_math_hypots(self, nu):
        w = JetPoint(np.zeros(len(nu)), 0.0, nu)
        hypot = math.hypot(*nu)
        assert w._nu_norm == (float(np.linalg.norm(w.nu)) if 1e-150 < hypot < 1e150 else hypot)

    @pytest.mark.parametrize("nu", [[3.0, 4.0], [1e-12, 0.0, -2e-12], [1e200, -1e199],
                                    [0.1, -0.7, 0.3], [5e-324, 1.0]])
    def test_unit_gradient_is_cached_read_only_and_the_division(self, nu):
        w = JetPoint(np.zeros(len(nu)), 0.0, nu)
        unit = w._unit_nu
        assert unit is w._unit_nu and unit.tobytes() == (w.nu / w._nu_norm).tobytes()
        with pytest.raises(ValueError):
            unit[0] = 0.0
        assert dataclasses.asdict(w).keys() == {"x", "r", "nu"}  # a cache, not a field

    @pytest.mark.parametrize("p", [1.25, 2.0, 3.0, 10.0])
    def test_p_laplace_reads_the_unit_gradient_bit_for_bit(self, rng, p):
        for homogeneous in (False, True):
            op = p_laplace_homog(p) if homogeneous else p_laplace(p)
            for _ in range(20):
                w = JetPoint(rng.uniform(-1.0, 1.0, 3), 0.0, rng.uniform(-1.0, 1.0, 3))
                x = random_symmetric(rng, 3)
                nn = w._nu_norm
                unit = w.nu / nn
                proj = float(unit @ x.entries @ unit)
                bracket = float(np.trace(x.entries)) + (p - 2.0) * proj
                expected = -bracket if homogeneous else -(nn ** (p - 2.0)) * bracket
                assert op.evaluate(w, x) == expected and op.evaluate(w, x) == expected

    def test_linear_uniform_trace_is_numpys(self, rng):
        sigma = random_symmetric(rng, 4).entries
        sigma = sigma @ sigma
        op = linear_uniform(0.5, sigma=sigma)
        for _ in range(20):
            x = random_symmetric(rng, 4, scale=1e3)
            a = 0.5 * np.eye(4) + SymmetricMatrix(sigma).entries
            assert op.evaluate(unit_jet(4), x) == -float(np.trace(a @ x.entries))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(BadParams):
            JetPoint([0.0, 0.0], 0.0, [1.0])
        with pytest.raises(BadParams):
            JetPoint(np.zeros((2, 2)), 0.0, np.zeros((2, 2)))


class TestDomains:
    def test_p_laplace_refuses_zero_gradient(self):
        w = JetPoint(np.zeros(2), 0.0, np.zeros(2))
        for op in (p_laplace(1.5), p_laplace(4), p_laplace_homog(3), inf_laplace_homog()):
            with pytest.raises(OutOfDomain):
                op.evaluate(w, SymmetricMatrix.identity(2))

    def test_p_laplace_refuses_tiny_gradient(self):
        w = JetPoint(np.zeros(2), 0.0, np.array([1e-13, 0.0]))
        with pytest.raises(OutOfDomain):
            p_laplace(1.5).evaluate(w, SymmetricMatrix.identity(2))

    def test_inf_laplace_accepts_zero_gradient(self):
        w = JetPoint(np.zeros(2), 0.0, np.zeros(2))
        assert inf_laplace().evaluate(w, SymmetricMatrix.identity(2)) == 0.0

    def test_k_hessian_cone_gate(self):
        op = k_hessian(2)
        assert op.evaluate(unit_jet(3), SymmetricMatrix.identity(3)) == -3.0
        with pytest.raises(OutOfDomain):
            op.evaluate(unit_jet(3), SymmetricMatrix.diagonal([-5.0, -5.0, 1.0]))

    def test_k_hessian_dimension_check_at_evaluation(self):
        op = k_hessian(3)
        with pytest.raises(BadParams):
            op.evaluate(unit_jet(2), SymmetricMatrix.identity(2))


class TestBadParams:
    def test_rejections(self):
        with pytest.raises(BadParams):
            p_laplace(0.5)
        with pytest.raises(BadParams):
            linear_uniform(0.0)
        with pytest.raises(BadParams):
            linear_uniform(1.0, sigma=-np.eye(2))
        with pytest.raises(BadParams):
            k_hessian(0)
        with pytest.raises(BadParams):
            odd_root_monotone(4)
        with pytest.raises(BadParams):
            odd_root_monotone(1)
        with pytest.raises(BadParams):
            eig_sum("not a monotone function")
        with pytest.raises(BadParams):
            make_operator("unknown_family")

    @pytest.mark.parametrize("call", [
        lambda: MonotoneFunction("overflowing", lambda t: t * 1e303),
        lambda: linear_uniform(1.0, sigma=np.ones((2, 3))),
        lambda: linear_uniform(1.0, sigma=lambda x: np.ones((2, 3))).evaluate(
            unit_jet(2), SymmetricMatrix.identity(2)),
        lambda: linear_uniform(1.0, sigma=lambda x: -np.eye(2)).evaluate(
            unit_jet(2), SymmetricMatrix.identity(2)),
    ], ids=["forward-not-finite", "constant-sigma-not-square", "callback-sigma-not-square",
            "callback-sigma-not-psd"])
    def test_documented_refusals(self, call):
        with pytest.raises(BadParams):
            call()

    def test_monotone_validation(self):
        with pytest.raises(BadParams):
            MonotoneFunction("decreasing", lambda t: -t)
        with pytest.raises(BadParams):
            MonotoneFunction("bad inverse", lambda t: t, inverse=lambda s: s + 1.0)


class TestDescriptors:
    _ARGS = {"linear_uniform": {"theta": 1.0}, "p_laplace": {"p": 3.0},
             "p_laplace_homog": {"p": 3.0}, "k_hessian": {"k": 2},
             "eig_sum": {"h": arctan_monotone()}}
    # the descriptors that take params or in_domain from the defaults, as they printed before
    _REPRS = {
        "linear_uniform": "OperatorDescriptor(name='linear_uniform(theta=1)', "
                          "family='linear_uniform', params={'theta': 1.0, 'sigma': '0', "
                          "'b': '0', 'c': '0'})",
        "inf_laplace": "OperatorDescriptor(name='inf_laplace', family='inf_laplace', params={})",
        "inf_laplace_homog": "OperatorDescriptor(name='inf_laplace_homog', "
                             "family='inf_laplace_homog', params={})",
        "eig_sum": "OperatorDescriptor(name='eig_sum(arctan)', family='eig_sum', "
                   "params={'h': MonotoneFunction(name='arctan', forward=<built-in function "
                   "atan>, inverse=None, bounded_below=-1.5707963267948966, "
                   "bounded_above=1.5707963267948966)})",
        "sqrt_gradient": "OperatorDescriptor(name='sqrt_gradient', family='sqrt_gradient', "
                         "params={})",
    }

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_constructor_builds_its_family(self, family):
        op = _FAMILIES[family][0](**self._ARGS.get(family, {}))
        assert op.family == family
        if family in self._REPRS:
            assert repr(op) == self._REPRS[family]
        if _FAMILIES[family][2] == "all (omega, X)":
            w = JetPoint(np.zeros(2), 0.0, np.zeros(2))
            assert op.in_domain(w, SymmetricMatrix.diagonal([-1e6, 1e6]))

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            OperatorDescriptor("f", "test", {}, lambda w, x: True, lambda w, x: 0.0)
        op = OperatorDescriptor(name="f", family="test", raw_evaluate=lambda w, x: -x.trace())
        assert op.params == {} and op.in_domain(unit_jet(1), SymmetricMatrix.identity(1))
        nowhere = dataclasses.replace(op, in_domain=lambda w, x: False)
        assert (nowhere.name, nowhere.raw_evaluate) == (op.name, op.raw_evaluate)
        with pytest.raises(OutOfDomain):
            nowhere.evaluate(unit_jet(1), SymmetricMatrix.identity(1))


class TestJson:
    def test_round_trips(self):
        assert operator_from_json({"family": "p_laplace", "p": 4}).name == "p_laplace(p=4)"
        assert operator_from_json({"family": "k_hessian", "k": 2}).name == "k_hessian(k=2)"
        assert operator_from_json({"family": "eig_sum", "h": "identity"}).name == "eig_sum(identity)"
        assert operator_from_json(
            {"family": "eig_sum", "h": "odd_root", "d": 5}).name == "eig_sum(odd_root(5))"
        assert operator_from_json({"family": "inf_laplace"}).name == "inf_laplace"
        op = operator_from_json({"family": "linear_uniform", "theta": 2.0,
                                 "sigma": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 1.0], "c": 0.5})
        assert op.family == "linear_uniform"

    def test_errors(self):
        with pytest.raises(BadParams):
            operator_from_json({"p": 4})
        with pytest.raises(BadParams):
            operator_from_json({"family": "p_laplace", "q": 4})
        with pytest.raises(BadParams):
            operator_from_json({"family": "eig_sum", "h": "tanh"})
        with pytest.raises(BadParams):
            operator_from_json({"family": "eig_sum", "h": "odd_root"})
        with pytest.raises(BadParams):
            operator_from_json([1, 2, 3])

    @pytest.mark.parametrize("spec", [
        {"family": "k_hessian", "k": 2.7},
        {"family": "k_hessian", "k": "2"},
        {"family": "k_hessian", "k": True},
        {"family": "eig_sum", "h": "odd_root", "d": 3.9},
        {"family": "p_laplace", "p": True},
        {"family": "linear_uniform", "theta": 1.0, "b": [False, 1.0]},
        {"family": "p_laplace", "p": "4"},
        {"family": "linear_uniform", "theta": "1", "c": "0.5", "b": ["1", "2"],
         "sigma": [["1", "0"], ["0", "1"]]},
        # JSON null is not an omitted field
        {"family": "linear_uniform", "theta": 1.0, "c": None},
        {"family": "linear_uniform", "theta": 1.0, "sigma": None},
        {"family": "linear_uniform", "theta": 1.0, "b": None},
        {"family": "k_hessian", "k": None},
        {"family": "eig_sum", "h": "odd_root", "d": None},
    ])
    def test_rejects_coerced_fields(self, spec):
        with pytest.raises(BadParams):
            operator_from_json(spec)

    @pytest.mark.parametrize("spec, message", [
        ({"family": "p_laplace", "p": "4"}, "p must be finite and >= 1, got '4'"),
        ({"family": "k_hessian", "k": 2.7}, "k must be an integer >= 1, got 2.7"),
        ({"family": "eig_sum", "h": "odd_root", "d": 3.9},
         "d must be an odd integer >= 3, got 3.9"),
        ({"family": "linear_uniform", "theta": 1.0, "b": [False, 1.0]},
         "b must be a nonempty vector of finite real numbers, got a bool entry"),
        ({"family": "linear_uniform", "theta": 1.0, "sigma": [[1.0, 0.0], [0.0, True]]},
         "sigma must be a nonempty matrix of finite real numbers, got a bool entry"),
        ({"family": "linear_uniform", "theta": 1.0, "c": None}, "field 'c' must not be null"),
    ])
    def test_a_field_is_refused_by_its_constructors_rule(self, spec, message):
        with pytest.raises(BadParams) as info:
            operator_from_json(spec)
        assert str(info.value) == message

    def test_numpy_array_fields_are_read_as_the_constructor_reads_them(self):
        """No field test compares a value with None by ==, which an array cannot answer."""
        b = np.array([0.0, 1.0])
        built = operator_from_json({"family": "linear_uniform", "theta": 1.0, "b": b})
        assert built.evaluate(unit_jet(2, 1), SymmetricMatrix.zero(2)) == 1.0
        with pytest.raises(BadParams, match="^p must be finite and >= 1, got array"):
            operator_from_json({"family": "p_laplace", "p": np.array([3.0, 4.0])})

    # a valid value for every field that catalog() lists
    _FIELD_VALUES = {"theta": 1.0, "sigma": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 1.0], "c": 0.5,
                     "p": 3.0, "k": 2, "h": "odd_root", "d": 3}

    @pytest.mark.parametrize("row", catalog(), ids=lambda row: row["family"])
    def test_catalog_fields_are_the_spec_fields(self, row):
        spec = {"family": row["family"], **{f: self._FIELD_VALUES[f] for f in row["fields"]}}
        assert operator_from_json(spec).family == row["family"]
        with pytest.raises(BadParams):
            operator_from_json({**spec, "unlisted": 1.0})

    def test_integral_float_is_an_integer(self):
        assert operator_from_json({"family": "k_hessian", "k": 2.0}).name == "k_hessian(k=2)"


class TestMonotoneFunctions:
    def test_inverse_round_trip(self):
        h = odd_root_monotone(3)
        for t in (-27.0, -1.0, 0.0, 0.5, 64.0):
            assert abs(h.inverse(h.forward(t)) - t) <= 1e-9 * max(1.0, abs(t))

    def test_arctan_is_bounded(self):
        h = arctan_monotone()
        assert not h.unbounded
        assert h.bounded_below == -math.pi / 2
        assert h.bounded_above == math.pi / 2

    def test_identity_unbounded(self):
        assert identity_monotone().unbounded


class TestEllipticityAndInvariance:
    def test_degenerate_ellipticity_statistical(self, rng):
        for op in all_catalog_instances():
            checked = 0
            while checked < 150:
                w = JetPoint(rng.uniform(-1, 1, 3), float(rng.uniform(-1, 1)),
                             rng.uniform(-1, 1, 3))
                x = random_symmetric(rng, 3)
                if not op.in_domain(w, x):
                    continue
                y = SymmetricMatrix(x.entries + (lambda p: p.T @ p)(rng.uniform(-1, 1, (3, 3))))
                if not op.in_domain(w, y):
                    continue
                checked += 1
                assert op.evaluate(w, x) >= op.evaluate(w, y) - 1e-8, op.name

    def test_orthogonal_invariance_of_spectral_operators(self, rng):
        for op in (k_hessian(2), eig_sum(identity_monotone()), eig_sum(odd_root_monotone(3))):
            checked = 0
            while checked < 50:
                x = random_symmetric(rng, 3)
                w = unit_jet(3)
                if not op.in_domain(w, x):
                    continue
                checked += 1
                q = random_orthogonal(rng, 3)
                rotated = SymmetricMatrix(q @ x.entries @ q.T)
                assert abs(op.evaluate(w, x) - op.evaluate(w, rotated)) <= 1e-8

    def test_homogeneous_scaling(self, rng):
        op = inf_laplace_homog()
        for _ in range(50):
            x = random_symmetric(rng, 3)
            nu = rng.uniform(-1, 1, 3)
            if np.linalg.norm(nu) < 1e-3:
                continue
            w1 = JetPoint(np.zeros(3), 0.0, nu)
            for s in (2.0, -3.0, 0.125):
                w2 = JetPoint(np.zeros(3), 0.0, s * nu)
                assert abs(op.evaluate(w1, x) - op.evaluate(w2, x)) <= 1e-10

    def test_matrix_continuity(self, rng):
        for op in (p_laplace(3), eig_sum(odd_root_monotone(3)), inf_laplace()):
            w = unit_jet(3)
            x = random_symmetric(rng, 3)
            direction = random_symmetric(rng, 3).entries
            base = op.evaluate(w, x)
            deltas = [1e-2, 1e-4, 1e-6]
            diffs = [abs(op.evaluate(w, SymmetricMatrix(x.entries + d * direction)) - base)
                     for d in deltas]
            assert diffs[-1] <= diffs[0] + 1e-12
            assert diffs[-1] <= 1e-3
