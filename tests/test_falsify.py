import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classm import (
    BadParams,
    Certificate,
    ClassMWitness,
    JetPoint,
    OperatorDescriptor,
    PassReport,
    SampleConfig,
    SamplingExhausted,
    SymmetricMatrix,
    arctan_monotone,
    auto_witness_pair,
    check_class_m,
    check_class_u,
    check_degenerate_ellipticity,
    class_u_constant,
    class_u_to_class_m,
    counterexample,
    eig_sum,
    identity_monotone,
    inf_laplace,
    k_hessian,
    linear_uniform,
    odd_root_monotone,
    p_laplace,
    theorem_lower_bounds,
    unit_jet,
    witness_eig_sum,
    witness_p_laplace,
)
from classm.errors import BadArgument, InvalidMatrix, NonFiniteValue, ToolkitError
from classm import falsify
from classm.falsify import _flat_divergence, _jet_draw, _ones_tail, _rng
from conftest import brute_sk


def small_cfg(seed=11, trials=300, dim=3):
    return SampleConfig(seed=seed, trials=trials, dim=dim)


def anti_elliptic():
    return OperatorDescriptor(
        name="anti_elliptic", family="test", params={},
        in_domain=lambda w, x: True,
        raw_evaluate=lambda w, x: x.trace(),
    )


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(BadArgument):
            SampleConfig(seed=-1)
        with pytest.raises(BadArgument):
            SampleConfig(seed=0, trials=0)
        with pytest.raises(BadArgument):
            SampleConfig(seed=0, scale=0.0)
        with pytest.raises(BadArgument):
            SampleConfig(seed=0, dim=0)

    @pytest.mark.parametrize("bad", [{"trials": 2.5}, {"dim": 2.0}, {"seed": True},
                                     {"trials": True}, {"dim": np.True_}, {"seed": 1.0},
                                     {"scale": True}, {"scale": "1"}, {"scale": 10**400},
                                     {"seed": 2**64}])
    def test_refuses_what_it_cannot_serve(self, bad):
        with pytest.raises(BadArgument):
            SampleConfig(**{"seed": 0, **bad})

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        cfg = SampleConfig(seed=np.uint64(7), trials=np.int64(20), dim=np.int32(2),
                           scale=np.float32(0.5))
        assert [type(v) for v in (cfg.seed, cfg.trials, cfg.dim, cfg.scale)] == [int] * 3 + [float]
        rep = check_degenerate_ellipticity(linear_uniform(1.0), cfg)
        plain = check_degenerate_ellipticity(
            linear_uniform(1.0), SampleConfig(seed=7, trials=20, dim=2, scale=0.5))
        assert json.dumps(rep.to_json_obj()) == json.dumps(plain.to_json_obj())


_EDGE_SEEDS = st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1))


class TestTrialStreams:
    """The trial streams keep the bits of numpy's tuple seeding and three-call draws."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(_EDGE_SEEDS, st.integers(0, 2**64 - 1)),
           phase=st.one_of(st.sampled_from((0, 1, 2, 3)), st.integers(0, 2**64 - 1)),
           index=st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**40)))
    def test_rng_matches_tuple_seeding(self, seed, phase, index):
        ref = np.random.default_rng((seed, phase, index))
        assert _rng(seed, phase, index).bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", (0, 2**32 - 1, 2**32, 2**64 - 1))
    def test_rng_matches_tuple_seeding_at_block_and_word_edges(self, seed):
        for phase in (0, 1, 2, 3, 2**32, 2**64 - 1):
            for index in (0, 63, 64, 2**32 - 1, 2**32, 2**40):
                ref = np.random.default_rng((seed, phase, index))
                assert _rng(seed, phase, index).bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(scale=st.sampled_from((1e-300, 1.0, 1e154, 8e307)), index=st.integers(0, 200),
           sizes=st.lists(st.one_of(st.integers(1, 150), st.integers(1, 9).map(lambda n: (n, n))),
                          min_size=1, max_size=12))
    def test_draws_hand_out_consecutive_uniform_calls(self, scale, index, sizes):
        draws, twin = falsify._Draws(_rng(5, 1, index), scale), _rng(5, 1, index)
        for size in sizes:
            got, want = draws.uniform(-scale, scale, size), twin.uniform(-scale, scale, size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_draws_refuse_other_bounds(self):
        draws = falsify._Draws(_rng(0, 1, 0), 2.0)
        for low, high in ((-1.0, 1.0), (-2.0, 1.0), (0.0, 2.0), (-2.0, 2.5)):
            with pytest.raises(ToolkitError):
                draws.uniform(low, high, 3)

    @staticmethod
    def _three_call_draw(rng, n, scale):
        x = rng.uniform(-scale, scale, n)
        r = float(rng.uniform(-scale, scale))
        for _ in range(64):
            nu = rng.uniform(-scale, scale, n)
            if float(np.linalg.norm(nu)) >= 1e-6:
                return JetPoint(x, r, nu)
        raise SamplingExhausted("could not draw a usable gradient slot")

    @pytest.mark.parametrize("n,scale", [(1, 1.0), (3, 1.0), (8, 1e3), (1, 2e-6), (2, 1e-6)])
    def test_jet_draw_from_a_trial_stream_consumes_the_same_doubles(self, n, scale):
        """x and nu are views of the stream's buffer, which the draws after them leave as
        they were: the next draw and the jet point both hold the bytes of separate calls."""
        for seed in range(100):
            draws, twin = falsify._Draws(_rng(seed, 1, 0), scale), _rng(seed, 1, 0)
            try:
                ref = self._three_call_draw(twin, n, scale)
            except SamplingExhausted:
                continue
            got = _jet_draw(draws, n, scale)
            following = draws.uniform(-scale, scale, (n, n))
            for _ in range(3):  # past the end of the buffer, which then moves on
                draws.uniform(-scale, scale, 40)
            assert following.tobytes() == twin.uniform(-scale, scale, (n, n)).tobytes()
            assert (got.x.tobytes(), got.r, got.nu.tobytes(), got._nu_norm) == (
                ref.x.tobytes(), ref.r, ref.nu.tobytes(), ref._nu_norm)

    @pytest.mark.parametrize("n,scale", [(1, 1.0), (3, 1.0), (4, 1e3), (1, 2e-6), (2, 1e-6),
                                         (1, 1e-7)])
    def test_jet_draw_matches_three_calls(self, n, scale):
        outcomes = set()
        for seed in range(200):
            got_rng, ref_rng = _rng(seed, 1, 0), _rng(seed, 1, 0)
            try:
                ref = self._three_call_draw(ref_rng, n, scale)
            except SamplingExhausted:
                with pytest.raises(SamplingExhausted):
                    _jet_draw(got_rng, n, scale)
                outcomes.add("exhausted")
            else:
                got = _jet_draw(got_rng, n, scale)
                assert got.x.tobytes() == ref.x.tobytes() and got.r == ref.r
                assert got.nu.tobytes() == ref.nu.tobytes() and got._nu_norm == ref._nu_norm
                assert not (got.x.flags.writeable or got.nu.flags.writeable)
                first = _rng(seed, 1, 0).uniform(-scale, scale, 2 * n + 1)[n + 1:]
                outcomes.add("retried" if np.linalg.norm(first) < 1e-6 else "first")
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        # a tiny scale forces the nu redraws, and at 1e-7 every draw is exhausted
        expected = {1e-7: {"exhausted"}, 2e-6: {"first", "retried"}, 1e-6: {"first", "retried"}}
        assert outcomes == expected.get(scale, {"first"})


class TestEllipticity:
    def test_identity_sum_passes(self):
        rep = check_degenerate_ellipticity(eig_sum(identity_monotone()), small_cfg())
        assert isinstance(rep, PassReport)
        assert rep.trials == 300

    def test_inf_laplace_passes(self):
        assert isinstance(check_degenerate_ellipticity(inf_laplace(), small_cfg()), PassReport)

    def test_broken_operator_certified(self):
        cert = check_degenerate_ellipticity(anti_elliptic(), small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "ellipticity.violation"
        assert cert.margin > 1e-8
        cert.reverify()

    def test_determinism(self):
        a = check_degenerate_ellipticity(anti_elliptic(), small_cfg(seed=42))
        b = check_degenerate_ellipticity(anti_elliptic(), small_cfg(seed=42))
        assert a.to_json_obj() == b.to_json_obj()
        c = check_degenerate_ellipticity(anti_elliptic(), small_cfg(seed=43))
        assert c.to_json_obj() != a.to_json_obj()

    def test_sampling_exhausted(self):
        never = OperatorDescriptor(
            name="nowhere", family="test", params={},
            in_domain=lambda w, x: False, raw_evaluate=lambda w, x: 0.0)
        with pytest.raises(SamplingExhausted):
            check_degenerate_ellipticity(never, SampleConfig(seed=1, trials=1))


class TestClassU:
    def test_linear_passes_with_theta(self):
        rep = check_class_u(linear_uniform(1.5), class_u_constant(1.5), small_cfg())
        assert isinstance(rep, PassReport)
        assert rep.probes > 0

    def test_identity_witness_on_trace(self):
        rep = check_class_u(eig_sum(identity_monotone()), class_u_constant(1.0), small_cfg())
        assert isinstance(rep, PassReport)

    def test_p_laplace_fails_via_nullspace_probe(self):
        cert = check_class_u(p_laplace(4), class_u_constant(1.0, 0.5), small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_u.violation"
        cert.reverify()
        # the probe puts nu in the nullspace of M - B
        assert cert.witnesses["B"].trace() == 0.0

    def test_p_below_2_fails_too(self):
        cert = check_class_u(p_laplace(1.5), class_u_constant(2.0), small_cfg())
        assert isinstance(cert, Certificate)
        cert.reverify()

    def test_overflowing_gap_is_refused_where_it_is_computed(self):
        """lam tr(M - B) + H past the float range is no violation: the checker refuses it
        with NonFiniteValue rather than return a certificate whose reverify() fails."""
        with pytest.raises(NonFiniteValue) as info:
            check_class_u(p_laplace(3), class_u_constant(1e308),
                          SampleConfig(seed=0, trials=1, dim=2))
        assert str(info.value) == "the Class U gap lam tr(M - B) + H of p_laplace(p=3) overflowed"

    def test_too_large_lambda_fails_even_for_laplacian(self):
        cert = check_class_u(eig_sum(identity_monotone()), class_u_constant(3.0), small_cfg())
        assert isinstance(cert, Certificate)


class TestClassM:
    def test_p_laplace_witness_passes(self):
        om = unit_jet(3)
        g1, g2 = witness_p_laplace(3, om)
        rep = check_class_m(p_laplace(3), g1, g2, small_cfg())
        assert isinstance(rep, PassReport)

    def test_embedded_witness_passes(self):
        op = eig_sum(identity_monotone())
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        rep = check_class_m(op, g1, g2, small_cfg())
        assert isinstance(rep, PassReport)

    def test_inf_laplace_candidate_dies_on_ladder(self):
        g1 = ClassMWitness(name="naive", which="g1", eval_fn=lambda t, m: t,
                           inv_at_zero_fn=lambda m: 0.0)
        g2 = ClassMWitness(name="naive", which="g2", eval_fn=lambda t, m: t,
                           inv_at_zero_fn=lambda m: 0.0)
        cert = check_class_m(inf_laplace(), g1, g2, small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.condition3"
        cert.reverify()
        # the killing probe is the spike diag(1, 0, ..., 0, c): -F = 1 constant
        assert cert.inequality_values["neg_F"] == 1.0

    def test_bounded_h_candidate_dies_on_scalar_ladder(self):
        op = eig_sum(arctan_monotone())
        g1 = ClassMWitness(name="cand", which="g1", eval_fn=lambda t, m: t)
        g2 = ClassMWitness(name="cand", which="g2", eval_fn=lambda t, m: t)
        cert = check_class_m(op, g1, g2, small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.condition3"
        # bounded value: N arctan(-c) stays above -3 pi / 2
        assert cert.inequality_values["neg_F"] >= -3 * math.pi / 2

    def test_condition1_nonmonotone_certified(self):
        op = eig_sum(identity_monotone())
        bad1 = ClassMWitness(name="bad", which="g1", eval_fn=lambda t, m: -t)
        _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        cert = check_class_m(op, bad1, g2, small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.condition1"
        cert.reverify()

    def test_condition1_bounded_eval_certified(self):
        """tanh(t / 1000) rises strictly on the grid but is flat at its ends: the growth
        certificate, not the non-monotone one."""
        op = eig_sum(identity_monotone())
        flat = ClassMWitness(name="flat", which="g1",
                             eval_fn=lambda t, m: math.tanh(t / 1000.0),
                             inv_at_zero_fn=lambda m: 0.0)
        _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        cert = check_class_m(op, flat, g2, small_cfg())
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.condition1"
        assert set(cert.inequality_values) == {"low_end_gap", "high_end_gap"}
        assert 0.0 < cert.margin <= 1e-6
        cert.reverify()

    def test_condition1_growth_certificate_on_a_stretched_grid(self):
        """g(0, M) = 1e7 stretches the grid by 16; a g flat at its ends gets the growth
        certificate with the stretched ends, and it reverifies on them."""
        op = eig_sum(identity_monotone())
        flat = ClassMWitness(name="flat", which="g1",
                             eval_fn=lambda t, m: 1e7 + 1e-3 * math.atan(t / 1.6),
                             inv_at_zero_fn=lambda m: 0.0)
        _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        cert = check_class_m(op, flat, g2, small_cfg())
        assert isinstance(cert, Certificate)
        assert set(cert.inequality_values) == {"low_end_gap", "high_end_gap"}
        assert "between the 160000 and 1.6e+07 grid ends" in cert.description
        cert.reverify()

    def test_condition1_bounded_witness_certified_at_large_scale(self):
        """atan(t) + lambda_N(M) is bounded in t; on the grid stretched by |g(0, M)| ~ 1e12 it
        still fails condition 1, and the certificate reverifies on that grid."""
        op = eig_sum(identity_monotone())
        bounded = ClassMWitness(name="bounded", which="g1",
                                eval_fn=lambda t, m: math.atan(t) + float(m.eigenvalues()[-1]),
                                inv_at_zero_fn=lambda m: 0.0)
        _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        cert = check_class_m(op, bounded, g2, SampleConfig(seed=1, trials=20, scale=1e12, dim=3))
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.condition1"
        assert abs(cert.witnesses["t_lo"]) > 1e6  # a grid point of the stretched grid
        cert.reverify()

    def test_condition2_discontinuous_inverse_certified(self):
        op = eig_sum(identity_monotone())
        _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        jumpy = ClassMWitness(
            name="jumpy", which="g1",
            eval_fn=lambda t, m: t,
            inv_at_zero_fn=lambda m: 50.0 * math.sin(1e8 * float(m.entries[0, 0])),
        )
        cert = check_class_m(op, jumpy, g2, small_cfg(seed=5))
        assert isinstance(cert, Certificate)
        assert cert.kind in ("class_m.condition1", "class_m.condition2")

    def test_shifted_inverse_certified(self):
        """A closed-form inverse shifted by +5 stays continuous, so only the zero-crossing
        check sees it; the shift would have raised the theorem's bound from -12 to -7."""
        g1, g2 = witness_p_laplace(4, unit_jet(3))
        shifted = dataclasses.replace(g1, inv_at_zero_fn=lambda m: g1.inv_at_zero_fn(m) + 5.0)
        e = SymmetricMatrix.diagonal([1.0, 2.0, 3.0])
        assert theorem_lower_bounds(g1, g2, e, e).lower_X == -12.0
        assert theorem_lower_bounds(shifted, g2, e, e).lower_X == -7.0
        assert g1.evaluate(-7.0, e) == 5.0
        cert = check_class_m(p_laplace(4), shifted, g2, SampleConfig(seed=1, trials=200, dim=3))
        assert isinstance(cert, Certificate)
        assert cert.kind == "class_m.inverse"
        assert cert.margin == pytest.approx(5.0)
        assert cert.reverify() == cert.margin
        json.dumps(cert.to_json_obj(), allow_nan=False)

    def test_witness_parameter_error_is_not_a_domain_miss(self):
        """k_hessian(3) cannot act on 2x2 matrices: the embedding's domain question raises
        that, rather than reading it as 'outside the domain' until sampling runs dry."""
        op = k_hessian(3)
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(2))
        with pytest.raises(BadParams, match=r"k_hessian\(k=3\) applied to a 2x2 matrix"):
            check_class_m(op, g1, g2, SampleConfig(seed=0, trials=5, dim=2))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), exp=st.floats(16.0, 20.0),
           d=st.sampled_from((3, 5)))
    def test_no_false_inverse_on_flat_root_witnesses(self, n, seed, exp, d):
        """eig_sum(odd_root(d)) with eigenvalues near 10^exp puts the zero crossing near
        |t| = 10^(exp (d - 1) / d) ~ 1e18 for d = 3, where g is flat: still no certificate."""
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** exp
        m = SymmetricMatrix((raw + raw.T) / 2.0)
        for g in witness_eig_sum(odd_root_monotone(d)):
            assert falsify._inverse_check(g, m, g.inv_at_zero(m)) is None

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), exp=st.floats(149.0, 151.0),
           p=st.sampled_from((1.5, 2.0, 3.0, 4.0)), homogeneous=st.booleans())
    def test_no_false_inverse_on_steep_p_laplace_witnesses(self, n, seed, exp, p, homogeneous):
        """|nu| near 1e150 scales g by |nu|^(p - 2), up to 1e302 at p = 4 and down to 1e-75
        at p = 1.5: no certificate either way."""
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-10.0, 10.0, (n, n))
        m = SymmetricMatrix((raw + raw.T) / 2.0)
        nu = np.zeros(n)
        nu[0] = 10.0 ** exp
        omega = JetPoint(np.zeros(n), 0.0, nu)
        for g in witness_p_laplace(p, omega, homogeneous=homogeneous):
            assert falsify._inverse_check(g, m, g.inv_at_zero(m)) is None

    def test_overflowing_witness_values_are_refused(self):
        op = linear_uniform(1e308)
        g1, g2 = auto_witness_pair(op, unit_jet(2), unit_jet(2), lam=1e-320, h_const=1e308)
        with pytest.raises(NonFiniteValue):  # not a condition-1 certificate with a NaN margin
            check_class_m(op, g1, g2, SampleConfig(seed=0, trials=3, dim=2))

    def test_determinism(self):
        om = unit_jet(3)
        g1, g2 = witness_p_laplace(4, om)
        a = check_class_m(p_laplace(4), g1, g2, small_cfg(seed=9))
        b = check_class_m(p_laplace(4), g1, g2, small_cfg(seed=9))
        assert a.to_json_obj() == b.to_json_obj()


class TestCounterexamples:
    def test_inf_laplace_values(self):
        cert = counterexample("inf_laplace", dim=2, c=-1e6)
        assert cert.inequality_values["neg_F_constant"] == 1.0
        assert cert.inequality_values["lambda1_at_cmin"] == -1e6
        assert cert.margin == 1.0 + 1e6
        cert.reverify()

    def test_k_hessian_exact_grid(self):
        cert = counterexample("k_hessian", dim=3, k=2, n=5)
        first = cert.inequality_values["grid"][0]
        assert first["neg_F"] == 15 and first["lambda1"] == -5
        cert.reverify()

    def test_k_hessian_matches_bruteforce_small_sweep(self):
        for dim in (2, 3, 4):
            for k in range(2, dim + 1):
                for n in (1, 3, 10):
                    vals = [-n, -n] + [1] * (dim - 2)
                    formula = (math.comb(dim - 2, k - 2) * n * n
                               - 2 * math.comb(dim - 2, k - 1) * n
                               + math.comb(dim - 2, k))
                    assert brute_sk(vals, k) == formula

    def test_p1_laplace_values(self):
        cert = counterexample("p1_laplace", dim=4, c=-100.0)
        assert cert.inequality_values["neg_F_constant"] == 3.0
        assert all(row["neg_F"] == 3.0 for row in cert.inequality_values["grid"])
        cert.reverify()

    def test_power_not_u_finds_n(self):
        for d in (3, 5):
            cert = counterexample("power_not_u", d=d, dim=2, lam=1.0, h_const=0.0)
            assert cert.kind == "class_u.violation"
            assert cert.margin > 1e-8
            cert.reverify()

    def test_power_not_u_small_lambda_needs_larger_n(self):
        small = counterexample("power_not_u", d=3, dim=2, lam=0.01)
        big = counterexample("power_not_u", d=3, dim=2, lam=100.0)
        assert small.witnesses["n"] > big.witnesses["n"]

    def test_p_laplace_not_u_both_regimes(self):
        for p in (4.0, 1.5, 1.0, 10.0):
            cert = counterexample("p_laplace_not_u", p=p, dim=2, lam=1.0, h_const=-2.0)
            assert cert.margin > 1e-8
            cert.reverify()

    def test_p_laplace_not_u_rejects_p2(self):
        with pytest.raises(BadParams):
            counterexample("p_laplace_not_u", p=2.0)

    def test_bounded_h_certificate(self):
        cert = counterexample("bounded_h", dim=3)
        rows = cert.inequality_values["grid"]
        floor = cert.inequality_values["bound"]
        assert all(row["neg_F"] >= floor for row in rows)
        assert rows[-1]["extreme_eigenvalue"] < -1e9
        cert.reverify()

    def test_bounded_h_rejects_unbounded(self):
        with pytest.raises(BadParams):
            counterexample("bounded_h", dim=2, h=identity_monotone())

    def test_bounded_h_refuses_what_is_no_monotone_function(self):
        with pytest.raises(BadParams, match="^h must be a MonotoneFunction, not int$"):
            counterexample("bounded_h", h=3)

    def test_flat_divergence_blames_c_only_off_the_fixed_rungs(self):
        with pytest.raises(BadParams, match=r"^c = -1e\+300 "):  # (2 - 1e300) + 1e300 = 0
            counterexample("p1_laplace", c=-1e300, dim=3)
        bumpy = OperatorDescriptor(name="bumpy", family="test", params={},
                                   in_domain=lambda w, x: True,
                                   raw_evaluate=lambda w, x: float(x.entries[-1, -1] == -1e3))
        with pytest.raises(ToolkitError) as info:
            _flat_divergence("test", bumpy, 0, _ones_tail, 3, -5.0, "")
        assert not isinstance(info.value, BadParams)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            counterexample("nope")
        with pytest.raises(BadParams):
            counterexample("k_hessian", dim=3, k=4)
        with pytest.raises(BadParams):
            counterexample("k_hessian", dim=1, k=1)
        with pytest.raises(BadParams):
            counterexample("inf_laplace", dim=1)
        with pytest.raises(BadParams):
            counterexample("inf_laplace", dim=2, c=1.0)
        with pytest.raises(BadParams):
            counterexample("power_not_u", d=3, dim=2, lam=-1.0)
        with pytest.raises(BadParams):
            counterexample("k_hessian", bogus=1)
        for n in (10**153, 10**305, 10**400):  # ladder values past the float range
            with pytest.raises(BadParams, match="do not fit a float"):
                counterexample("k_hessian", dim=3, k=2, n=n)
        assert counterexample("k_hessian", dim=3, k=2, n=10**152).reverify() > 0.0

    @pytest.mark.parametrize("call, error", [
        (lambda: check_class_m(inf_laplace(), *class_u_to_class_m(
            inf_laplace(), class_u_constant(1.0), unit_jet(2)), small_cfg(dim=3)), BadArgument),
        (lambda: counterexample("k_hessian", n=0), BadParams),
        (lambda: counterexample("power_not_u", dim=1), BadParams),
        (lambda: counterexample("p_laplace_not_u", dim=1), BadParams),
        (lambda: counterexample("p_laplace_not_u", lam=0.0), BadParams),
        (lambda: counterexample("bounded_h", dim=0), BadParams),
    ], ids=["context-dim", "k_hessian-n-0", "power_not_u-dim-1", "p_laplace_not_u-dim-1",
            "p_laplace_not_u-lam-0", "bounded_h-dim-0"])
    def test_documented_refusals(self, call, error):
        with pytest.raises(error):
            call()

    def test_nan_margin_fails_reverification(self):
        cert = Certificate(kind="nan", witnesses={}, inequality_values={}, margin=math.nan,
                           recheck=lambda: math.nan)
        with pytest.raises(ToolkitError):
            cert.reverify()

    def test_certificates_serialize(self):
        for name, params in (("inf_laplace", {"dim": 2}),
                             ("k_hessian", {"dim": 3, "k": 2, "n": 5}),
                             ("p1_laplace", {"dim": 3}),
                             ("power_not_u", {"d": 3, "dim": 2}),
                             ("p_laplace_not_u", {"p": 4.0, "dim": 2}),
                             ("bounded_h", {"dim": 2})):
            obj = counterexample(name, **params).to_json_obj()
            text = json.dumps(obj, sort_keys=True)
            assert json.loads(text) == obj


def stepped_trace():
    """F = -tr X - 50 [X_02 > 0.9] on X_00 >= -0.5: rare violations behind domain rejections."""
    return OperatorDescriptor(
        name="stepped_trace", family="test", params={},
        in_domain=lambda w, x: x.entries[0, 0] >= -0.5,
        raw_evaluate=lambda w, x: -x.trace() - 50.0 * (x.entries[0, 2] > 0.9),
    )


def bumped_pair():
    """The Class U embedding of -tr X, with g2 raised by 100 where M_01 > 0.45.

    g2 is defined only for M_00 >= 0, so condition 4 redraws M on the trial
    stream before it finds the violation.
    """
    op = eig_sum(identity_monotone())
    g1, base = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
    bump = lambda m: 100.0 if m.entries[0, 1] > 0.45 else 0.0
    g2 = ClassMWitness(name="bumped_g2", which="g2",
                       eval_fn=lambda t, m: base.eval_fn(t, m) + bump(m),
                       inv_at_zero_fn=lambda m: base.inv_at_zero_fn(m) - bump(m),
                       domain_S=lambda m: m.entries[0, 0] >= 0.0, context=base.context)
    return op, g1, g2


def _cond1_case():
    op = eig_sum(identity_monotone())
    bad1 = ClassMWitness(name="bad", which="g1", eval_fn=lambda t, m: -t)
    _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
    return check_class_m(op, bad1, g2, small_cfg())


def _cond2_case():
    op = eig_sum(identity_monotone())
    _, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
    jumpy = ClassMWitness(name="jumpy", which="g1", eval_fn=lambda t, m: t,
                          inv_at_zero_fn=lambda m: 50.0 * math.sin(1e8 * float(m.entries[0, 0])))
    return check_class_m(op, jumpy, g2, small_cfg(seed=5))


def _cond3_case():
    g1 = ClassMWitness(name="naive", which="g1", eval_fn=lambda t, m: t,
                       inv_at_zero_fn=lambda m: 0.0)
    g2 = ClassMWitness(name="naive", which="g2", eval_fn=lambda t, m: t,
                       inv_at_zero_fn=lambda m: 0.0)
    return check_class_m(inf_laplace(), g1, g2, small_cfg())


# The first violation of each case, as (kind, trial_index, sha256 of its
# canonical JSON). A change to the trial order, the stream a trial draws
# from, or the resampling policy moves these.
VIOLATION_GOLDEN = {
    "ellipticity_anti": (
        lambda: check_degenerate_ellipticity(anti_elliptic(), small_cfg()),
        "ellipticity.violation", 0,
        "bc0319d883345e9ed65ce5f4c7d69188100e8f46467057316f3e84b826de9acb"),
    "ellipticity_stepped": (
        lambda: check_degenerate_ellipticity(stepped_trace(),
                                             SampleConfig(seed=7, trials=5000, dim=3)),
        "ellipticity.violation", 423,
        "72e61e28367b90799629ea321880d928028026612bc9be11941fb763bf7b2e11"),
    "class_u_probe": (
        lambda: check_class_u(p_laplace(4), class_u_constant(1.0, 0.5), small_cfg()),
        "class_u.violation", 0,
        "c01a6c58b3ba62a983385c98241fe828ef648038f449986fc0f4553a83c7aeb1"),
    "class_u_stepped": (
        lambda: check_class_u(stepped_trace(), class_u_constant(0.01),
                              SampleConfig(seed=5, trials=5000, dim=3)),
        "class_u.violation", 93,
        "49887c27c3bc9eefb1b0108780be2966f82421daff9be758c0213c355786123f"),
    "class_m_condition1": (_cond1_case, "class_m.condition1", None,
        "35b6f34ba9c8c05ee8e1fe20c439682864d6e8de3c0b3b8e73fc6d14aa1088b6"),
    "class_m_condition2": (_cond2_case, "class_m.condition2", None,
        "fc3a0d12b7256b72d252805ea1d6a13328bd3ddc33f38a5b299100c60ed027e0"),
    "class_m_condition3": (_cond3_case, "class_m.condition3", None,
        "8171dbfa6e610b2bb837c1e60dea1151e518846b0c254f294f09754c3f0c8638"),
    "class_m_condition4_redraw": (
        lambda: check_class_m(*bumped_pair(), SampleConfig(seed=3, trials=2000, dim=3)),
        "class_m.condition4", 2,
        "0faa790b2c8d5824dc252286e83fc7c83a14fb0766df9e75b3931e35dc8427f5"),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_GOLDEN))
def test_violation_golden(case):
    run, kind, index, digest = VIOLATION_GOLDEN[case]
    cert = run()
    assert isinstance(cert, Certificate)
    assert (cert.kind, cert.trial_index) == (kind, index)
    canonical = json.dumps(cert.to_json_obj(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest
    cert.reverify()


def half_domain_pair(dim):
    """The Class U embedding of -tr X with g1 cut down to M_00 >= 0, so that
    conditions 1 and 2 count only the draws inside g1's domain."""
    op = eig_sum(identity_monotone())
    g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(dim))
    return op, dataclasses.replace(g1, domain_S=lambda m: m.entries[0, 0] >= 0.0), g2


def p_laplace_pair(dim):
    return (p_laplace(3), *witness_p_laplace(3, unit_jet(dim)))


# Each checker's PassReport at dims 1 and 3, as (probes, sha256 of its
# canonical JSON). Ten trials sit below both of check_class_m's caps on its
# condition-1 and condition-2 samples (32 and 16); forty sit above them.
PASS_GOLDEN = {
    "ellipticity_dim1": (
        lambda: check_degenerate_ellipticity(p_laplace(3), small_cfg(trials=10, dim=1)), 0,
        "7f6c9946824bd247f0eb5a41ee45e0fa79e313911b1070ebc0cbcbf9636b4a90"),
    "ellipticity_dim3": (
        lambda: check_degenerate_ellipticity(p_laplace(3), small_cfg(trials=40)), 0,
        "679c4756c295704c714fe112133af0fe24cea97446a74a8000a90c5bdb979814"),
    "class_u_dim1": (
        lambda: check_class_u(linear_uniform(1.5), class_u_constant(1.5),
                              small_cfg(trials=10, dim=1)), 20,
        "947f55ded22074861c4cd024bbbd6ab597a3a0cbb5d5e9993a28219c7dc1d595"),
    "class_u_dim3": (
        lambda: check_class_u(linear_uniform(1.5), class_u_constant(1.5),
                              small_cfg(trials=40)), 80,
        "2c90c696bf76c8005e38fa7c3a7dbedd15af8d1fedc8a70ff22ee1a91b447059"),
    "class_m_dim1": (
        lambda: check_class_m(*p_laplace_pair(1), small_cfg(trials=10, dim=1)), 81,
        "ca3baeb06141e6c44a76b0d921bc6b5d55a4c75f56fb79345010248d0019b638"),
    "class_m_dim3": (
        lambda: check_class_m(*p_laplace_pair(3), small_cfg(trials=40)), 260,
        "476a4d4768d14ab43fcc87f4cc88df30497cfe8aef18d95de62a749857eb1228"),
    "class_m_half_domain_dim1": (
        lambda: check_class_m(*half_domain_pair(1), small_cfg(trials=10, dim=1)), 74,
        "900cc01f1c5f52ef36ab56a4fcada90e42155b4573eac846d6479529b4824c97"),
    "class_m_half_domain_dim3": (
        lambda: check_class_m(*half_domain_pair(3), small_cfg(trials=40)), 242,
        "f0ef7c9e3dbd4620622c8b02d5be080ee8dc47c849ed989adaab459a2fe37077"),
}


@pytest.mark.parametrize("case", sorted(PASS_GOLDEN))
def test_pass_report_golden(case):
    run, probes, digest = PASS_GOLDEN[case]
    rep = run()
    assert isinstance(rep, PassReport)
    canonical = json.dumps(rep.to_json_obj(), sort_keys=True, separators=(",", ":"))
    assert (rep.probes, hashlib.sha256(canonical.encode()).hexdigest()) == (probes, digest)


@pytest.mark.parametrize("case", sorted(PASS_GOLDEN))
def test_every_stream_opens_inside_the_driver(monkeypatch, case):
    """Each seeded stream a checker opens, probes and trials alike, is opened while
    _first_violation runs, so the driver sees all of them."""
    rng, driver = falsify._rng, falsify._first_violation
    depth, opened = [0], []

    def counted_rng(*args):
        opened.append(depth[0])
        return rng(*args)

    def counted_driver(*args):
        depth[0] += 1
        try:
            return driver(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(falsify, "_rng", counted_rng)
    monkeypatch.setattr(falsify, "_first_violation", counted_driver)
    PASS_GOLDEN[case][0]()
    assert opened and all(opened)


class TestWorkCounts:
    """Each sampled case is domain-checked once, by its draw, and -M is built and solved
    once per M. The counts are exact at seed 0."""

    @staticmethod
    def _counted(op):
        decided = []

        def in_domain(w, x):
            decided.append((w, x))  # keeps each case alive, so ids stay unique
            return op.in_domain(w, x)

        return dataclasses.replace(op, in_domain=in_domain), decided

    # k_hessian(2) redraws X until it lies in Gamma_2; Y = X + P^T P always does
    @pytest.mark.parametrize("make_op,draws,decisions", [
        (lambda: k_hessian(2), 2126, 2126 + 200), (lambda: p_laplace(4), 200, 2 * 200)])
    def test_one_domain_decision_per_case(self, monkeypatch, make_op, draws, decisions):
        op, decided = self._counted(make_op())
        sym_draw, drawn = falsify._sym_draw, []
        monkeypatch.setattr(falsify, "_sym_draw", lambda *a: drawn.append(1) or sym_draw(*a))
        rep = check_degenerate_ellipticity(op, SampleConfig(seed=0, trials=200, dim=3))
        assert isinstance(rep, PassReport)
        assert (len(drawn), len(decided)) == (draws, decisions)
        assert len({(id(w), id(x)) for w, x in decided}) == decisions

    def test_negation_is_solved_once_per_matrix(self, monkeypatch):
        op = eig_sum(identity_monotone())
        g1, g2 = class_u_to_class_m(op, class_u_constant(1.0), unit_jet(3))
        negations, solved = {}, []
        negated, eigenvalues = SymmetricMatrix.negated, SymmetricMatrix.eigenvalues

        def counted_negated(m):
            neg = negated(m)
            negations[id(neg)] = (m, neg)
            return neg

        def counted_eigenvalues(m):
            if m._evals is None and m._spectrum is None:
                solved.append(m)
            return eigenvalues(m)

        monkeypatch.setattr(SymmetricMatrix, "negated", counted_negated)
        monkeypatch.setattr(SymmetricMatrix, "eigenvalues", counted_eigenvalues)
        rep = check_class_m(op, g1, g2, SampleConfig(seed=0, trials=100, dim=3))
        assert isinstance(rep, PassReport)
        solves_per_m = Counter(id(negations[id(s)][0]) for s in solved if id(s) in negations)
        assert len(negations) == len(solves_per_m) == 346
        assert set(solves_per_m.values()) == {1}

    def test_condition2_gates_each_matrix_once(self, monkeypatch):
        """Condition 2 decides the domain of M, coarse and fine itself, so its inverses
        skip the witness's gate; a direct call keeps it."""
        gate, inv_at_zero = ClassMWitness._gate, ClassMWitness.inv_at_zero
        inside, counts = [False], Counter()

        def counted_gate(g, m):
            counts["gates inside inv_at_zero"] += inside[0]
            return gate(g, m)

        def counted_inv_at_zero(g, m, **kwargs):
            counts["inv_at_zero"] += 1
            inside[0] = True
            try:
                return inv_at_zero(g, m, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(ClassMWitness, "_gate", counted_gate)
        monkeypatch.setattr(ClassMWitness, "inv_at_zero", counted_inv_at_zero)
        g1, g2 = witness_p_laplace(1.5, unit_jet(3))
        rep = check_class_m(p_laplace(1.5), g1, g2, SampleConfig(seed=0, trials=100, dim=3))
        assert isinstance(rep, PassReport)
        assert counts == {"inv_at_zero": 96}
        g1.inv_at_zero(SymmetricMatrix.identity(3))
        assert counts["gates inside inv_at_zero"] == 1


def test_overflowing_sampled_pairs_are_refused():
    """At scale 1e200, X + P^T P overflows: the full check refuses it, not a report."""
    cfg = SampleConfig(seed=0, trials=10, dim=3, scale=1e200)
    with pytest.raises(InvalidMatrix):
        check_degenerate_ellipticity(p_laplace(4), cfg)
    with pytest.raises(InvalidMatrix):
        check_class_u(linear_uniform(1.0), class_u_constant(1.0), cfg)


def test_checkers_on_threads_match_serial_runs():
    """The seed block memo is module state; checkers on threads still see their own streams."""
    op = p_laplace(4)
    g1, g2 = witness_p_laplace(4, unit_jet(3))

    def run(seed):
        cfg = SampleConfig(seed=seed, trials=150, dim=3)
        return (check_degenerate_ellipticity(k_hessian(2), cfg).to_json_obj(),
                check_class_m(op, g1, g2, cfg).to_json_obj())

    seeds = (1, 2, 3, 4)
    serial = [run(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(run, seeds)) == serial


def test_import_leaves_numpy_random_unloaded():
    package_root = str(Path(falsify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, classm; assert 'numpy.random' not in sys.modules, 'numpy.random loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
