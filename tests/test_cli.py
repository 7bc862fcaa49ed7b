import contextlib
import dataclasses
import hashlib
import io
import json
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classm import (BoundReport, Certificate, EpsilonSchedule, PassReport, SampleConfig,
                    SymmetricMatrix, cli, errors)
from classm.cli import _build_parser, main
from classm.falsify import _COUNTEREXAMPLES

jsonschema = pytest.importorskip("jsonschema")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture(scope="module")
def schema():
    with resources.files("classm").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


P3 = '{"family":"p_laplace","p":3}'
LIN = '{"family":"linear_uniform","theta":1}'
EYE2 = '{"dim":2,"rows":[[1.0,0.0],[0.0,1.0]]}'
THETA_1E400 = '{"family":"linear_uniform","theta":1e400}'  # JSON reads 1e400 as inf


class TestExitCodes:
    def test_passing_check(self, capsys):
        code, obj = run_json(capsys, "check-class-m", "--op", P3, "--dim", "3",
                             "--trials", "50", "--seed", "7")
        assert code == 0
        assert obj["type"] == "pass_report"

    @pytest.mark.parametrize("scale", ["1e12", "1e15", "1e100"])
    def test_slope_one_witness_passes_condition1_at_large_scale(self, capsys, scale):
        """The condition-1 grid stretches with |g(0, M)|, so rounding alone certifies no flat
        or non-increasing stretch."""
        code, obj = run_json(capsys, "check-class-m", "--op", '{"family":"p_laplace","p":4}',
                             "--dim", "3", "--trials", "20", "--seed", "1", "--scale", scale)
        assert (code, obj["type"]) == (0, "pass_report")

    def test_expect_fail_inverts(self, capsys):
        code, _, _ = run_cli(capsys, "check-class-m", "--op", P3, "--dim", "3",
                             "--trials", "50", "--seed", "7", "--expect", "fail")
        assert code == 1

    def test_violation_defaults_to_exit_1(self, capsys):
        code, obj = run_json(capsys, "check-class-u", "--op",
                             '{"family":"p_laplace","p":4}',
                             "--dim", "2", "--trials", "50", "--seed", "3")
        assert code == 1
        assert obj["type"] == "certificate"

    def test_violation_expected_exits_0(self, capsys):
        code, _, _ = run_cli(capsys, "check-class-u", "--op",
                             '{"family":"p_laplace","p":4}',
                             "--dim", "2", "--trials", "50", "--seed", "3",
                             "--expect", "fail")
        assert code == 0

    def test_counterexample_default_expectation_is_fail(self, capsys):
        code, obj = run_json(capsys, "counterexample", "--name", "k_hessian",
                             "--dim", "3", "--k", "2", "--n", "5")
        assert code == 0
        assert obj["inequality_values"]["grid"][0]["neg_F"] == 15

    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(capsys, "check-ellipticity", "--op", '{"family":"nope"}',
                       "--dim", "2")[0] == 2
        assert run_cli(capsys, "check-ellipticity", "--op", "not json", "--dim", "2")[0] == 2
        assert run_cli(capsys, "no-such-command")[0] == 2
        assert run_cli(capsys, "bounds", "--op", P3, "--E", EYE2, "--D",
                       '{"dim":2,"rows":[[1.0]]}')[0] == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--op", P3, "--E", "@/nonexistent", "--D", EYE2],
        ["bounds", "--op", P3, "--E", '{"dim":2,"rows":[["a",0],[0,1]]}', "--D", EYE2],
        ["bounds", "--op", P3, "--E", '{"dim":2,"rows":[3,[0,1]]}', "--D", EYE2],
        ["bounds", "--op", P3, "--E", EYE2, "--D", EYE2, "--nu", '["x",1]'],
        # strings and booleans in matrix JSON and --nu, which Python would coerce
        ["bounds", "--op", '{"family":"p_laplace","p":4}', "--E",
         '{"dim":2,"rows":[["1",0],[0,"2"]]}', "--D", '{"dim":2,"rows":[[1,0],[0,2]]}'],
        ["bounds", "--op", P3, "--E", '{"dim":true,"rows":[[true]]}',
         "--D", '{"dim":1,"rows":[[1.0]]}'],
        ["check-class-m", "--op", '{"family":"p_laplace","p":4}', "--dim", "2", "--trials", "5",
         "--nu", "[true,false]"],
        ["check-class-m", "--op", P3, "--dim", "2", "--nu", '["x",1]'],
        ["check-class-m", "--op", P3, "--dim", "0"],
        ["check-ellipticity", "--op", '{"family":"k_hessian","k":"two"}', "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"p_laplace","p":"x"}', "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"eig_sum","h":"odd_root","d":"x"}',
         "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"eig_sum","h":[1]}', "--dim", "2"],
        ["catalog", "--output", "/nonexistent/dir/report.json"],
        ["check-ellipticity", "--op", P3, "--dim", "2", "--scale", "inf"],
        ["check-ellipticity", "--op", P3, "--dim", "2", "--scale", "1e308"],
        ["sums-demo", "--alpha", "1e308", "--dim", "2", "--op", P3],
        ["check-ellipticity", "--op", P3, "--dim", "2", "--scale", "1e200"],
        ["check-class-u", "--op", LIN, "--dim", "2", "--scale", "1e200"],
        ["counterexample", "--name", "p_laplace_not_u", "--p", "1e308"],
        ["counterexample", "--name", "p_laplace_not_u", "--p", "1.999999999"],
        ["counterexample", "--name", "p_laplace_not_u", "--p", "1e16", "--lam", "0.5",
         "--hconst", "-5"],
        ["bounds", "--op", LIN, "--E", '{"dim":2,"rows":[[1e308,1e308],[1e308,1e308]]}',
         "--D", EYE2],
        ["check-ellipticity", "--op", '{"family":"k_hessian","k":2.7}', "--dim", "3"],
        ["check-ellipticity", "--op", '{"family":"eig_sum","h":"odd_root","d":3.9}',
         "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"p_laplace","p":true}', "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"p_laplace","p":"4"}', "--dim", "2"],
        ["check-ellipticity", "--op", '{"family":"linear_uniform","theta":"1","c":"0.5",'
         '"b":["1","2"],"sigma":[["1","0"],["0","1"]]}', "--dim", "2"],
        ["sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN, "--terms", "12", "--seed", "5",
         "--slack", "1e9"],
        ["sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN, "--slack", "nan"],
        ["sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN, "--slack", "inf"],
        ["sums-demo", "--alpha", "inf", "--dim", "2", "--op", LIN],
        ["sums-demo", "--eps0", "inf", "--dim", "2", "--op", LIN],
        ["check-class-u", "--op", LIN, "--lam", "1", "--dim", "3", "--trials", "30", "--seed", "3",
         "--hconst", "inf", "--json"],
        ["bounds", "--op", LIN, "--E", EYE2, "--D", EYE2, "--hconst", "inf"],
        ["bounds", "--op", P3, "--E", '{"dim":2,"rows":[[1e308,1e308],[1e308,1e308]]}',
         "--D", EYE2],
        ["counterexample", "--name", "power_not_u", "--lam", "1e308"],
        ["counterexample", "--name", "power_not_u", "--lam", "1e-320"],
        ["counterexample", "--name", "power_not_u", "--hconst", "nan"],
        # finite input whose report would hold Infinity or NaN
        ["sums-demo", "--dim", "1", "--op", '{"family":"p_laplace","p":1e308}', "--terms", "1",
         "--json"],
        ["check-class-m", "--op", '{"family":"linear_uniform","theta":1e308}', "--dim", "2",
         "--trials", "3", "--hconst", "1e308", "--lam", "1e-320", "--json"],
        ["check-class-u", "--op", P3, "--dim", "2", "--trials", "1", "--lam", "1e308", "--json"],
        ["check-class-m", "--op", '{"family":"p_laplace","p":4}', "--dim", "2", "--trials", "5",
         "--lam", "1", "--hconst", "inf"],
        # witness values that overflow, and a c too large for an exact -F
        ["bounds", "--op", '{"family":"eig_sum","h":"odd_root","d":5}',
         "--E", '{"dim":3,"rows":[[1e308,0,0],[0,1e308,0],[0,0,1e308]]}',
         "--D", '{"dim":3,"rows":[[1,0,0],[0,1,0],[0,0,1]]}'],
        ["check-class-m", "--op", '{"family":"p_laplace","p":1e300}', "--dim", "2",
         "--trials", "3", "--nu", "[2,0]"],
        ["check-class-m", "--op", '{"family":"p_laplace","p":4}', "--dim", "2", "--trials", "3",
         "--nu", "[1e200,0]"],
        ["counterexample", "--name", "p1_laplace", "--c=-1e300", "--dim", "3"],
        # draws or a stretched condition-1 grid past the float range
        ["check-class-m", "--op", '{"family":"p_laplace","p":4}', "--dim", "3", "--trials", "20",
         "--seed", "1", "--scale", "1e300"],
        ["check-class-m", "--op", '{"family":"p_laplace","p":4}', "--dim", "3", "--trials", "20",
         "--seed", "1", "--scale", "4e307"],
        # sizes past the N <= 16 scope, refused before anything of that size is built
        ["check-class-m", "--op", P3, "--dim", "17"],
        ["check-ellipticity", "--op", '{"family":"inf_laplace"}', "--dim", "100000000",
         "--trials", "1"],
        ["counterexample", "--name", "bounded_h", "--dim", "100000000"],
        ["sums-demo", "--dim", "2", "--op", LIN, "--terms", "10001"],
        ["sums-demo", "--dim", "2", "--op", LIN, "--terms", "100000000"],
        # k_hessian ladder values past the float range
        *(["counterexample", "--name", "k_hessian", "--dim", "3", "--k", "2", "--n", str(10**e)]
          for e in (153, 305, 400)),
        # a witness built for more dimensions than the matrices have
        ["check-class-m", "--op", '{"family":"k_hessian","k":3}', "--dim", "2", "--lam", "1",
         "--trials", "5"],
        # a slope so small that the bounds overflow
        ["bounds", "--route", "corollary", "--op", LIN, "--E", EYE2, "--D", EYE2,
         "--lam", "1e-320"],
        # parameters past the float range or outside their interval, refused by name
        *(["counterexample", "--name", name, c] for name in ("inf_laplace", "p1_laplace")
          for c in ("--c=nan", "--c=-inf")),
        ["check-ellipticity", "--op", THETA_1E400, "--dim", "2"],
        ["bounds", "--op", THETA_1E400, "--E", EYE2, "--D", EYE2],
        # a constant b of the wrong length for nu, or not a vector
        *(["check-ellipticity", "--op", f'{{"family":"linear_uniform","theta":1,"b":{b}}}',
           "--dim", "2", "--trials", "5"] for b in ("[1,2,3]", "[[1,2],[3,4]]")),
        # a flag that the named construction does not take
        ["counterexample", "--name", "inf_laplace", "--k", "3"],
        ["counterexample", "--name", "bounded_h", "--c", "-5"],
        ["counterexample", "--name", "k_hessian", "--lam", "2"],
    ])
    def test_malformed_input_exits_2_with_one_error_line(self, capsys, recwarn, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not recwarn.list

    @pytest.mark.parametrize("alpha", ["1", "1e4"])
    def test_slack_limit_misses_the_witness_bound_at_any_alpha(self, capsys, alpha):
        """X_eps = -slack I exactly, so the tail settles at every alpha, and the limit sits
        slack below the witness's lower bound 0: exit 1, not a NonConvergent error."""
        code, obj = run_json(capsys, "sums-demo", "--alpha", alpha, "--dim", "1", "--op", LIN,
                             "--ratio", "0.9", "--terms", "10", "--slack", "0.001")
        assert code == 1
        assert obj["limits"]["X"]["rows"] == [[-0.001]]
        assert not obj["report"]["details"]["limit_lower_X_ok"]

    @pytest.mark.parametrize("op, nu, bound", [
        ('{"family":"p_laplace","p":4}', "[1e200,0]", -3.0),
        ('{"family":"p_laplace","p":1e300}', "[1e200,0]", -1e300),
        ('{"family":"p_laplace","p":1e300}', "[2,0]", -1e300),
    ])
    def test_overflowing_prefactor_keeps_the_theorem_bounds(self, capsys, op, nu, bound):
        """|nu|^(p-2) overflows to inf, but the theorem route reads only the zero crossing
        -(N+p-3) lambda_N, which does not involve it."""
        code, obj = run_json(capsys, "bounds", "--op", op, "--E", EYE2, "--D", EYE2, "--nu", nu)
        assert code == 0
        assert (obj["lower_X"], obj["lower_negY"]) == (bound, bound)

    @pytest.mark.parametrize("error", [cls for cls in vars(errors).values() if isinstance(cls, type)
                                       and issubclass(cls, errors.ToolkitError)],
                             ids=lambda cls: cls.__name__)
    def test_only_a_bare_toolkit_error_is_internal(self, capsys, monkeypatch, error):
        def handler(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_check_ellipticity", handler)
        code, out, err = run_cli(capsys, "check-ellipticity", "--op", LIN, "--dim", "2")
        assert (code, out) == (2, "")
        blame = "internal error" if error is errors.ToolkitError else "error"
        assert err == f"{blame}: boom\n"

    @pytest.mark.parametrize("argv,message", [
        (["check-class-m", "--op", '{"family":"k_hessian","k":3}', "--dim", "2", "--lam", "1",
          "--trials", "5"], "k_hessian(k=3) applied to a 2x2 matrix"),
        (["check-ellipticity", "--op", P3, "--dim", "0"], "--dim must be in 1..16, got 0"),
        (["sums-demo", "--dim", "2", "--op", LIN, "--terms", "10001"],
         "--terms must be <= 10000, got 10001"),
        (["sums-demo", "--alpha", "inf", "--dim", "2", "--op", LIN],
         "alpha must be finite and > 0, got inf"),
        (["sums-demo", "--eps0", "inf", "--dim", "2", "--op", LIN],
         "eps0 must be finite and > 0, got inf"),
        (["bounds", "--route", "corollary", "--op", LIN, "--E", EYE2, "--D", EYE2,
          "--lam", "1e-320"], "class_u_g1[linear_uniform(theta=1)]: evaluation produced a "
         "non-finite value"),
        *((["check-ellipticity", "--op", spec, "--dim", "2"], message) for spec, message in [
            ('{"family":"eig_sum","h":"odd_root"}', "bad fields for family 'eig_sum': "
             "odd_root_monotone() missing 1 required positional argument: 'd'"),
            ('{"family":"eig_sum","h":"identity","d":3}', "bad fields for family 'eig_sum': "
             "identity_monotone() got an unexpected keyword argument 'd'"),
            ('{"family":"eig_sum","h":"odd_root","d":4}', "d must be an odd integer >= 3, got 4"),
            (THETA_1E400, "theta must be finite and > 0, got inf"),
            ('{"family":"eig_sum","h":"nope"}',
             "unknown monotone function 'nope'; known: ['arctan', 'identity', 'odd_root']"),
            ('{"family":"eig_sum","h":["identity"]}',
             "unknown monotone function ['identity']; known: ['arctan', 'identity', 'odd_root']"),
            ('{"family":"eig_sum","h":{"name":"identity"}}', "unknown monotone function "
             "{'name': 'identity'}; known: ['arctan', 'identity', 'odd_root']"),
        ]),
        *((["counterexample", "--name", name, f"--c={c}"], f"c must be finite and <= 0, got {c}")
          for name in ("inf_laplace", "p1_laplace") for c in ("nan", "-inf")),
        (["bounds", "--op", THETA_1E400, "--E", EYE2, "--D", EYE2],
         "theta must be finite and > 0, got inf"),
        (["counterexample", "--name", "bounded_h", "--d-root", "5"],
         "--d-root does not apply to counterexample bounded_h"),
        (["counterexample", "--name", "p1_laplace", "--hconst", "1"],
         "--hconst does not apply to counterexample p1_laplace"),
    ])
    def test_input_error_messages(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_not_in_class_m_without_fallback_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sums-demo", "--alpha", "1", "--dim", "2",
                                 "--op", '{"family":"k_hessian","k":2}')
        assert code == 2
        assert "witness" in err


_FLOATS = ["0", "-1", "0.5", "2", "1e-320", "1e200", "1e308", "-1e300", "inf", "-inf", "nan", "x"]
_SMALL_INTS = ["-1", "0", "1", "2", "3", "x", "1e3"]  # small, so every command stays cheap
_HUGE_INTS = _SMALL_INTS + [str(10**305)]  # for flags whose size allocates nothing
_SIZES = _SMALL_INTS + ["100000000"]  # refused by the CLI before anything of that size is built
_OPS = [P3, LIN, '{"family":"p_laplace","p":1}', '{"family":"p_laplace","p":1e308}',
        '{"family":"linear_uniform","theta":1e308}', '{"family":"linear_uniform","theta":-1}',
        '{"family":"k_hessian","k":2}', '{"family":"inf_laplace"}', '{"family":"inf_laplace_homog"}',
        '{"family":"eig_sum","h":"odd_root","d":3}', '{"family":"eig_sum","h":"arctan"}',
        '{"family":"sqrt_gradient"}', '{}', '{"family":"eig_sum","h":"odd_root","d":5}',
        '{"family":"p_laplace","p":1e300}']
_MATRICES = [EYE2, '{"dim":1,"rows":[[1]]}', '{"dim":2,"rows":[[1e308,1e308],[1e308,1e308]]}',
             '{"dim":2,"rows":[[1e200,0],[0,-1e200]]}', '{"dim":2,"rows":[[1e-320,0],[0,1]]}',
             "@/nonexistent"]
_NUS = ["[1,0]", "[0,0]", "[1e308,1e308]", "[1]", '["x",1]']
_SAMPLING = {"--dim": _SIZES, "--trials": _SMALL_INTS, "--scale": _FLOATS,
             "--seed": ["-1", "0", "3", "x", "18446744073709551616"]}
# command -> (flags always given, flags sometimes given), each with its candidate values
_COMMANDS = {
    "catalog": ({}, {}),
    "check-ellipticity": ({"--op": _OPS, "--dim": _SIZES, "--trials": _SMALL_INTS}, _SAMPLING),
    "check-class-u": ({"--op": _OPS, "--dim": _SIZES, "--trials": _SMALL_INTS},
                      {**_SAMPLING, "--lam": _FLOATS, "--hconst": _FLOATS}),
    "check-class-m": ({"--op": _OPS, "--dim": _SIZES, "--trials": _SMALL_INTS},
                      {**_SAMPLING, "--lam": _FLOATS, "--hconst": _FLOATS, "--nu": _NUS}),
    "bounds": ({"--op": _OPS, "--E": _MATRICES, "--D": _MATRICES},
               {"--route": ["theorem", "corollary"], "--lam": _FLOATS, "--hconst": _FLOATS,
                "--nu": _NUS}),
    "counterexample": ({"--name": list(_COUNTEREXAMPLES)},
                       {"--dim": _SIZES, "--k": _HUGE_INTS, "--n": _HUGE_INTS,
                        "--c": _FLOATS, "--p": _FLOATS, "--lam": _FLOATS, "--hconst": _FLOATS,
                        "--d-root": _HUGE_INTS}),
    "sums-demo": ({"--op": _OPS, "--dim": _SIZES, "--terms": _SIZES},
                  {"--alpha": _FLOATS, "--eps0": _FLOATS, "--ratio": _FLOATS,
                   "--slack": _FLOATS, "--lam": _FLOATS, "--hconst": _FLOATS}),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    always, sometimes = _COMMANDS[command]
    flags = sorted(always)
    if sometimes:
        flags += draw(st.lists(st.sampled_from(sorted(sometimes)), unique=True, max_size=3))
    values = {**sometimes, **always}
    argv = [command]
    for flag in flags:  # one token, so that values such as -inf are not read as flags
        argv.append(f"{flag}={draw(st.sampled_from(values[flag]))}")
    return argv


def _reject_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_argv_fuzz_exit_codes(argv):
    """Any argv exits 0, 1 or 2; exit 0 or 1 prints strict JSON, and exit 2 prints no
    traceback or warning and ends in an input error."""
    argv = argv + ["--json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert "Traceback" not in err.getvalue()
        last = lines[-1] if lines else ""
        # an input fault, or argparse's usage line "classm <command>: error: ..."
        assert last.startswith(("error:", "classm")) and "error: " in last, (argv, err.getvalue())


class TestCounterexampleFlags:
    def test_name_choices_are_the_falsify_table(self):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        name = next(a for a in sub.choices["counterexample"]._actions if a.dest == "name")
        assert list(name.choices) == list(_COUNTEREXAMPLES)

    def test_hconst_reaches_p_laplace_not_u(self, capsys):
        _, obj = run_json(capsys, "counterexample", "--name", "p_laplace_not_u", "--hconst", "-2")
        assert obj["witnesses"]["H_omega"] == -2

    def test_d_root_reaches_power_not_u(self, capsys):
        _, obj3 = run_json(capsys, "counterexample", "--name", "power_not_u", "--lam", "0.5")
        _, obj5 = run_json(capsys, "counterexample", "--name", "power_not_u", "--lam", "0.5",
                           "--d-root", "5")
        assert obj3["witnesses"]["n"] != obj5["witnesses"]["n"]
        assert obj5["witnesses"]["operator"] == "eig_sum(odd_root(5))"

    def test_c_reaches_p1_laplace(self, capsys):
        _, obj = run_json(capsys, "counterexample", "--name", "p1_laplace", "--c", "-7")
        assert {"c": -7, "neg_F": 3, "lambda1": -7} in obj["inequality_values"]["grid"]
        _, obj = run_json(capsys, "counterexample", "--name", "p1_laplace", "--c=-5000")
        assert obj["inequality_values"]["lambda1_at_cmin"] == -5000

    def test_k_and_dim_reach_k_hessian(self, capsys):
        _, default = run_json(capsys, "counterexample", "--name", "k_hessian")
        _, obj = run_json(capsys, "counterexample", "--name", "k_hessian", "--k", "3",
                          "--dim", "4")
        assert obj["witnesses"]["k"] == 3 and obj["witnesses"]["X_at_nmax"]["dim"] == 4
        assert obj["inequality_values"]["grid"] != default["inequality_values"]["grid"]


class TestFallbackCertificates:
    @pytest.mark.parametrize("op,kind", [
        ('{"family":"inf_laplace"}', "counterexample.inf_laplace"),
        ('{"family":"inf_laplace_homog"}', "counterexample.inf_laplace"),
        ('{"family":"k_hessian","k":2}', "counterexample.k_hessian"),
        ('{"family":"p_laplace","p":1}', "counterexample.p1_laplace"),
        ('{"family":"eig_sum","h":"arctan"}', "counterexample.bounded_h"),
    ])
    def test_families_without_witnesses_emit_divergence_certs(self, capsys, op, kind):
        code, obj = run_json(capsys, "check-class-m", "--op", op, "--dim", "3",
                             "--trials", "10", "--seed", "1", "--expect", "fail")
        assert code == 0
        assert obj["type"] == "certificate"
        assert obj["kind"] == kind

    def test_fallback_certificate_is_reverified(self, capsys, monkeypatch):
        real = cli.counterexample

        def tampered(name, **params):
            cert = real(name, **params)
            return dataclasses.replace(cert, margin=cert.margin + 1.0)

        monkeypatch.setattr(cli, "counterexample", tampered)
        code, out, err = run_cli(capsys, "check-class-m", "--op", '{"family":"inf_laplace"}',
                                 "--dim", "3")
        assert (code, out) == (2, "")
        assert err.startswith("internal error: certificate counterexample.inf_laplace failed "
                              "reverification") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("off", [0.0, 1.0])
    def test_lemma_certificate_is_reverified(self, capsys, monkeypatch, off):
        """sums-demo prints the lemma's certificate inside its trace, after its reverify()."""
        real = cli.lemma_upper_bound

        def escaped(a, eps0, family):
            x, y = family.pairs[0]
            pushed = ((SymmetricMatrix(x.entries + 100.0 * np.eye(2)), y),) + family.pairs[1:]
            cert = real(a, eps0, dataclasses.replace(family, pairs=pushed))
            return dataclasses.replace(cert, margin=cert.margin + off)

        monkeypatch.setattr(cli, "lemma_upper_bound", escaped)
        code, out, err = run_cli(capsys, "sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN,
                                 "--terms", "8", "--json")
        if off:
            assert (code, out) == (2, "")
            assert err.startswith("internal error: certificate lemma_upper_bound.violation "
                                  "failed reverification") and len(err.splitlines()) == 1
        else:
            assert (code, err) == (1, "")
            assert json.loads(out)["uniform_upper_bound"]["kind"] == "lemma_upper_bound.violation"

    @pytest.mark.parametrize("checker, argv", [
        ("check_degenerate_ellipticity", ["check-ellipticity", "--op", LIN, "--dim", "2"]),
        ("check_class_u", ["check-class-u", "--op", LIN, "--dim", "2"]),
        ("check_class_m", ["check-class-m", "--op", P3, "--dim", "2"]),
    ])
    @pytest.mark.parametrize("expect", ["pass", "fail"])
    def test_checker_certificate_is_reverified(self, capsys, monkeypatch, checker, argv, expect):
        """A checker's violation goes out through the same re-check as a counterexample's."""
        def tampered(*_operands):
            cert = cli.counterexample("inf_laplace", dim=3)
            return dataclasses.replace(cert, margin=cert.margin + 1.0)

        monkeypatch.setattr(cli, checker, tampered)
        code, out, err = run_cli(capsys, *argv, "--trials", "5", "--expect", expect)
        assert (code, out) == (2, "")
        assert err.startswith("internal error: certificate counterexample.inf_laplace failed "
                              "reverification") and len(err.splitlines()) == 1


class TestReports:
    def test_lam_embeds_class_u_witness_for_every_family(self, capsys):
        code, obj = run_json(capsys, "check-class-m", "--op", '{"family":"p_laplace","p":4}',
                             "--dim", "2", "--trials", "5", "--lam", "1")
        assert code == 0
        assert obj["details"]["g1"] == "class_u_g1[p_laplace(p=4)]"

    def test_bounds_theorem_route(self, capsys):
        code, obj = run_json(capsys, "bounds", "--op", '{"family":"p_laplace","p":4}',
                             "--E", EYE2, "--D", EYE2)
        assert code == 0
        assert obj["lower_X"] == -3.0 and obj["lower_negY"] == -3.0

    def test_bounds_corollary_route(self, capsys):
        code, obj = run_json(capsys, "bounds", "--op", LIN, "--E", EYE2, "--D", EYE2,
                             "--route", "corollary")
        assert code == 0
        assert obj["lower_X"] == -1.0

    def test_corollary_route_takes_the_theorem_routes_default_lam(self, capsys):
        e = '{"dim":2,"rows":[[2.0,0.5],[0.5,-1.0]]}'
        d = '{"dim":2,"rows":[[0.3,-0.2],[-0.2,1.5]]}'
        bounds = {}
        for route in ("theorem", "corollary"):
            code, obj = run_json(capsys, "bounds", "--op", '{"family":"sqrt_gradient"}',
                                 "--E", e, "--D", d, "--route", route)
            assert code == 0
            bounds[route] = (obj["lower_X"], obj["lower_negY"])
        assert bounds["corollary"] == bounds["theorem"]

    def test_trace_corollary_route_defaults_to_slope_1(self, capsys):
        """-sum_j lambda_j = -tr X meets the Class U gap at slope 1 exactly, so the corollary
        route needs no --lam for eig_sum(identity) and matches the theorem route at --lam 1."""
        op = '{"family":"eig_sum","h":"identity"}'
        e = '{"dim":3,"rows":[[1,0.5,0],[0.5,2,0],[0,0,-3]]}'
        d = '{"dim":3,"rows":[[0.3,0,-0.2],[0,1,0],[-0.2,0,1.5]]}'
        code, cor = run_json(capsys, "bounds", "--op", op, "--E", e, "--D", d,
                             "--route", "corollary")
        assert code == 0 and cor["details"]["lam"] == 1.0
        code, thm = run_json(capsys, "bounds", "--op", op, "--E", e, "--D", d, "--lam", "1")
        assert code == 0
        assert (cor["lower_X"], cor["lower_negY"]) == (thm["lower_X"], thm["lower_negY"])

    @pytest.mark.parametrize("family", ["p_laplace", "p_laplace_homog"])
    def test_laplacian_corollary_route_defaults_to_slope_1(self, capsys, family):
        op = json.dumps({"family": family, "p": 2})
        e = '{"dim":3,"rows":[[1,0,0],[0,2,0],[0,0,3]]}'
        code, cor = run_json(capsys, "bounds", "--op", op, "--E", e, "--D", e,
                             "--route", "corollary")
        assert code == 0
        code, thm = run_json(capsys, "bounds", "--op", op, "--E", e, "--D", e, "--lam", "1")
        assert code == 0
        assert (cor["lower_X"], cor["lower_negY"]) == (thm["lower_X"], thm["lower_negY"])
        assert (cor["lower_X"], cor["lower_negY"]) == (-5.0, -5.0)
        code, _ = run_json(capsys, "check-class-u", "--op", op, "--lam", "1", "--dim", "3",
                           "--trials", "200", "--seed", "1")
        assert code == 0  # slope 1 is a Class U witness of the Laplacian

    def test_bounds_matrix_from_files(self, capsys, tmp_path):
        text_file = tmp_path / "e.txt"
        text_file.write_text("2\n1.0 0.0\n0.0 1.0\n")
        json_file = tmp_path / "d.json"
        json_file.write_text(EYE2)
        code, obj = run_json(capsys, "bounds", "--op", '{"family":"p_laplace","p":4}',
                             "--E", f"@{text_file}", "--D", f"@{json_file}")
        assert code == 0
        assert obj["lower_X"] == -3.0

    def test_sums_demo_trace(self, capsys):
        code, obj = run_json(capsys, "sums-demo", "--alpha", "1", "--dim", "2",
                             "--op", LIN, "--terms", "12")
        assert code == 0
        assert obj["type"] == "sums_trace"
        assert obj["report"]["lower_X"] == -1.0
        assert all(row["eq1_ok"] for row in obj["pairs"])
        assert obj["limits"]["X"]["rows"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, obj = run_json(capsys, "check-ellipticity", "--op", P3, "--dim", "2",
                             "--trials", "20", "--seed", "5", "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == obj

    def test_human_output_lines(self, capsys):
        code, out, _ = run_cli(capsys, "check-ellipticity", "--op", P3, "--dim", "2",
                               "--trials", "20", "--seed", "5")
        assert code == 0
        assert out.startswith("PASS")
        code, out, _ = run_cli(capsys, "counterexample", "--name", "p1_laplace",
                               "--dim", "3")
        assert code == 0
        assert out.startswith("VIOLATION")

    def test_human_bounds_line(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--op", P3, "--E", EYE2, "--D", EYE2)
        assert code == 0
        assert out.splitlines()[0] == ("BOUNDS  lower_X=-2  lower_negY=-2  upper_block_ok=True  "
                                       "witness=p_laplace_g1(p=3) / p_laplace_g2(p=3)")

    def test_human_catalog_rows(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[1] == (f"{'p_laplace':<20} domain: {'nu != 0':<40} "
                            "fields: {'p': 'required, >= 1'}")

    def test_human_sums_lines(self, capsys):
        code, out, _ = run_cli(capsys, "sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN,
                               "--terms", "8")
        assert code == 0
        assert out.splitlines() == [
            "SUMS  op=linear_uniform(theta=1)  alpha=1.0 dim=2 terms=8",
            "  lower_X=-1 lower_negY=-1 upper_block_ok=True implications_ok=True"]


class TestSchema:
    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("check-ellipticity", "--op", P3, "--dim", "2", "--trials", "20", "--seed", "5"),
        ("check-class-u", "--op", LIN, "--lam", "1.0", "--dim", "2",
         "--trials", "20", "--seed", "5"),
        ("check-class-m", "--op", P3, "--dim", "3", "--trials", "20", "--seed", "5"),
        ("check-class-m", "--op", '{"family":"inf_laplace"}', "--dim", "2",
         "--trials", "5", "--seed", "1", "--expect", "fail"),
        ("bounds", "--op", P3, "--E", EYE2, "--D", EYE2),
        ("counterexample", "--name", "power_not_u", "--d-root", "3", "--dim", "2",
         "--lam", "1.0"),
        ("sums-demo", "--alpha", "1", "--dim", "2", "--op", LIN, "--terms", "8"),
    ])
    def test_json_outputs_validate(self, capsys, schema, argv):
        _, obj = run_json(capsys, *argv)
        jsonschema.validate(obj, schema)

    @pytest.mark.parametrize("name, cls", [("pass_report", PassReport),
                                           ("certificate", Certificate),
                                           ("bound_report", BoundReport)])
    def test_report_properties_are_the_dataclass_fields(self, schema, name, cls):
        shown = {f.name for f in dataclasses.fields(cls) if f.repr}
        assert set(schema["$defs"][name]["properties"]) == {"type"} | shown

    @pytest.mark.parametrize("value", [SampleConfig(seed=1), EpsilonSchedule.geometric(count=3)],
                             ids=["sample_config", "epsilon_schedule"])
    def test_nested_objects_are_their_fields(self, value):
        assert list(value.to_json_obj()) == [f.name for f in dataclasses.fields(value)]


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        argv = ("check-class-m", "--op", P3, "--dim", "3", "--trials", "40",
                "--seed", "123", "--json")
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second


P4 = '{"family":"p_laplace","p":4}'
ODD3 = '{"family":"eig_sum","h":"odd_root","d":3}'

# sums-demo's stdout over alpha, dim, operator and slack, with the default 40-term
# schedule, as ((alpha, dim, op, slack, json), exit code, sha256 of stdout).
SUMS_DEMO_GOLDEN = [
    (("1", "1", LIN, "0", True), 0,
     "7e704ebf075d866aac02fe82b4322174daf7b5adec56b748340574a646931771"),
    (("1", "1", LIN, "0.01", False), 1,
     "f85409c386ad9c2eebb30c0e2265ff38b04695ba64daedf6406a71ddb07d8622"),
    (("0.5", "2", LIN, "0", True), 0,
     "ca52f561f6cd1df0634a68224347e515edf9b2d8fbe7b03c56156258b9dbee57"),
    (("3", "3", LIN, "0.01", True), 0,
     "c944d630a215cc36d3d04fd0986e1c3a16c07e458f5a69e0524b58e4bb8abc1b"),
    (("1", "4", LIN, "0.01", False), 0,
     "c63c7cb798dfdcbe37622f1ed22d73d8861fc874aba627deb46d77c7f1f1e74b"),
    (("1", "2", P4, "0", True), 0,
     "e5d415a00a0287620ddd7074a5667fc5b9f7739076c6619755c8305a3cc148c9"),
    (("3", "2", P4, "0", False), 0,
     "b20b3ba78ffffd5e31dc7a4f8d2fc47f452715f6697de9b612ea06c92c19611f"),
    (("0.5", "4", P4, "0.01", True), 0,
     "1e4a6041d1101a39da1bfccf5d218a5f7b4f4fe0794c4ce2702e1353758a5f31"),
    (("3", "1", P4, "0.01", True), 0,
     "8a1a691412797a310cf2e02d649cac372e782f4e4f54c41b6d11f0973b42c7af"),
    (("1", "3", ODD3, "0", True), 0,
     "a6a34eabed6179d9438101230fa2905f35b239288b87b02058a4902117c24f2b"),
    (("0.5", "2", ODD3, "0.01", False), 0,
     "1638703a9d57c50e536ccae6622451c83127aede72a40c870d805b0446a76f6e"),
    (("3", "4", ODD3, "0", True), 0,
     "4eb253069892052160f9b18c90f89c5fb19fbf1b6701cc2b6ff215e252f61011"),
]


def _sums_demo_id(case):
    alpha, dim, op, slack, as_json = case
    return f"{json.loads(op)['family']}-a{alpha}-d{dim}-s{slack}" + ("-json" if as_json else "")


@pytest.mark.parametrize("case, code, digest", SUMS_DEMO_GOLDEN,
                         ids=[_sums_demo_id(case) for case, _, _ in SUMS_DEMO_GOLDEN])
def test_sums_demo_golden(capsys, case, code, digest):
    alpha, dim, op, slack, as_json = case
    argv = ["sums-demo", "--alpha", alpha, "--dim", dim, "--op", op, "--slack", slack]
    got, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
