import contextlib
import io
import json
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classm.cli import main

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


class TestExitCodes:
    def test_passing_check(self, capsys):
        code, obj = run_json(capsys, "check-class-m", "--op", P3, "--dim", "3",
                             "--trials", "50", "--seed", "7")
        assert code == 0
        assert obj["type"] == "pass_report"

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
        ["check-class-u", "--op", LIN, "--lam", "1", "--dim", "3", "--trials", "30", "--seed", "3",
         "--hconst", "inf", "--json"],
        ["bounds", "--op", LIN, "--E", EYE2, "--D", EYE2, "--hconst", "inf"],
        ["bounds", "--op", P3, "--E", '{"dim":2,"rows":[[1e308,1e308],[1e308,1e308]]}',
         "--D", EYE2],
        ["counterexample", "--name", "power_not_u", "--lam", "1e308"],
        ["counterexample", "--name", "power_not_u", "--lam", "1e-320"],
        ["counterexample", "--name", "power_not_u", "--hconst", "nan"],
    ])
    def test_malformed_input_exits_2_with_one_error_line(self, capsys, recwarn, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not recwarn.list

    def test_not_in_class_m_without_fallback_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sums-demo", "--alpha", "1", "--dim", "2",
                                 "--op", '{"family":"k_hessian","k":2}')
        assert code == 2
        assert "witness" in err


_FLOATS = ["0", "-1", "0.5", "2", "1e-320", "1e200", "1e308", "inf", "-inf", "nan", "x"]
_SMALL_INTS = ["-1", "0", "1", "2", "3", "x", "1e3"]  # small, so every command stays cheap
_OPS = [P3, LIN, '{"family":"p_laplace","p":1}', '{"family":"p_laplace","p":1e308}',
        '{"family":"linear_uniform","theta":1e308}', '{"family":"linear_uniform","theta":-1}',
        '{"family":"k_hessian","k":2}', '{"family":"inf_laplace"}', '{"family":"inf_laplace_homog"}',
        '{"family":"eig_sum","h":"odd_root","d":3}', '{"family":"eig_sum","h":"arctan"}',
        '{"family":"sqrt_gradient"}', '{}']
_MATRICES = [EYE2, '{"dim":1,"rows":[[1]]}', '{"dim":2,"rows":[[1e308,1e308],[1e308,1e308]]}',
             '{"dim":2,"rows":[[1e200,0],[0,-1e200]]}', '{"dim":2,"rows":[[1e-320,0],[0,1]]}',
             "@/nonexistent"]
_NUS = ["[1,0]", "[0,0]", "[1e308,1e308]", "[1]", '["x",1]']
_SAMPLING = {"--dim": _SMALL_INTS, "--trials": _SMALL_INTS, "--scale": _FLOATS,
             "--seed": ["-1", "0", "3", "x", "18446744073709551616"]}
# command -> (flags always given, flags sometimes given), each with its candidate values
_COMMANDS = {
    "catalog": ({}, {}),
    "check-ellipticity": ({"--op": _OPS, "--dim": _SMALL_INTS, "--trials": _SMALL_INTS}, _SAMPLING),
    "check-class-u": ({"--op": _OPS, "--dim": _SMALL_INTS, "--trials": _SMALL_INTS},
                      {**_SAMPLING, "--lam": _FLOATS, "--hconst": _FLOATS}),
    "check-class-m": ({"--op": _OPS, "--dim": _SMALL_INTS, "--trials": _SMALL_INTS},
                      {**_SAMPLING, "--lam": _FLOATS, "--hconst": _FLOATS, "--nu": _NUS}),
    "bounds": ({"--op": _OPS, "--E": _MATRICES, "--D": _MATRICES},
               {"--route": ["theorem", "corollary"], "--lam": _FLOATS, "--hconst": _FLOATS,
                "--nu": _NUS}),
    "counterexample": ({"--name": ["inf_laplace", "k_hessian", "p1_laplace", "power_not_u",
                                   "p_laplace_not_u", "bounded_h"]},
                       {"--dim": _SMALL_INTS, "--k": _SMALL_INTS, "--n": _SMALL_INTS,
                        "--c": _FLOATS, "--p": _FLOATS, "--lam": _FLOATS, "--hconst": _FLOATS,
                        "--d-root": _SMALL_INTS}),
    "sums-demo": ({"--op": _OPS, "--dim": _SMALL_INTS, "--terms": _SMALL_INTS},
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
    for flag in flags:
        argv += [flag, draw(st.sampled_from(values[flag]))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_argv_fuzz_exit_codes(argv):
    """Any argv exits 0, 1 or 2; exit 2 prints no traceback or warning and ends in an input error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert "Traceback" not in err.getvalue()
        last = lines[-1] if lines else ""
        # an input fault, or argparse's usage line "classm <command>: error: ..."
        assert last.startswith(("error:", "classm")) and "error: " in last, (argv, err.getvalue())


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


class TestReports:
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


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        argv = ("check-class-m", "--op", P3, "--dim", "3", "--trials", "40",
                "--seed", "123", "--json")
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
