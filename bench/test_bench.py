"""Self-test of the benchmark.

Run from the repository root with ``python -m pytest bench -q``. It checks
that inputs depend on the seed alone, that repeated passes give the same
digest and the same layer counts, that the tracer counts what the layers
do, and that the result line names every metric ``BENCHMARK.json`` lists.
"""

import json
import subprocess
import sys

import pytest

import run

classm = run.prepare()

import classm.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SMALL_TRIALS = 32  # the smallest count at which check_class_m walks its full 260-probe ladder


def small_workload(name, seed, tracer=None):
    """The workload with few trials per checker verdict, so a pass takes about a second."""
    if name == "checkers":
        wrap = tracer.wrap_operator if tracer is not None else (lambda op: op)
        return workloads.Checkers(seed, wrap, trials=SMALL_TRIALS)
    return workloads.make_workload(name, seed, run.ROOT, tracer)


def inputs_of(workload):
    return workloads.canonical_json([v.inputs for r in range(workload.rounds)
                                     for v in workload.round(r)])


def traced_pass(name, seed):
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        m = run.measure(small_workload(name, seed, tracer), 0.0, tracer)
    finally:
        tracer.uninstall()
    return m, tracer


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_on_the_seed_alone(name):
    first = inputs_of(workloads.make_workload(name, 3, run.ROOT))
    assert inputs_of(workloads.make_workload(name, 3, run.ROOT)) == first
    assert inputs_of(workloads.make_workload(name, 4, run.ROOT)) != first


@pytest.mark.parametrize("name", NAMES)
def test_repeated_passes_agree_bit_for_bit_and_count_for_count(name):
    plain = run.measure(small_workload(name, 1), 0.0)
    one, _ = traced_pass(name, 1)
    two, _ = traced_pass(name, 1)
    assert plain.failed == one.failed == two.failed == 0, plain.failures + one.failures
    assert one.digest == two.digest == plain.digest
    assert one.first_counts == two.first_counts
    assert one.first_counts["counts"]  # the wrappers saw the work


def test_tracer_counts_match_the_layers():
    m, _ = traced_pass("checkers", 0)
    counts = m.first_counts["counts"]
    catalog_trials = SMALL_TRIALS * workloads.EllipticityCatalog.rounds
    # linear_uniform: one catalog verdict per round, one Class U embedding, one check_class_u
    assert counts["falsify.linear_uniform.trials"] == catalog_trials + 2 * SMALL_TRIALS
    assert counts["falsify.k_hessian.trials"] == catalog_trials
    assert counts["falsify.k_hessian.solves"] > counts["falsify.k_hessian.trials"]
    assert counts["falsify.k_hessian.attempts"] > counts["falsify.k_hessian.trials"]
    # only the Class M side has probes: 260 per check_class_m verdict
    rounds = workloads.ClassMWitnesses.rounds
    assert counts["falsify.p_laplace.probes"] == 15 * 260 * rounds
    assert counts["falsify.eig_sum.probes"] == 3 * 260 * rounds


def test_tracer_sees_no_solves_on_linear_uniform():
    op = classm.linear_uniform(1.0)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        tracer.active = True
        cfg = classm.SampleConfig(seed=1, trials=SMALL_TRIALS, dim=3)
        classm.check_degenerate_ellipticity(tracer.wrap_operator(op), cfg)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["falsify.linear_uniform.solves"] == 0
    assert tracer.calls["operators.evaluate"] == 2 * SMALL_TRIALS


def test_tracer_restores_what_it_wraps():
    before = (classm.SymmetricMatrix.__init__, classm.sums.loewner_leq, classm.cli.main,
              classm.falsify._sym_draw)
    traced_pass("sums_pipeline", 2)
    after = (classm.SymmetricMatrix.__init__, classm.sums.loewner_leq, classm.cli.main,
             classm.falsify._sym_draw)
    assert before == after


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_listed_metric(trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
                           "sums_pipeline", "--seed", "5", "--seconds", "0", "--trace",
                           str(trace)], cwd=run.ROOT, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
