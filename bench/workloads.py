"""The benchmark's workloads: seeded inputs, verdicts and outcome checks.

A verdict is one public call: a ``check_*`` call, one sums-pipeline family,
or one CLI command. A workload yields its verdicts in a fixed number of
rounds. Round ``r`` at workload seed ``s`` draws every input from ``(s, r)``
alone, so the same seed always gives the same inputs. Operators,
witnesses and schedules are built once per
workload; the matrices each verdict works on are built inside the verdict,
so no eigenvalue cache carries over from one verdict to the next.

A run makes passes over a workload's first ``rounds`` rounds until its
time is up. The verdict set is therefore fixed for a seed, whatever the
length of the run, and so are the bit-identity digest and the per-layer
counts, which both cover the first pass.

Import this module only after the runner has pinned the environment (see
``run.pin_environment``): it imports numpy and classm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import classm

DEFAULT_SEED = 0
CHECK_TRIALS = 100
SCHEDULE_TERMS = 40
CHILD_TIMEOUT_S = 120

# Round r of a run at seed s shifts every base seed by r * 1000 + s * 10^6,
# so round 0 at the default seed uses the acceptance suite's own seeds.
_ROUND_STRIDE = 1_000
_SEED_STRIDE = 1_000_000


def sub_seed(base: int, seed: int, rnd: int) -> int:
    return (base + _ROUND_STRIDE * rnd + _SEED_STRIDE * seed) % 2**63


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Judgement:
    canonical: bytes  # what the bit-identity digest covers
    items: int        # trials + probes, eps-pairs, or 1 per command
    ok: bool          # the outcome the acceptance suite expects


@dataclass(frozen=True)
class Verdict:
    label: str
    inputs: object                       # JSON-able description of the inputs
    run: Callable[[], object]            # the timed public call(s)
    judge: Callable[[object], Judgement]  # untimed outcome check


def _same(op):
    return op


def _judge_pass_report(result) -> Judgement:
    passed = isinstance(result, classm.PassReport)
    items = result.trials + result.probes if passed else 0
    return Judgement(canonical_json(result.to_json_obj()), items, passed)


def _checker_verdict(label, check, *args) -> Verdict:
    cfg = args[-1]
    return Verdict(label, {"check": check, "config": cfg.to_json_obj()},
                   lambda: getattr(classm, check)(*args), _judge_pass_report)


class EllipticityCatalog:
    """``check_degenerate_ellipticity`` over the 13 operators of criterion 02, N=3."""

    rounds = 5  # 500 trials per operator and pass, so k_hessian's rejection rate settles

    def __init__(self, seed: int, wrap_op=_same, trials: int = CHECK_TRIALS):
        self.seed = seed
        self.trials = trials
        self.ops = [wrap_op(op) for op in (
            classm.linear_uniform(1.0),
            classm.p_laplace(1), classm.p_laplace(1.5), classm.p_laplace(2), classm.p_laplace(4),
            classm.p_laplace_homog(4),
            classm.inf_laplace(), classm.inf_laplace_homog(),
            classm.k_hessian(2),
            classm.eig_sum(classm.identity_monotone()),
            classm.eig_sum(classm.odd_root_monotone(3)),
            classm.eig_sum(classm.arctan_monotone()),
            classm.sqrt_gradient(),
        )]

    def round(self, rnd: int) -> list:
        return [
            _checker_verdict(op.name, "check_degenerate_ellipticity", op,
                             classm.SampleConfig(seed=sub_seed(200 + i, self.seed, rnd),
                                                 trials=self.trials, dim=3))
            for i, op in enumerate(self.ops)
        ]


class ClassMWitnesses:
    """``check_class_m`` on the witness grids of criteria 03, 04 and 08, plus one Class U pass."""

    rounds = 1

    def __init__(self, seed: int, wrap_op=_same, trials: int = CHECK_TRIALS):
        self.seed = seed
        self.trials = trials
        cases = []  # (label, base seed, dim, op, g1, g2)
        for p in (1.25, 1.5, 3.0, 4.0, 10.0):
            op = wrap_op(classm.p_laplace(p))
            for n in (2, 3, 4):
                g1, g2 = classm.witness_p_laplace(p, classm.unit_jet(n))
                cases.append((f"{op.name} N={n}", 41, n, op, g1, g2))
        for d in (3, 5):
            h = classm.odd_root_monotone(d)
            op = wrap_op(classm.eig_sum(h))
            cases.append((op.name, 81, 3, op, *classm.witness_eig_sum(h)))
        for op in (classm.linear_uniform(1.0), classm.eig_sum(classm.identity_monotone())):
            op = wrap_op(op)
            g1, g2 = classm.class_u_to_class_m(op, classm.class_u_constant(1.0),
                                               classm.unit_jet(3))
            cases.append((f"class_u_embedding {op.name}", 31, 3, op, g1, g2))
        self.cases = cases
        self.class_u_op = wrap_op(classm.linear_uniform(1.0))
        self.class_u_witness = classm.class_u_constant(1.0)

    def _config(self, base, dim, rnd):
        return classm.SampleConfig(seed=sub_seed(base, self.seed, rnd), trials=self.trials,
                                   dim=dim)

    def round(self, rnd: int) -> list:
        verdicts = [_checker_verdict(label, "check_class_m", op, g1, g2,
                                     self._config(base, dim, rnd))
                    for label, base, dim, op, g1, g2 in self.cases]
        verdicts.append(_checker_verdict(f"class_u {self.class_u_op.name}", "check_class_u",
                                         self.class_u_op, self.class_u_witness,
                                         self._config(3, 3, rnd)))
        return verdicts


class Checkers:
    """The seeded checkers: the ellipticity catalog and the Class M witness grids.

    The two parts stress different layers (sampling and rejection against
    probe ladders and small solves); they share one workload so that each
    run can be long enough to average out the host's slow spells.
    """

    name = "checkers"
    PARTS = (EllipticityCatalog, ClassMWitnesses)
    rounds = max(part.rounds for part in PARTS)

    def __init__(self, seed: int, wrap_op=_same, trials: int = CHECK_TRIALS):
        self.parts = [part(seed, wrap_op, trials) for part in self.PARTS]

    def round(self, rnd: int) -> list:
        return [v for part in self.parts if rnd < part.rounds for v in part.round(rnd)]


class SumsPipeline:
    """The ``eps A^2`` removal pipeline on random blocks (N = 2, 4, 6, 8) and the quadratic family."""

    name = "sums_pipeline"
    rounds = 2
    HALF_DIMS = (2, 4, 6, 8)
    QUADRATIC_DIM = 2

    def __init__(self, seed: int, wrap_op=_same):
        self.seed = seed
        self.op = wrap_op(classm.p_laplace(4))
        self.schedule = classm.EpsilonSchedule.geometric(1.0, 0.5, SCHEDULE_TERMS)
        self.tests = {}
        for n in self.HALF_DIMS:
            tf = classm.quadratic_doubling(1.0, n)
            g1 = classm.witness_p_laplace(4, classm.JetPoint(tf.x_hat, 0.0, tf.p))[0]
            g2 = classm.witness_p_laplace(4, classm.JetPoint(tf.y_hat, 0.0, tf.q))[1]
            self.tests[n] = (tf, g1, g2)

    def _random_blocks(self, rnd: int, n: int):
        """2N x 2N symmetric A with ||A|| uniform in [0.2, 1.5], as (E, B, D) arrays."""
        rng = np.random.default_rng([self.seed, rnd, n])
        raw = rng.uniform(-1.0, 1.0, (2 * n, 2 * n))
        a = classm.SymmetricMatrix((raw + raw.T) / 2.0)
        scaled = a.entries * (float(rng.uniform(0.2, 1.5)) / classm.operator_norm(a))
        return scaled[:n, :n].copy(), scaled[:n, n:].copy(), scaled[n:, n:].copy()

    def _verdict(self, label, n, make_blocks, strict, inputs) -> Verdict:
        tf, g1, g2 = self.tests[n]
        sched = self.schedule

        def run():
            a = make_blocks()
            family = classm.generate_admissible(a, sched)
            eq1 = [classm.verify_eq1(a, eps, x, y)
                   for eps, (x, y) in zip(sched.values, family.pairs)]
            lemma = classm.lemma_upper_bound(a, sched.eps0, family)
            limits = classm.extract_limit(family)
            report = classm.verify_conclusion(self.op, (g1, g2), tf, family, limits)
            return eq1, lemma, limits, report

        def judge(result) -> Judgement:
            eq1, lemma, limits, report = result
            details = report.details
            ok = (all(eq1) and isinstance(lemma, classm.PassReport) and report.upper_block_ok
                  and details["implications_ok"])
            if strict:  # the limit bounds are guaranteed only on the quadratic family
                ok = ok and details["limit_lower_X_ok"] and details["limit_lower_negY_ok"]
            obj = {"eq1": eq1, "lemma": lemma.to_json_obj(),
                   "limits": [classm.matrix_to_json_obj(m) for m in limits],
                   "report": report.to_json_obj()}
            return Judgement(canonical_json(obj), len(eq1), ok)

        return Verdict(label, inputs, run, judge)

    def round(self, rnd: int) -> list:
        verdicts = []
        for n in self.HALF_DIMS:
            e, b, d = self._random_blocks(rnd, n)
            make = (lambda e=e, b=b, d=d: classm.block_compose(
                classm.SymmetricMatrix(e), b, classm.SymmetricMatrix(d)))
            inputs = {"E": e.tolist(), "B": b.tolist(), "D": d.tolist()}
            verdicts.append(self._verdict(f"random_blocks N={n}", n, make, False, inputs))
        tf = self.tests[self.QUADRATIC_DIM][0]
        verdicts.append(self._verdict(
            f"quadratic_doubling alpha=1 N={self.QUADRATIC_DIM}", self.QUADRATIC_DIM,
            lambda: classm.hessian_blocks(tf), True, {"alpha": tf.alpha, "dim": tf.dim}))
        return verdicts


# The criterion-12 CLI matrix, copied so the benchmark never imports tests/.
CLI_MATRIX = [
    ["catalog", "--json"],
    ["check-ellipticity", "--op", '{"family":"p_laplace","p":3}', "--dim", "2",
     "--trials", "300", "--seed", "11", "--json"],
    ["check-class-u", "--op", '{"family":"linear_uniform","theta":1}', "--lam", "1",
     "--dim", "3", "--trials", "300", "--seed", "3", "--json"],
    ["check-class-u", "--op", '{"family":"p_laplace","p":4}', "--dim", "2",
     "--trials", "50", "--seed", "5", "--expect", "fail", "--json"],
    ["check-class-m", "--op", '{"family":"p_laplace","p":3}', "--dim", "3",
     "--trials", "300", "--seed", "7", "--json"],
    ["check-class-m", "--op", '{"family":"inf_laplace"}', "--dim", "3",
     "--trials", "10", "--seed", "1", "--expect", "fail", "--json"],
    ["bounds", "--op", '{"family":"p_laplace","p":4}',
     "--E", '{"dim":2,"rows":[[1.0,0.0],[0.0,1.0]]}',
     "--D", '{"dim":2,"rows":[[1.0,0.0],[0.0,1.0]]}', "--json"],
    ["counterexample", "--name", "k_hessian", "--dim", "3", "--k", "2", "--n", "5",
     "--json"],
    ["counterexample", "--name", "power_not_u", "--d-root", "3", "--dim", "2",
     "--lam", "0.5", "--hconst", "1", "--json"],
    ["sums-demo", "--alpha", "1", "--dim", "2",
     "--op", '{"family":"linear_uniform","theta":1}', "--terms", "12", "--seed", "5",
     "--json"],
]


class CliMatrix:
    """Each criterion-12 command as a ``python -m classm`` child, one at a time.

    With a tracer, each command runs under ``cli_child.py`` instead, which
    installs the same wrappers in the child and hands its spans back.
    """

    name = "cli_matrix"
    rounds = 1  # a command's cost does not depend on its seed

    def __init__(self, seed: int, root: Path, tracer=None):
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.out_dir = root / ".bench_out"
        self._children = 0

    def _argv(self, argv, rnd):
        out = list(argv)
        for i, token in enumerate(out[:-1]):
            if token == "--seed":
                out[i + 1] = str(sub_seed(int(out[i + 1]), self.seed, rnd))
        return out

    def _run_plain(self, argv):
        return subprocess.run([sys.executable, "-m", "classm", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)

    def _run_traced(self, argv):
        self.out_dir.mkdir(exist_ok=True)
        out = self.out_dir / f"child-{os.getpid()}-{self._children}.json"
        self._children += 1
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(out), *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        wall = perf_counter() - start
        payload = json.loads(out.read_text())
        out.unlink()
        tracer = self.tracer
        tracer.merge(payload, prefix=f"c{self._children - 1}.")
        tracer.samples["cli.process"].append(wall - payload["totals"].get("cli.main.inclusive_s", 0.0))
        tracer.counts["cli.stdout_bytes"] += len(proc.stdout)
        return proc

    @staticmethod
    def _judge(proc) -> Judgement:
        try:
            json.loads(proc.stdout)
            valid = True
        except ValueError:
            valid = False
        canonical = proc.stdout + b"\0exit=%d" % proc.returncode
        return Judgement(canonical, 1, valid and proc.returncode == 0)

    def round(self, rnd: int) -> list:
        runner = self._run_plain if self.tracer is None else self._run_traced
        verdicts = []
        for index, argv in enumerate(CLI_MATRIX):
            argv = self._argv(argv, rnd)
            verdicts.append(Verdict(f"{index:02d} {argv[0]}", {"argv": argv},
                                    lambda argv=argv: runner(argv), self._judge))
        return verdicts


WORKLOADS = {cls.name: cls for cls in (Checkers, SumsPipeline, CliMatrix)}


def make_workload(name: str, seed: int, root: Path, tracer=None):
    """Build a workload; with a tracer, its operators get a traced ``in_domain``."""
    cls = WORKLOADS[name]
    if cls is CliMatrix:
        return CliMatrix(seed, root, tracer)
    return cls(seed, _same if tracer is None else tracer.wrap_operator)
