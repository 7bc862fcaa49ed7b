"""The classm benchmark: one closed-loop client, one verdict in flight.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the same workload untraced and then traced for
half of ``S`` each, and reports the per-layer metrics. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
``--write-golden`` records the digest of a workload's first pass at the
default seed in ``bench/golden.json``. See ``bench/README.md``.

classm is imported from ``src/`` of the checkout this file sits in, and
nowhere else; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# One BLAS/OpenMP thread, so one verdict uses one core, and one OpenBLAS
# kernel family, because small matrix products round differently under
# different kernels and the digest must not depend on which the host picks.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
}


def pin_environment(environ) -> None:
    """Pin thread counts and the BLAS kernel, and drop ELLIPTIC_TOL; call before numpy loads."""
    environ.update(PINNED_ENV)
    environ.pop("ELLIPTIC_TOL", None)


def import_classm():
    """Import classm from this checkout's ``src/``; ImportError if it is not there."""
    src = ROOT / "src"
    if not (src / "classm" / "__init__.py").is_file():
        raise ImportError(f"no classm source tree at {src}")
    sys.path.insert(0, str(src))
    import classm

    if not Path(classm.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"classm was imported from {classm.__file__}, not from {src}")
    return classm


def prepare():
    pin_environment(os.environ)
    return import_classm()


# -- measuring ------------------------------------------------------------

@dataclass
class Measured:
    """Verdict times over repeated passes, and the digest of the first pass.

    A pass runs every verdict of the workload's rounds once. ``times`` holds
    one time per verdict, the fastest over all passes; ``labels``,
    ``hashes``, ``digest`` and ``first_counts`` come from the first pass.
    """

    times: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    hashes: list = field(default_factory=list)
    first_failed: set = field(default_factory=set)
    digest: str = ""
    first_counts: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return len(self.pass_times)


def run_verdict(verdict, tracer=None):
    """Time one verdict; return (seconds, Judgement or None, error text or None)."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = verdict.run()
    except Exception as exc:  # a raising verdict is a failed verdict, not a crashed run
        return time.perf_counter() - start, None, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    try:
        judgement = verdict.judge(result)
    except Exception as exc:
        return elapsed, None, f"could not be judged: {exc!r}"
    if not judgement.ok:
        return elapsed, judgement, "wrong outcome"
    return elapsed, judgement, None


def measure(workload, seconds: float, tracer=None) -> Measured:
    """Run passes over the workload's rounds until ``seconds`` have passed (at least one).

    Each verdict keeps its fastest time over the passes: the host's noise
    only ever adds time, and slow spells last seconds, so repeats spread
    over the run find the fast ones. Every pass must reproduce the first
    pass's outputs bit for bit.
    """
    verdicts = [(f"r{rnd} {v.label}", v) for rnd in range(workload.rounds)
                for v in workload.round(rnd)]
    best = [math.inf] * len(verdicts)
    first = [None] * len(verdicts)
    m = Measured()
    deadline = time.perf_counter() + seconds
    while not m.pass_times or time.perf_counter() < deadline:
        pass_time = 0.0
        for index, (label, verdict) in enumerate(verdicts):
            if tracer is not None:
                tracer.verdict = f"p{m.passes}.{index}"
            elapsed, judgement, error = run_verdict(verdict, tracer)
            best[index] = min(best[index], elapsed)
            pass_time += elapsed
            canonical = judgement.canonical if judgement is not None else None
            if not m.pass_times:
                first[index] = canonical
                m.items += judgement.items if judgement is not None else 0
            elif error is None and canonical != first[index]:
                error = "output differs from the first pass"
            m.attempted += 1
            if error is not None:
                m.failed += 1
                m.failures.append(f"pass {m.passes} {label}: {error}")
                if not m.pass_times:
                    m.first_failed.add(index)
        if not m.pass_times:
            digest = hashlib.sha256()
            for (label, _), canonical in zip(verdicts, first):
                canonical = canonical if canonical is not None else b"failed"
                m.labels.append(label)
                m.hashes.append(hashlib.sha256(canonical).hexdigest())
                digest.update(label.encode() + b"\0" + canonical + b"\0")
            m.digest = digest.hexdigest()
            if tracer is not None:
                m.first_counts = tracer.snapshot()
                tracer.keep_spans = False
        m.pass_times.append(pass_time)
    m.times = best
    return m


def check_golden(workload_name: str, m: Measured) -> str:
    """Compare the first pass with the committed golden; mismatches count as failed."""
    golden = json.loads(GOLDEN.read_text()).get(workload_name) if GOLDEN.is_file() else None
    if golden is None:
        m.failed += m.attempted - m.failed
        m.failures.append(f"no golden digest for {workload_name} in {GOLDEN.name}")
        return "missing"
    expected = [row["sha256"] for row in golden["verdicts"]]
    for index, (label, got) in enumerate(zip(m.labels, m.hashes)):
        want = expected[index] if index < len(expected) else None
        if got != want and index not in m.first_failed:
            m.failed += 1
            m.failures.append(f"{label}: hash differs from the golden")
    return "match" if m.digest == golden["digest"] else "MISMATCH"


def setup_times(workload_name: str, seed: int) -> list:
    """Seconds from starting a fresh runner to having every verdict of a run built, per probe."""
    times = []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - start)
    return times


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# -- reporting ------------------------------------------------------------

def environment_record(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
    except OSError:  # not Linux, or not readable here: keep the machine type
        models = []
    if models:
        cpu = models[0]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "classm").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": _commit(),
            "source_sha256": source.hexdigest(), "seed": seed,
            "blas_core": os.environ.get("OPENBLAS_CORETYPE")}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def report(lines: list, result: dict) -> None:
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))


def end_to_end(args, workloads) -> tuple:
    workload = workloads.make_workload(args.workload, args.seed, ROOT)
    run_verdict(workload.round(0)[0])  # untimed warm-up
    m = measure(workload, args.seconds)
    golden = check_golden(args.workload, m) if args.seed == workloads.DEFAULT_SEED else "not checked"
    rss = peak_rss_mb(with_children=args.workload == "cli_matrix")
    setups = setup_times(args.workload, args.seed)
    samples = f"n={len(m.times)} verdicts, each the fastest of {m.passes} passes"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        "verdict_s.p50": (statistics.median(m.times), "s", samples),
        "verdict_s.p90": (statistics.quantiles(m.times, n=10)[8], "s", samples),
        "items_per_s": (m.items / sum(m.times), "1/s", f"{m.items} items"),
        "peak_rss_mb": (rss, "MB", "runner and CLI children" if args.workload == "cli_matrix"
                        else "runner"),
    }
    lines = [f"{name} = {value!r} {unit} ({note})" for name, (value, unit, note) in metrics.items()]
    lines.append(f"failed_ratio = {m.failed / m.attempted!r} ({m.failed} of {m.attempted} "
                 f"verdict runs in {m.passes} passes)")
    lines.append(f"digest = sha256:{m.digest} (first pass, golden: {golden})")
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    return lines + m.failures[:20], result


def traced(args, workloads) -> tuple:
    import spans

    plain = workloads.make_workload(args.workload, args.seed, ROOT)
    run_verdict(plain.round(0)[0])  # untimed warm-up
    untraced = measure(plain, args.seconds / 2)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        m = measure(workloads.make_workload(args.workload, args.seed, ROOT, tracer),
                    args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    overhead = min(m.pass_times) / min(untraced.pass_times) - 1.0
    golden = check_golden(args.workload, m) if args.seed == workloads.DEFAULT_SEED else "not checked"
    failed = m.failed + untraced.failed
    same = m.digest == untraced.digest
    metrics = spans.layer_metrics(tracer, m.first_counts, m.passes, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with trace_file.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("id", "parent", "name", "start_s", "dur_s", "self_s",
                                          "verdict"), span))) + "\n")
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{m.passes} traced and {untraced.passes} untraced passes; tracing overhead "
                 f"{overhead:.3f} (fastest traced pass over fastest untraced pass, minus 1)")
    lines.append(f"digest traced = sha256:{m.digest}, untraced = sha256:{untraced.digest} "
                 f"({'equal' if same else 'DIFFERENT'}; golden: {golden})")
    lines.append(f"spans of the first pass written to {trace_file.relative_to(ROOT)} "
                 f"({len(tracer.spans)} spans)")
    result = {"correct": failed == 0 and same, "attempted": m.attempted + untraced.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines + (untraced.failures + m.failures)[:20], result


def write_golden(args, workloads) -> None:
    workload = workloads.make_workload(args.workload, workloads.DEFAULT_SEED, ROOT)
    m = measure(workload, 0.0)
    if m.failed:
        raise SystemExit(f"not writing a golden for a failing pass: {m.failures}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[args.workload] = {"digest": m.digest, "verdicts": [
        {"label": label, "sha256": digest} for label, digest in zip(m.labels, m.hashes)]}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{args.workload}: sha256:{m.digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("checkers", "sums_pipeline", "cli_matrix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        prepare()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workload = workloads.make_workload(args.workload, args.seed, ROOT)
        for rnd in range(workload.rounds):
            workload.round(rnd)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if args.write_golden:
        write_golden(args, workloads)
        return 0
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
             f"environment {json.dumps(environment_record(args.seed), sort_keys=True)}"]
    body, result = (traced if args.trace else end_to_end)(args, workloads)
    report(lines + body, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
