"""In-memory span tracer for the benchmark's traced runs.

The wrappers are installed from the benchmark's own files around the entry
points of each classm module; nothing inside ``src/classm`` is changed.
Class attributes are wrapped in place (``SymmetricMatrix.__init__``,
``OperatorDescriptor.evaluate``, ...), and a function is replaced under
every name it is bound to in the package, so ``classm.sums.loewner_leq``
and ``classm.cli.check_class_m`` are traced as well as the originals.
``in_domain`` is a dataclass field, so operators are wrapped one by one
with ``dataclasses.replace`` (see :meth:`Tracer.wrap_operator`).

A span is ``(id, parent, name, start, duration, self time, verdict)``.
Self time is the duration minus the part covered by child spans; it is
computed as spans close, so aggregates cost O(1) memory per name. Full
span records are kept only while ``keep_spans`` is set and are written out
by the runner at the end of the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Families whose ``evaluate`` cost is reported one by one.
FAMILIES = ("linear_uniform", "p_laplace", "p_laplace_homog", "inf_laplace",
            "inf_laplace_homog", "k_hessian", "eig_sum", "sqrt_gradient")
SOLVE_DIMS = (2, 3, 4, 8, 16)
SUMS_FUNCTIONS = ("generate_admissible", "verify_eq1", "lemma_upper_bound",
                  "extract_limit", "verify_conclusion")
CHECKERS = ("check_degenerate_ellipticity", "check_class_u", "check_class_m")
_MODULES = ("classm", "classm.symmat", "classm.operators", "classm.witnesses",
            "classm.falsify", "classm.sums", "classm.cli")
_TRIAL_PHASE = 1  # stream tag classm.falsify gives its random trials


class Tracer:
    """Spans, per-name call counts and self times, and layer counters.

    Wrappers do nothing but call through while ``active`` is false, so
    input generation and outcome checks outside a verdict are not traced.
    """

    def __init__(self):
        self.active = False
        self.keep_spans = True
        self.verdict = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.totals = defaultdict(float)
        self.samples = defaultdict(list)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.phase = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks see (tracer, args[, state, result, dur])."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(tracer, args) if before is not None else None
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else None
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, name, frame[0], dur,
                                         dur - frame[1], tracer.verdict))
            if after is not None:
                after(tracer, state, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fn, hook):
        """Return ``fn`` wrapped in a counter only: no span, ``hook(tracer, args)`` first."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                hook(tracer, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, modules, fn, make_wrapper):
        """Replace ``fn`` under every name bound to it in ``modules`` by one wrapper."""
        wrapper = make_wrapper(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_operator(self, op):
        """The same operator with its ``in_domain`` predicate traced."""
        return dataclasses.replace(
            op, in_domain=self.wrap(op.in_domain, "operators.in_domain", after=_after_in_domain))

    # -- aggregates -------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic counts so far (calls and counters), for exact comparison."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}

    def payload(self) -> dict:
        """Everything a traced child process hands back to the runner."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "totals": dict(self.totals),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "spans": self.spans}

    def merge(self, payload: dict, prefix: str):
        """Add a child's payload; its span ids get ``prefix`` to stay unique."""
        self.calls.update(payload["calls"])
        self.counts.update(payload["counts"])
        for key, value in payload["self_s"].items():
            self.self_s[key] += value
        for key, value in payload["totals"].items():
            self.totals[key] += value
        for key, values in payload["samples"].items():
            self.samples[key].extend(values)
        if self.keep_spans:
            for span_id, parent, name, start, dur, self_dur, _ in payload["spans"]:
                self.spans.append((f"{prefix}{span_id}",
                                   None if parent is None else f"{prefix}{parent}",
                                   name, start, dur, self_dur, self.verdict))


# -- hooks ----------------------------------------------------------------

def _before_eigenvalues(tracer, args):
    matrix = args[0]
    return getattr(matrix, "_evals", None) is None and getattr(matrix, "_spectrum", None) is None


def _after_eigenvalues(tracer, solved, args, result, dur):
    if solved:
        tracer.counts["symmat.solves"] += 1
        tracer.samples[f"solve.n{args[0].dim}"].append(dur)


def _after_evaluate(tracer, state, args, result, dur):
    tracer.samples[f"evaluate.{args[0].family}"].append(dur)


def _after_in_domain(tracer, state, args, result, dur):
    if result:
        tracer.counts["operators.in_domain.accepts"] += 1


def _before_check(tracer, args):
    return args[0].family, tracer.counts["symmat.solves"], tracer.counts["falsify.attempts"]


def _after_check(tracer, state, args, result, dur):
    family, solves0, attempts0 = state
    trials = getattr(result, "trials", 0)
    probes = getattr(result, "probes", 0)
    solves = tracer.counts["symmat.solves"] - solves0
    attempts = tracer.counts["falsify.attempts"] - attempts0
    for scope in ("falsify", f"falsify.{family}"):
        tracer.counts[f"{scope}.trials"] += trials
        tracer.counts[f"{scope}.probes"] += probes
        tracer.counts[f"{scope}.solves"] += solves
    tracer.counts[f"falsify.{family}.attempts"] += attempts
    tracer.totals["falsify.inclusive_s"] += dur


def _count_rng(tracer, args):
    tracer.phase = args[1]


def _count_draw(tracer, args):
    if tracer.phase == _TRIAL_PHASE:
        tracer.counts["falsify.attempts"] += 1


def _after_generate(tracer, state, args, result, dur):
    tracer.counts["sums.pairs"] += len(result.pairs)


def _after_cli_main(tracer, state, args, result, dur):
    tracer.totals["cli.main.inclusive_s"] += dur


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every classm module; undo with ``tracer.uninstall()``."""
    modules = [importlib.import_module(name) for name in _MODULES]
    symmat, operators, witnesses, falsify, sums, cli = modules[1:]
    sm = symmat.SymmetricMatrix
    tracer.patch(sm, "__init__", tracer.wrap(sm.__init__, "symmat.construct"))
    tracer.patch(sm, "eigenvalues", tracer.wrap(sm.eigenvalues, "symmat.eigenvalues",
                                                _before_eigenvalues, _after_eigenvalues))
    tracer.patch_everywhere(modules, symmat.loewner_leq,
                            lambda fn: tracer.wrap(fn, "symmat.loewner"))
    od = operators.OperatorDescriptor
    tracer.patch(od, "evaluate", tracer.wrap(od.evaluate, "operators.evaluate",
                                             after=_after_evaluate))
    tracer.patch_everywhere(modules, operators.operator_from_json,
                            lambda fn: lambda spec: tracer.wrap_operator(fn(spec)))
    cmw = witnesses.ClassMWitness
    tracer.patch(cmw, "evaluate", tracer.wrap(cmw.evaluate, "witnesses.evaluate"))
    tracer.patch(cmw, "inv_at_zero", tracer.wrap(cmw.inv_at_zero, "witnesses.inv_at_zero"))
    for name in CHECKERS:
        tracer.patch_everywhere(modules, getattr(falsify, name),
                                lambda fn: tracer.wrap(fn, "falsify.check",
                                                       _before_check, _after_check))
    # Sampling helpers are private; if a later version renames them the
    # attempt counters read 0 instead of the run failing.
    if hasattr(falsify, "_rng"):
        tracer.patch(falsify, "_rng", tracer.count(falsify._rng, _count_rng))
    if hasattr(falsify, "_sym_draw"):
        tracer.patch(falsify, "_sym_draw", tracer.count(falsify._sym_draw, _count_draw))
    for name in SUMS_FUNCTIONS:
        after = _after_generate if name == "generate_admissible" else None
        tracer.patch_everywhere(modules, getattr(sums, name),
                                lambda fn, name=name, after=after:
                                    tracer.wrap(fn, f"sums.{name}", after=after))
    tracer.patch(cli, "main", tracer.wrap(cli.main, "cli.main", after=_after_cli_main))


# -- per-layer metrics ----------------------------------------------------

def _median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, first: dict, passes: int, overhead: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Counts and ratios of counts come from ``first``, the snapshot taken
    after the first traced pass, so they repeat exactly for a seed. Self
    times are seconds per pass, averaged over the ``passes`` traced passes;
    ``*_us`` values are medians over every traced call.
    """
    calls, counts = first["calls"], first["counts"]
    per_pass = lambda name: tracer.self_s.get(name, 0.0) / passes
    m = {}
    m["symmat.eigenvalues.calls"] = (calls.get("symmat.eigenvalues", 0), "count")
    m["symmat.eigenvalues.solves"] = (counts.get("symmat.solves", 0), "count")
    m["symmat.eigenvalues.self_s"] = (per_pass("symmat.eigenvalues"), "s")
    for n in SOLVE_DIMS:
        m[f"symmat.solve_us.n{n}"] = (_median_us(tracer.samples.get(f"solve.n{n}")), "us")
    for layer in ("construct", "loewner"):
        m[f"symmat.{layer}.calls"] = (calls.get(f"symmat.{layer}", 0), "count")
        m[f"symmat.{layer}.self_s"] = (per_pass(f"symmat.{layer}"), "s")
    m["operators.evaluate.calls"] = (calls.get("operators.evaluate", 0), "count")
    m["operators.evaluate.self_s"] = (per_pass("operators.evaluate"), "s")
    for family in FAMILIES:
        m[f"operators.evaluate_us.{family}"] = (
            _median_us(tracer.samples.get(f"evaluate.{family}")), "us")
    in_domain = calls.get("operators.in_domain", 0)
    m["operators.in_domain.calls"] = (in_domain, "count")
    m["operators.in_domain.accept_ratio"] = (
        _ratio(counts.get("operators.in_domain.accepts", 0), in_domain), "ratio")
    trials, probes = counts.get("falsify.trials", 0), counts.get("falsify.probes", 0)
    m["falsify.trials"] = (trials, "count")
    m["falsify.probes"] = (probes, "count")
    m["falsify.self_s"] = (per_pass("falsify.check"), "s")
    all_items = tracer.counts["falsify.trials"] + tracer.counts["falsify.probes"]
    m["falsify.trial_us"] = (_ratio(tracer.totals["falsify.inclusive_s"], all_items) * 1e6, "us")
    m["falsify.solves_per_trial"] = (_ratio(counts.get("falsify.solves", 0), trials + probes),
                                     "ratio")
    m["falsify.attempts_per_trial"] = (_ratio(counts.get("falsify.attempts", 0), trials), "ratio")
    kh_trials = counts.get("falsify.k_hessian.trials", 0)
    kh_items = kh_trials + counts.get("falsify.k_hessian.probes", 0)
    m["falsify.solves_per_trial.k_hessian"] = (
        _ratio(counts.get("falsify.k_hessian.solves", 0), kh_items), "ratio")
    m["falsify.attempts_per_trial.k_hessian"] = (
        _ratio(counts.get("falsify.k_hessian.attempts", 0), kh_trials), "ratio")
    for layer in ("evaluate", "inv_at_zero"):
        m[f"witnesses.{layer}.calls"] = (calls.get(f"witnesses.{layer}", 0), "count")
        m[f"witnesses.{layer}.self_s"] = (per_pass(f"witnesses.{layer}"), "s")
    for name in SUMS_FUNCTIONS:
        m[f"sums.{name}.self_s"] = (per_pass(f"sums.{name}"), "s")
    m["sums.pairs"] = (counts.get("sums.pairs", 0), "count")
    process = tracer.samples.get("cli.process")
    m["cli.process_s"] = (statistics.median(process) if process else 0.0, "s")
    m["cli.main.self_s"] = (per_pass("cli.main"), "s")
    m["cli.stdout_bytes"] = (counts.get("cli.stdout_bytes", 0), "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m
