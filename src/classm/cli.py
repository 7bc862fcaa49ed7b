"""Command-line front end.

Subcommands: catalog, check-ellipticity, check-class-u, check-class-m,
bounds, counterexample, sums-demo. Reports print as human-readable lines by
default and as canonical JSON (sorted keys, two-space indent, no timestamps)
with --json, so identical seeds give byte-identical output.

Exit codes: 0 when the outcome matches the expectation (--expect defaults to
pass for checks and bounds, fail for counterexamples), 1 when it does not,
2 on usage or input errors: malformed JSON or any ToolkitError subclass prints
one ``error:`` line, a bare ToolkitError (a broken invariant) ``internal error:``.
Numpy's floating-point warnings are silenced: an overflow or invalid value
leaves a non-finite entry, which the matrix and evaluation checks turn into
one error line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    BadArgument,
    BadParams,
    InvalidMatrix,
    NonFiniteValue,
    NotInClassM,
    ToolkitError,
    _array,
)
from .falsify import (
    _COUNTEREXAMPLES,
    Certificate,
    PassReport,
    SampleConfig,
    check_class_m,
    check_class_u,
    check_degenerate_ellipticity,
    counterexample,
)
from .operators import JetPoint, OperatorDescriptor, catalog, operator_from_json, unit_jet
from .symmat import (
    SymmetricMatrix,
    matrix_from_json_obj,
    matrix_to_json_obj,
    parse_matrix_text,
)
from .sums import (
    EQ1_TOL,
    EpsilonSchedule,
    _eq1_margins,
    extract_limit,
    generate_admissible,
    hessian_blocks,
    lemma_upper_bound,
    quadratic_doubling,
    verify_conclusion,
)
from .witnesses import (
    _default_lam,
    auto_witness_pair,
    class_u_constant,
    corollary_bounds,
    theorem_lower_bounds,
)


def _parse_operator(text: str) -> OperatorDescriptor:
    return operator_from_json(json.loads(text))


def _parse_matrix(text: str) -> SymmetricMatrix:
    """Inline JSON, or @path to a file in the text or JSON matrix format."""
    if text.startswith("@"):
        try:
            content = Path(text[1:]).read_text()
        except (OSError, ValueError) as exc:
            raise InvalidMatrix(f"cannot read matrix file {text[1:]!r}: {exc}") from exc
        if content.lstrip().startswith("{"):
            return matrix_from_json_obj(json.loads(content))
        return parse_matrix_text(content)
    return matrix_from_json_obj(json.loads(text))


def _default_jets(dim: int, nu_text: str | None):
    nu = _array("nu", json.loads(nu_text), 1) if nu_text else unit_jet(dim).nu
    if nu.shape != (dim,):
        raise BadParams(f"nu must have length {dim}")
    omega = JetPoint(np.zeros(dim), 0.0, nu)
    return omega, omega


def _emit(obj: dict, args) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # strict JSON has no Infinity or NaN
        raise NonFiniteValue(f"the report is not strict JSON: {exc}") from exc
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise BadArgument(f"cannot write --output file: {exc}") from exc
    if args.json:
        print(text)
    else:
        _emit_human(obj)


def _emit_human(obj: dict) -> None:
    kind = obj.get("type")
    if kind == "pass_report":
        print(f"PASS  {obj['kind']}  trials={obj['trials']} probes={obj['probes']} "
              f"{obj.get('details', {})}")
    elif kind == "certificate":
        print(f"VIOLATION  {obj['kind']}  margin={obj['margin']:.6g}")
        print(f"  {obj['description']}")
        print(f"  values: {obj['inequality_values']}")
    elif kind == "bound_report":
        print(f"BOUNDS  lower_X={obj['lower_X']:.10g}  lower_negY={obj['lower_negY']:.10g}  "
              f"upper_block_ok={obj['upper_block_ok']}  witness={obj['witness']}")
    elif kind == "catalog":
        for row in obj["families"]:
            print(f"{row['family']:<20} domain: {row['domain']:<40} fields: {row['fields']}")
    elif kind == "sums_trace":
        print(f"SUMS  op={obj['operator']}  alpha={obj['alpha']} dim={obj['dim']} "
              f"terms={len(obj['pairs'])}")
        rep = obj["report"]
        print(f"  lower_X={rep['lower_X']:.10g} lower_negY={rep['lower_negY']:.10g} "
              f"upper_block_ok={rep['upper_block_ok']} "
              f"implications_ok={rep['details']['implications_ok']}")


def _finish(result, args, ok: bool = True) -> int:
    """Print a PassReport, Certificate, BoundReport or report dict and exit 0 iff its outcome
    matches --expect. A certificate is a violation, printed only after its reverify(); a
    dict's outcome is ``ok``."""
    if isinstance(result, Certificate):
        result.reverify()
        ok = False
    _emit(result if isinstance(result, dict) else result.to_json_obj(), args)
    return 0 if ok == (args.expect == "pass") else 1


def _add_common(sub, default_expect: str = "pass"):
    sub.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub.add_argument("--output", help="also write the JSON report to this path")
    sub.add_argument("--expect", choices=("pass", "fail"), default=default_expect,
                     help=f"exit 0 when the outcome matches (default: {default_expect})")


def _add_sampling(sub):
    sub.add_argument("--dim", type=int, required=True, help="matrix dimension N")
    sub.add_argument("--trials", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", type=float, default=1.0)


# counterexample flag -> (the construction parameter it sets, its type)
_CERT_FLAGS = {"--dim": ("dim", int), "--k": ("k", int), "--n": ("n", int), "--c": ("c", float),
               "--p": ("p", float), "--lam": ("lam", float), "--hconst": ("h_const", float),
               "--d-root": ("d", int)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classm",
        description="Degenerate elliptic operator toolkit: membership checks, "
                    "counterexamples, bounds, and the two-sided block inequality pipeline.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("catalog", help="list operator families and their JSON fields")
    s.set_defaults(run=_cmd_catalog, expect="pass")
    s.add_argument("--json", action="store_true")
    s.add_argument("--output", help="also write the JSON report to this path")

    s = subs.add_parser("check-ellipticity", help="sample X <= Y and test F(X) >= F(Y)")
    s.set_defaults(run=_cmd_check_ellipticity)
    s.add_argument("--op", required=True, help="operator spec JSON")
    _add_sampling(s)
    _add_common(s)

    s = subs.add_parser("check-class-u", help="sample the uniform-ellipticity gap")
    s.set_defaults(run=_cmd_check_class_u)
    s.add_argument("--op", required=True)
    s.add_argument("--lam", type=float, default=1.0, help="gap slope lambda > 0")
    s.add_argument("--hconst", type=float, default=0.0, help="constant H(omega)")
    _add_sampling(s)
    _add_common(s)

    s = subs.add_parser("check-class-m",
                        help="check witness conditions 1-4 with the canonical witness pair")
    s.set_defaults(run=_cmd_check_class_m)
    s.add_argument("--op", required=True)
    s.add_argument("--lam", type=float, default=None,
                   help="embed a (lam, hconst) Class U witness instead of the family default")
    s.add_argument("--hconst", type=float, default=0.0,
                   help="constant H(omega) of the embedded witness (with --lam)")
    s.add_argument("--nu", default=None, help="gradient slot as a JSON list (default e1)")
    _add_sampling(s)
    _add_common(s)

    s = subs.add_parser("bounds", help="lower bounds from witness or Class U route")
    s.set_defaults(run=_cmd_bounds)
    s.add_argument("--op", required=True)
    s.add_argument("--E", required=True, help="matrix JSON or @path (text/JSON formats)")
    s.add_argument("--D", required=True, help="matrix JSON or @path")
    s.add_argument("--route", choices=("theorem", "corollary"), default="theorem")
    s.add_argument("--lam", type=float, default=None)
    s.add_argument("--hconst", type=float, default=0.0)
    s.add_argument("--nu", default=None, help="gradient slot as a JSON list (default e1)")
    _add_common(s)

    s = subs.add_parser("counterexample", help="reproduce a named construction",
                        description="--d-root D_ROOT is the odd root exponent d of power_not_u")
    s.set_defaults(run=_cmd_counterexample)
    s.add_argument("--name", required=True, choices=_COUNTEREXAMPLES)
    for flag, (dest, kind) in _CERT_FLAGS.items():
        s.add_argument(flag, type=kind, dest=dest, metavar=flag[2:].upper().replace("-", "_"))
    _add_common(s, default_expect="fail")

    s = subs.add_parser("sums-demo",
                        help="run the full pipeline on the quadratic doubling family")
    s.set_defaults(run=_cmd_sums_demo)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--op", required=True)
    s.add_argument("--eps0", type=float, default=1.0)
    s.add_argument("--terms", type=int, default=40)
    s.add_argument("--ratio", type=float, default=0.5)
    s.add_argument("--slack", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--lam", type=float, default=None)
    s.add_argument("--hconst", type=float, default=0.0)
    _add_common(s)
    return parser


def _fallback_certificate(op: OperatorDescriptor, dim: int) -> Certificate:
    """Divergence certificate for families with no witness pair."""
    fam = op.family
    if fam in ("inf_laplace", "inf_laplace_homog"):
        return counterexample("inf_laplace", dim=dim)
    if fam in ("p_laplace", "p_laplace_homog"):
        return counterexample("p1_laplace", dim=dim)
    if fam == "k_hessian":
        return counterexample("k_hessian", dim=dim, k=min(op.params["k"], dim))
    if fam == "eig_sum":
        return counterexample("bounded_h", dim=dim, h=op.params["h"])
    raise NotInClassM(f"no witness pair and no divergence construction for {op.name}")


def _finish_check(args, check, *operands) -> int:
    """Run a seeded checker on the sampling arguments and report its outcome."""
    cfg = SampleConfig(seed=args.seed, trials=args.trials, scale=args.scale, dim=args.dim)
    return _finish(check(*operands, cfg), args)


def _cmd_catalog(args) -> int:
    return _finish({"type": "catalog", "families": catalog()}, args)


def _cmd_check_ellipticity(args) -> int:
    return _finish_check(args, check_degenerate_ellipticity, _parse_operator(args.op))


def _cmd_check_class_u(args) -> int:
    op = _parse_operator(args.op)
    return _finish_check(args, check_class_u, op, class_u_constant(args.lam, args.hconst))


def _cmd_check_class_m(args) -> int:
    op = _parse_operator(args.op)
    omega_x, omega_y = _default_jets(args.dim, args.nu)
    try:
        g1, g2 = auto_witness_pair(op, omega_x, omega_y, lam=args.lam, h_const=args.hconst)
    except NotInClassM:
        return _finish(_fallback_certificate(op, args.dim), args)
    return _finish_check(args, check_class_m, op, g1, g2)


def _cmd_bounds(args) -> int:
    op = _parse_operator(args.op)
    e = _parse_matrix(args.E)
    d = _parse_matrix(args.D)
    omega_x, omega_y = _default_jets(e.dim, args.nu)
    if args.route == "corollary":
        lam = _default_lam(op) if args.lam is None else args.lam
        if lam is None:
            raise BadParams(f"--route corollary needs --lam for {op.name}")
        report = corollary_bounds(op, class_u_constant(lam, args.hconst),
                                  omega_x, omega_y, e, d)
    else:
        g1, g2 = auto_witness_pair(op, omega_x, omega_y, lam=args.lam, h_const=args.hconst)
        report = theorem_lower_bounds(g1, g2, e, d)
    return _finish(report, args)


def _cmd_counterexample(args) -> int:
    params = inspect.signature(_COUNTEREXAMPLES[args.name]).parameters
    given = {dest: getattr(args, dest) for dest, _ in _CERT_FLAGS.values()}
    for flag, (dest, _) in _CERT_FLAGS.items():
        if given[dest] is not None and dest not in params:
            raise BadArgument(f"{flag} does not apply to counterexample {args.name}")
    cert = counterexample(args.name, **{k: v for k, v in given.items() if v is not None})
    return _finish(cert, args)


def _cmd_sums_demo(args) -> int:
    op = _parse_operator(args.op)
    tf = quadratic_doubling(args.alpha, args.dim)
    omega_x = JetPoint(tf.x_hat, 0.0, tf.p)
    omega_y = JetPoint(tf.y_hat, 0.0, tf.q)
    g1, g2 = auto_witness_pair(op, omega_x, omega_y, lam=args.lam, h_const=args.hconst)
    blocks = hessian_blocks(tf)
    sched = EpsilonSchedule.geometric(args.eps0, args.ratio, args.terms)
    family = generate_admissible(blocks, sched, slack=args.slack)
    rows = []
    for eps, (x, y) in zip(sched.values, family.pairs):
        lower, upper = _eq1_margins(blocks, eps, x, y)
        rows.append({"eps": eps, "eq1_ok": min(lower, upper) >= -EQ1_TOL,
                     "lower_margin": lower, "upper_margin": upper})

    lemma = lemma_upper_bound(blocks, args.eps0, family)
    limits = extract_limit(family)
    report = verify_conclusion(op, (g1, g2), tf, family, limits)
    ok = (isinstance(lemma, PassReport) and report.upper_block_ok
          and report.details["implications_ok"] and all(r["eq1_ok"] for r in rows)
          and report.details["limit_lower_X_ok"] and report.details["limit_lower_negY_ok"])
    trace = {
        "type": "sums_trace",
        "operator": op.name,
        "witness": report.witness,
        "alpha": args.alpha,
        "dim": args.dim,
        "slack": args.slack,
        "seed": args.seed,
        "schedule": sched.to_json_obj(),
        "pairs": rows,
        "limits": {"X": matrix_to_json_obj(limits[0]), "Y": matrix_to_json_obj(limits[1])},
        "uniform_upper_bound": lemma.to_json_obj(),
        "report": report.to_json_obj(),
    }
    return _finish(trace, args, ok)


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "dim", None) is not None and not 1 <= args.dim <= 16:
        raise BadArgument(f"--dim must be in 1..16, got {args.dim}")
    if getattr(args, "terms", 0) > 10_000:
        raise BadArgument(f"--terms must be <= 10000, got {args.terms}")
    return args.run(args)


def main(argv=None) -> int:
    try:
        with np.errstate(all="ignore"):
            return run(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ToolkitError, json.JSONDecodeError) as exc:
        blame = "internal error" if type(exc) is ToolkitError else "error"
        print(f"{blame}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
