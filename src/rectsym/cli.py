"""Command-line front end.

Four working subcommands plus a rule applicator:

  compute   one coefficient (lr, kronecker, plethysm, kostka-foulkes)
  verify    exhaustive symmetry sweeps, per rule or all ten
  reduce    weight-reduction plan for a kronecker/plethysm instance
  bench     naive versus reduce-then-compute wall time
  apply     a single symmetry rule applied to explicit indices

Partitions are comma-separated part lists; the empty partition is written 0.
Exit codes: 0 success, 1 a verification sweep found a counterexample,
2 malformed input, 3 internal disagreement (oracle check or reduction
value mismatch), 4 a worker process of verify --jobs N died.
"""

import argparse
import json
import sys
from dataclasses import asdict

from .coefficients import kronecker_oracle, lr_coefficient_oracle, plethysm_oracle
from .hall_littlewood import kostka_foulkes_oracle
from .partitions import format_partition, parse_partition
from .symmetries import (
    ARITY,
    BOX_PARAMS,
    FAMILY_KEY,
    FAMILY_OF,
    PLANNERS,
    RULE_NAMES,
    SweepBounds,
    SweepContext,
    SweepWorkerDied,
    apply_rule,
    bench_reduction,
    coefficient_of,
    reduce_indices,
    reduced_value,
    verify_rule,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_WORKER_DIED = 4


def _emit(payload, as_json, text):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _parse_box_list(text):
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad box list: {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise ValueError(f"bad box list: {text!r}")
    return values


def _read_indices(args, name, family):
    """The index tuple from --lambda, --mu and --nu, as many as ARITY gives
    family (a coefficient_of key); name heads the ValueError."""
    indices = (parse_partition(args.lam), parse_partition(args.mu))
    if ARITY[family] == 2:
        if args.nu is not None:
            raise ValueError(f"{name} takes --lambda and --mu only")
        return indices
    if args.nu is None:
        raise ValueError(f"{name} needs --nu")
    return indices + (parse_partition(args.nu),)


# ---------------------------------------------------------------------------
# compute


def _compute_value(family, indices, method):
    if method == "main":
        return coefficient_of(FAMILY_KEY[family], indices)
    if family == "lr":
        return lr_coefficient_oracle(*indices)
    if family == "kronecker":
        lam, mu, _ = indices
        return kronecker_oracle(*indices, max(1, len(lam)), max(1, len(mu)))
    if family == "plethysm":
        return plethysm_oracle(*indices)
    return kostka_foulkes_oracle(*indices)


def cmd_compute(args):
    indices = _read_indices(args, f"compute {args.family}", FAMILY_KEY[args.family])
    value = _compute_value(args.family, indices, args.method)
    payload = {
        "command": "compute",
        "family": args.family,
        "lambda": list(indices[0]),
        "mu": list(indices[1]),
        "method": args.method,
        "value": value if isinstance(value, int) else str(value),
    }
    if len(indices) == 3:
        payload["nu"] = list(indices[2])
    if args.check:
        other_method = "oracle" if args.method == "main" else "main"
        other = _compute_value(args.family, indices, other_method)
        payload["check_method"] = other_method
        payload["check_value"] = other if isinstance(other, int) else str(other)
        payload["agrees"] = value == other
        if value != other:
            _emit(
                payload,
                args.json,
                f"mismatch: {args.method} gives {value}, {other_method} gives {other}",
            )
            return EXIT_MISMATCH
    _emit(payload, args.json, str(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    if args.rule == "all":
        rules = RULE_NAMES
    elif args.rule in RULE_NAMES:
        rules = (args.rule,)
    else:
        raise ValueError(
            f"unknown rule {args.rule!r}; choose one of {', '.join(RULE_NAMES)} or all"
        )
    max_box = max(_parse_box_list(args.boxes)) if args.boxes else SweepBounds.max_box
    bounds = SweepBounds(
        max_weight=args.max_weight,
        max_box=max_box,
        max_k=args.max_k,
        max_image_weight=args.max_image_weight,
    )
    if args.jobs < 1:
        # rejected before the header: a refused run prints nothing
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    # the text report streams: the header, then each rule's line as soon as
    # that rule finishes, so a run cut short still shows its finished rules
    if not args.json:
        header = f"{'rule':24s} {'checked':>8s} {'transformed':>12s} {'vanished':>9s} {'skipped':>8s} {'elapsed':>9s}"
        print(header, flush=True)
    reports = []
    for rule in rules:
        r = verify_rule(rule, bounds, jobs=args.jobs)
        reports.append(r)
        if not args.json:
            print(
                f"{r.rule:24s} {r.checked:8d} {r.transformed:12d} {r.vanished:9d}"
                f" {r.skipped:8d} {r.elapsed_s:8.2f}s",
                flush=True,
            )
    ok = all(r.ok for r in reports)
    payload = {
        "command": "verify",
        "bounds": asdict(bounds),
        "rules": [r.as_dict() for r in reports],
        "ok": ok,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        total = sum(r.checked for r in reports)
        bad = sum(len(r.counterexamples) for r in reports)
        for r in reports:
            for ce in r.counterexamples:
                print(f"COUNTEREXAMPLE {json.dumps(ce)}")
        print(f"{'ok' if ok else 'FAILED'}: {total} instances, {bad} counterexamples")
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# reduce


def _format_indices(indices):
    return " / ".join(format_partition(p) for p in indices)


def _render_report(report):
    lines = [
        f"family: {report.family}",
        f"original: {_format_indices(report.original)} (weight {report.weight_before})",
        "candidates:",
    ]
    for cand in report.candidates:
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in cand.items()))
    if not report.chain:
        lines.append("chain: identity (no profitable reduction)")
    else:
        lines.append("chain:")
        for step in report.chain:
            lines.append("  " + ", ".join(f"{k}={v}" for k, v in step.items()))
    if report.vanishes:
        lines.append("reduced: coefficient is 0")
    else:
        lines.append(
            f"reduced: {_format_indices(report.reduced)} (weight {report.weight_after})"
        )
    return "\n".join(lines)


def cmd_reduce(args):
    indices = _read_indices(args, f"reduce {args.family}", FAMILY_KEY[args.family])
    report = reduce_indices(args.family, indices)
    payload = {"command": "reduce", **report.as_dict()}
    text = _render_report(report)
    if args.execute:
        ctx = SweepContext()
        original_value = coefficient_of(FAMILY_KEY[args.family], report.original, ctx)
        final_value = reduced_value(report, ctx)
        payload["original_value"] = original_value
        payload["reduced_value"] = final_value
        payload["agrees"] = original_value == final_value
        text += f"\noriginal value: {original_value}\nreduced value: {final_value}"
        if original_value != final_value:
            _emit(payload, args.json, text + "\nMISMATCH")
            return EXIT_MISMATCH
    _emit(payload, args.json, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args):
    indices = _read_indices(args, f"bench {args.family}", FAMILY_KEY[args.family])
    try:
        result = bench_reduction(args.family, indices, repeats=args.repeats)
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    payload = {"command": "bench", **result}
    text = "\n".join(
        [
            f"family: {result['family']}",
            f"indices: {_format_indices(indices)}",
            f"value: {result['value']}",
            f"weight: {result['weight_before']} -> {result['weight_after']}",
            f"naive median: {result['naive_s']} s",
            f"reduced median: {result['reduced_s']} s",
        ]
    )
    _emit(payload, args.json, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# apply


def cmd_apply(args):
    if args.rule not in RULE_NAMES:
        raise ValueError(
            f"unknown rule {args.rule!r}; choose one of {', '.join(RULE_NAMES)}"
        )
    indices = _read_indices(args, args.rule, FAMILY_OF[args.rule])
    params = {"l": args.l, "m": args.m, "n": args.n, "k": args.k}
    if args.box:
        names = BOX_PARAMS.get(args.rule)
        if names is None:
            raise ValueError(f"{args.rule} is a translation rule; --box is for box rules")
        if any(value is not None for value in params.values()):
            raise ValueError("give either --box or individual --l/--m/--n/--k, not both")
        box = _parse_box_list(args.box)
        if len(box) != len(names):
            raise ValueError(
                f"--box for {args.rule} needs {len(names)} values"
                f" {','.join(names)}, got {args.box!r}"
            )
        params.update(zip(names, box))
    outcome = apply_rule(args.rule, indices, **params)
    payload = {
        "command": "apply",
        "rule": args.rule,
        "indices": [list(p) for p in indices],
        "params": {k: v for k, v in outcome.params},
        "verdict": "vanishes" if outcome.vanishes else "transformed",
        "image": None
        if outcome.vanishes
        else [list(p) for p in outcome.transformed],
    }
    if outcome.vanishes:
        _emit(payload, args.json, "vanishes: coefficient is 0")
    else:
        _emit(payload, args.json, _format_indices(outcome.transformed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _box_help():
    """apply --box's help: each parameter order once, with its box rules."""
    orders = {}
    for rule, names in BOX_PARAMS.items():
        orders.setdefault(",".join(names), []).append(rule)
    listed = ", ".join(f"{dims} ({', '.join(rules)})" for dims, rules in orders.items())
    return f"a box rule's dimensions in order: {listed}"


_BOX_HELP = _box_help()


def _add_partition_flags(parser):
    parser.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    parser.add_argument("--mu", required=True, metavar="PARTS")
    parser.add_argument("--nu", default=None, metavar="PARTS")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rectsym",
        description="Exact Littlewood-Richardson, Kronecker, plethysm and "
        "Kostka-Foulkes computations with rectangle symmetry verification "
        "and weight reduction.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", help="one coefficient")
    p.add_argument("family", choices=tuple(FAMILY_KEY))
    _add_partition_flags(p)
    p.add_argument("--method", choices=("main", "oracle"), default="main")
    p.add_argument("--check", action="store_true", help="run both methods, compare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="exhaustive symmetry sweeps")
    p.add_argument("rule", help="one of the ten rule names, or all")
    p.add_argument("--max-weight", type=int, default=SweepBounds.max_weight)
    p.add_argument(
        "--boxes",
        "--box",
        dest="boxes",
        metavar="L,M,N",
        help="bound on every box dimension (the max of the list)",
    )
    p.add_argument("--max-k", "--k", dest="max_k", type=int, default=SweepBounds.max_k)
    p.add_argument(
        "--max-image-weight", type=int, default=SweepBounds.max_image_weight
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (>= 1, capped at CPU count)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="weight-reduction plan")
    p.add_argument("family", choices=tuple(PLANNERS))
    _add_partition_flags(p)
    p.add_argument(
        "--execute", action="store_true", help="compute both ends, assert equality"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("bench", help="naive vs reduce-then-compute timing")
    p.add_argument("family", choices=tuple(PLANNERS))
    _add_partition_flags(p)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("apply", help="one symmetry rule on explicit indices")
    p.add_argument("rule")
    _add_partition_flags(p)
    p.add_argument("--box", metavar="DIMS", help=_BOX_HELP)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_apply)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SweepWorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED


if __name__ == "__main__":
    sys.exit(main())
