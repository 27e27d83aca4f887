"""The three benchmark workloads: sweep, ladder and crosscheck.

A workload is a list of operations.  Each operation belongs to one family
(``lr``, ``kron``, ``pleth``, ``kf``, or ``reduce`` for the weight-reduction
planner path), checks its own output and returns a description of every
failure it saw.  The harness (perfbench/run.py) runs every operation from a
stated cache state (see ``Bench.cold``), one at a time: a closed loop with one
caller.  Library functions are looked up through their modules at call time,
so the tracer's wrappers are used while they are installed.
"""

import contextlib
import gc
import io
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable

from rectsym import cli, coefficients, hall_littlewood, partitions, symmetries

FAMILIES = ("lr", "kron", "pleth", "kf", "reduce")


@dataclass(frozen=True)
class Op:
    family: str
    label: str
    count: int  # instances the operation checks
    run: Callable  # run(bench) -> list of failure descriptions
    collect: bool = True  # run the garbage collector in the cold reset


class Bench:
    """What an operation needs from the harness: the package's lru caches,
    which ``cold`` empties before each operation, and the tracer, if any."""

    def __init__(self, caches, tracer=None):
        self.caches = caches
        self.tracer = tracer

    def cold(self, collect=True):
        if self.tracer is not None:
            self.tracer.harvest(self.caches)
        for cache in self.caches.values():
            cache.cache_clear()
        if collect:
            gc.collect()

    def context(self):
        ctx = symmetries.SweepContext()
        if self.tracer is not None:
            self.tracer.watch(ctx)
        return ctx

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(f"bench.{name}")


# ---------------------------------------------------------------------------
# sweep: every rule at default bounds, then the planners' soundness


# (checked, transformed, vanished, skipped) per rule at SweepBounds()
PINNED_RULES = {
    "lr-box": (6661, 2855, 3806, 0),
    "lr-translate": (4464, 3551, 913, 0),
    "kron-box": (3401, 2499, 902, 0),
    "kron-translate": (8309, 7349, 960, 0),
    "pleth-box-inner": (1442, 1338, 104, 371),
    "pleth-translate-inner": (2994, 2916, 78, 215),
    "pleth-box-outer": (1577, 701, 876, 464),
    "pleth-translate-outer": (2949, 1503, 1446, 345),
    "kf-box": (375, 105, 270, 0),
    "kf-translate": (941, 525, 416, 0),
}

# (instances, strictly reduced or vanishing) for the planner soundness sweeps:
# Kronecker triples of weight <= 7, plethysm triples with |nu| <= 5
PINNED_REDUCTIONS = {"kronecker": (5211, 2781), "plethysm": (195, 112)}


def _kron_triples(max_weight):
    out = []
    for w in range(max_weight + 1):
        ps = partitions.partitions_of(w)
        out.extend((a, b, c) for a in ps for b in ps for c in ps)
    return out


def _pleth_triples(max_weight):
    out = []
    for total in range(1, max_weight + 1):
        for a in range(1, total + 1):
            if total % a:
                continue
            for lam in partitions.partitions_of(a):
                for mu in partitions.partitions_of(total // a):
                    out.extend((lam, mu, nu) for nu in partitions.partitions_of(total))
    return out


class Sweep:
    """Every rule at default bounds, as verify_all runs them (acceptance
    criterion 3), then the Kronecker and plethysm planners checked on every
    small triple (the exhaustive part of criterion 7).  Each rule is one
    operation with a SweepContext of the benchmark's own.  The inputs are
    fixed by the bounds; the seed only orders the operations."""

    name = "sweep"
    min_round_s = 0.5  # the short rules run several times a round

    def __init__(self, seed):
        self.bounds = symmetries.SweepBounds()
        self.ops = [
            Op(symmetries.FAMILY_OF[rule], f"sweep.{rule}", counts[0], self._rule(rule))
            for rule, counts in PINNED_RULES.items()
        ]
        for family, planner, triples in (
            ("kronecker", "reduce_kronecker", _kron_triples(7)),
            ("plethysm", "reduce_plethysm", _pleth_triples(5)),
        ):
            self.ops.append(
                Op("reduce", f"sweep.{planner}", len(triples), _planner_check(family, planner, triples))
            )

    def inputs(self):
        return {
            "bounds": asdict(self.bounds),
            "rules": list(PINNED_RULES),
            "reductions": {
                "kronecker": "all triples of weight <= 7",
                "plethysm": "all triples with |nu| <= 5",
            },
        }

    def _rule(self, rule):
        def run(bench):
            report = symmetries.verify_rule(rule, self.bounds, ctx=bench.context())
            got = report.as_dict(with_timing=False)
            return [] if got == _pinned_report(rule) else [f"{rule}: {got}"]

        return run


def _planner_check(family, planner, triples):
    def run(bench):
        plan = getattr(symmetries, planner)
        ctx = bench.context()
        failures = []
        strict = 0
        for triple in triples:
            report = plan(*triple)
            if not symmetries.check_reduction(report, ctx):
                failures.append(f"{family} reduction changed the value at {triple}")
            if report.vanishes or report.weight_after < report.weight_before:
                strict += 1
        if (len(triples), strict) != PINNED_REDUCTIONS[family]:
            failures.append(f"{family} reductions: {len(triples)} checked, {strict} strict")
        return failures

    return run


def _pinned_report(rule):
    checked, transformed, vanished, skipped = PINNED_RULES[rule]
    return {
        "rule": rule,
        "checked": checked,
        "transformed": transformed,
        "vanished": vanished,
        "skipped": skipped,
        "counterexamples": [],
    }


# ---------------------------------------------------------------------------
# ladder: single instances at rising weight, each computed cold


def _rect(part, rows):
    return (part,) * rows


# (family, indices, pinned value); Kostka-Foulkes values are the coefficient
# tuples of K(t), lowest degree first.  The LR, plethysm and Kostka-Foulkes
# values were checked against the lattice-word, plethysm and charge oracles
# (perfbench/pin.py); the Kronecker values against the planner path.
RUNGS = (
    ("lr", ((3, 2, 1), (3, 2, 1), (4, 3, 2, 1, 1, 1)), 2),
    ("lr", ((3, 2, 1, 1), (3, 2, 1), (4, 3, 2, 2, 1, 1)), 4),
    ("lr", ((4, 3, 2, 1), (4, 3, 2, 1), (6, 5, 4, 3, 2)), 16),
    ("lr", ((6, 4, 2), (5, 3, 1), (8, 6, 4, 2, 1)), 12),
    ("kron", (_rect(3, 6), _rect(3, 6), _rect(3, 6)), 1),
    ("kron", (_rect(3, 8), _rect(3, 8), _rect(3, 8)), 1),
    ("kron", (_rect(4, 7), _rect(4, 7), _rect(4, 7)), 14),
    ("kron", (_rect(6, 5), _rect(10, 3), _rect(5, 6)), 5),
    ("kron", (_rect(4, 8), _rect(4, 8), _rect(4, 8)), 18),
    ("pleth", ((2, 2, 2), (4,), (12, 8, 4)), 21),
    ("pleth", ((2,), (4, 4, 3), (8, 8, 6)), 1),
    ("pleth", ((4,), (7,), (16, 8, 4)), 6),
    ("pleth", ((2,), (5, 5, 4), (10, 10, 8)), 1),
    ("pleth", ((6,), (5,), (18, 8, 4)), 16),
    ("pleth", ((4,), (4, 4), (16, 8, 4, 4)), 2),
    ("kf", ((5, 3, 2), _rect(2, 5)), (0, 0, 0, 0, 0, 1, 2, 4, 5, 6, 5, 4, 2, 1)),
    (
        "kf",
        ((4, 4, 2, 2), _rect(2, 6)),
        (0, 0, 0, 0, 1, 1, 3, 3, 6, 5, 8, 6, 7, 4, 4, 1, 1),
    ),
    (
        "kf",
        ((6, 4, 2), _rect(2, 6)),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 5, 7, 12, 14, 18, 17, 18, 14, 12, 7, 5, 2, 1),
    ),
)

ENGINES = {
    "lr": (coefficients, "lr_coefficient"),
    "kron": (coefficients, "kronecker_coefficient"),
    "pleth": (coefficients, "plethysm_coefficient"),
    "kf": (hall_littlewood, "kostka_foulkes"),
}
PLANNERS = {"kron": "reduce_kronecker", "pleth": "reduce_plethysm"}


def plain_value(value):
    return value if isinstance(value, int) else tuple(value.coeffs)


class Ladder:
    """One user computing one large coefficient: every rung cold through its
    family's engine, and the Kronecker and plethysm rungs again through the
    planner.  The inputs are fixed; the seed only orders the operations."""

    name = "ladder"
    min_round_s = 0.0

    def __init__(self, seed):
        self.ops = []
        for family, indices, pinned in RUNGS:
            module, attr = ENGINES[family]
            engine = _rung(indices, pinned, _engine(module, attr, indices))
            self.ops.append(Op(family, f"ladder.{family}", 1, engine))
            if family in PLANNERS:
                planned = _rung(indices, pinned, _planned(PLANNERS[family], indices))
                self.ops.append(Op("reduce", "ladder.reduce", 1, planned))

    def inputs(self):
        return {"rungs": [[family, indices] for family, indices, _ in RUNGS]}


def _engine(module, attr, indices):
    def compute(bench):
        return getattr(module, attr)(*indices)

    return compute


def _planned(planner, indices):
    def compute(bench):
        report = getattr(symmetries, planner)(*indices)
        return symmetries.reduced_value(report, bench.context())

    return compute


def _rung(indices, pinned, compute):
    def run(bench):
        value = compute(bench)
        return [] if plain_value(value) == pinned else [f"{indices} gave {value}, pinned {pinned}"]

    return run


# ---------------------------------------------------------------------------
# crosscheck: seeded self-checking command-line calls


def _lr_strata(weight):
    # keyed by (lambda, mu, length(nu)): the engine's arity and product
    strata = {}
    for nu in partitions.partitions_of(weight):
        for a in range(1, weight):
            for lam in partitions.partitions_of(a):
                if not partitions.contains(nu, lam):
                    continue
                for mu in partitions.partitions_of(weight - a):
                    if partitions.contains(nu, mu):
                        strata.setdefault((lam, mu, len(nu)), []).append((lam, mu, nu))
    return strata


def _kron_strata(weight, max_alphabets):
    # keyed by (nu, length(lambda), length(mu)): the oracle's table
    strata = {}
    ps = partitions.partitions_of(weight)
    for lam in ps:
        for mu in ps:
            if len(lam) + len(mu) > max_alphabets:
                continue
            for nu in ps:
                strata.setdefault((nu, len(lam), len(mu)), []).append((lam, mu, nu))
    return strata


def _pleth_strata(weight, max_length):
    # keyed by (lambda, mu, length(nu)): the oracle's arity
    strata = {}
    for a in range(1, weight + 1):
        if weight % a:
            continue
        for lam in partitions.partitions_of(a):
            for mu in partitions.partitions_of(weight // a):
                for nu in partitions.partitions_of(weight):
                    if len(mu) <= len(nu) <= max_length:
                        strata.setdefault((lam, mu, len(nu)), []).append((lam, mu, nu))
    return strata


def _kf_strata(weight, max_arity):
    # keyed by (lambda, arity): the engine expands s_lambda at that arity
    strata = {}
    ps = partitions.partitions_of(weight)
    for lam in ps:
        for mu in ps:
            n = max(len(lam), len(mu))
            if n <= max_arity:
                strata.setdefault((lam, n), []).append((lam, mu))
    return strata


def _reduce_kron_strata(weight):
    # keyed by (nu, length(lambda)); the cost is set by the weight
    strata = {}
    ps = partitions.partitions_of(weight)
    for lam in ps:
        for mu in ps:
            for nu in ps:
                strata.setdefault((nu, len(lam)), []).append((lam, mu, nu))
    return strata


# (family, command words, strata).  One instance is drawn from each stratum,
# so every seed does about the same amount of work on different instances.
def _crosscheck_plan():
    return (
        ("lr", ["compute", "lr"], _lr_strata(7)),
        ("kron", ["compute", "kronecker"], _kron_strata(4, 8)),
        ("kron", ["compute", "kronecker"], _kron_strata(5, 6)),
        ("pleth", ["compute", "plethysm"], _pleth_strata(6, 6)),
        ("kf", ["compute", "kostka-foulkes"], _kf_strata(5, 5)),
        ("kf", ["compute", "kostka-foulkes"], _kf_strata(6, 5)),
        ("reduce", ["reduce", "kronecker"], _reduce_kron_strata(7)),
        ("reduce", ["reduce", "plethysm"], _pleth_strata(6, 4)),
    )


def _agrees(output):
    try:
        return json.loads(output).get("agrees") is True
    except (ValueError, AttributeError):
        return False


def _argv(words, indices):
    names = ("--lambda", "--mu", "--nu")
    argv = list(words)
    for name, part in zip(names, indices):
        argv += [name, partitions.format_partition(part)]
    argv += ["--check"] if words[0] == "compute" else ["--execute"]
    return argv + ["--json"]


class Crosscheck:
    """A seeded sample of ``rectsym compute <family> --check --json`` and
    ``rectsym reduce <family> --execute --json`` calls, run in process
    through ``rectsym.cli.main``.  Each call checks itself against an
    independent route and exits 3 on disagreement."""

    name = "crosscheck"
    min_round_s = 0.0

    def __init__(self, seed):
        rng = random.Random(seed)
        self.calls = [
            (family, _argv(words, rng.choice(strata[key])))
            for family, words, strata in _crosscheck_plan()
            for key in sorted(strata, key=repr)
        ]
        # a call takes milliseconds; a full collection before each one would
        # take most of the run
        self.ops = [
            Op(family, f"crosscheck.{family}", 1, _cli_call(argv), collect=False)
            for family, argv in self.calls
        ]

    def inputs(self):
        return {"calls": [" ".join(argv) for _, argv in self.calls]}


def _cli_call(argv):
    def run(bench):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            return [f"{' '.join(argv)} exited {code!r}"]
        if not _agrees(out.getvalue()):
            return [f"{' '.join(argv)} did not report agreement"]
        return []

    return run


WORKLOADS = {w.name: w for w in (Sweep, Ladder, Crosscheck)}
