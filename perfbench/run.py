"""rectsym benchmark.

Run from the root of a rectsym checkout:

    python3 perfbench/run.py --workload {sweep,ladder,crosscheck} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2 and prints no result.

With ``--trace 0`` the operations run in rounds, each operation from
cleared caches and each round in a fresh order drawn from the seed, until
``--seconds`` are used (at least one full round).  Set-up is timed as the
wall time of a fresh interpreter that imports the package and builds the
inputs, a few times before the first round and once after each round.
Every sample is scaled to the reference speed (perfbench/speed.py).  The
last line of standard output is a JSON object with the end-to-end metrics:
the set-up median, peak memory, and each operation's median time summed
per family.  The raw samples go to a JSON file under ``$CARGO_TARGET_DIR``
(default ``.bench_build``).

With ``--trace 1`` untraced and traced full rounds alternate until
``--seconds`` are used; the last line holds the per-layer metrics, and the
spans go to a JSON-lines file in the same directory.  See
perfbench/README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S, Speed, reference_times

SETUP_PROBES = 5  # before the first round; one more after each round
SETUP_REFERENCE_RUNS = 10  # before and after the set-up in the child
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rectsym benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "ladder", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the package, build the inputs and exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def import_package(root):
    """Put ``root/src`` first on the path and import rectsym from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rectsym", "__init__.py")):
        raise ImportError(f"no src/rectsym under {root}; run from the repository root")
    sys.path.insert(0, src)
    import rectsym

    if os.path.dirname(os.path.dirname(os.path.abspath(rectsym.__file__))) != src:
        raise ImportError(f"rectsym was imported from {rectsym.__file__}, not from {src}")


def time_setup(args, speed):
    """Wall time of a fresh interpreter doing the benchmark's set-up, at the
    reference speed.  The child times the reference before and after its
    set-up, so the speed is read where the set-up runs; the parent's timer
    is paused meanwhile."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    # no timeout: waiting with one polls every 50 ms, which quantizes the time
    speed.stop()
    try:
        started = time.perf_counter()
        child = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - started
    finally:
        speed.start()
    refs = json.loads(child.stdout)["reference_s"]
    return (elapsed - sum(refs)) * REFERENCE_S / statistics.median(refs)


class Samples:
    """Per-operation timings and the failure tally of a run.  With a
    ``Speed``, a timing leaves out the time of the speed samples inside it,
    and each timing's interval is kept for ``Speed.scaled``."""

    def __init__(self, ops, speed=None):
        self.ops = ops
        self.speed = speed
        self.seconds = [[] for _ in ops]
        self.intervals = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, i, bench):
        op = self.ops[i]
        bench.cold(op.collect)
        started = time.perf_counter()
        try:
            with bench.span(op.label):
                failures = op.run(bench)
        except Exception as exc:  # a crash fails every instance the op checks
            failures = [f"{op.label} raised {exc!r}"] * op.count
        ended = time.perf_counter()
        elapsed = ended - started
        if self.speed is not None:
            elapsed -= self.speed.handler_s(started, ended)
            self.intervals[i].append((started, ended))
        self.seconds[i].append(elapsed)
        self.attempted += op.count
        self.failed += len(failures)
        self.errors.extend(failures[: 20 - len(self.errors)])
        return elapsed

    def scaled(self):
        """Every operation's timings at the reference speed; call it after
        ``Speed.stop``."""
        return [
            [self.speed.scaled(*interval, t) for interval, t in zip(intervals, times)]
            for intervals, times in zip(self.intervals, self.seconds)
        ]


def measure(samples, bench, seconds, rng, after_round, min_round_s):
    """Rounds over the operations, each in a fresh seeded order, until
    ``seconds`` are used.  The first round runs every operation; after it an
    operation runs only if its slowest sample so far fits in the time left.
    So a run lasts about ``seconds``, or one round where a round takes
    longer, even on a slow host; and the last rounds give the short
    operations more samples.  Within a round an operation runs again, from
    cold, until it has taken ``min_round_s``, so short operations get
    samples enough for a steady median."""
    started = time.perf_counter()
    order = list(range(len(samples.ops)))

    def fits(i):
        left = seconds - (time.perf_counter() - started)
        return max(samples.seconds[i]) <= left

    while True:
        rng.shuffle(order)
        ran = 0
        for i in order:
            if samples.seconds[i] and not fits(i):
                continue
            spent = samples.run(i, bench)
            while spent < min_round_s and fits(i):
                spent += samples.run(i, bench)
            ran += 1
        after_round()
        if not ran:
            return


def measure_traced(samples, traced_samples, plain, traced, seconds, rng):
    """Alternate an untraced and a traced full round until ``seconds`` are
    used; returns the busy seconds of each untraced and traced round."""
    tracer = traced.tracer
    plain_s, traced_s = [], []
    order = list(range(len(samples.ops)))
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        rng.shuffle(order)
        plain_s.append(sum(samples.run(i, plain) for i in order))
        plain.cold(collect=False)  # the traced round counts only its own cache use
        tracer.install()
        try:
            traced_s.append(sum(traced_samples.run(i, traced) for i in order))
            traced.cold(collect=False)
        finally:
            tracer.uninstall()
        tracer.collect_contexts()
        pair_s = time.perf_counter() - pair_started
        if time.perf_counter() - started + pair_s > seconds:
            return plain_s, traced_s


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if args.setup_only:
        refs = reference_times(SETUP_REFERENCE_RUNS)
    try:
        import_package(root)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from metrics import end_to_end, layer_metrics
    from spans import Tracer, find_caches
    from workloads import WORKLOADS, Bench

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        refs += reference_times(SETUP_REFERENCE_RUNS)
        print(json.dumps({"reference_s": refs}))
        return 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": workload.inputs()}))
    caches = find_caches()
    rng = random.Random(args.seed)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    if args.trace:
        tracer = Tracer()
        samples = Samples(workload.ops)
        traced_samples = Samples(workload.ops)
        plain_s, traced_s = measure_traced(
            samples, traced_samples, Bench(caches), Bench(caches, tracer), args.seconds, rng
        )
        metrics = layer_metrics(tracer, traced_s, plain_s)
        tracer.write(f"{stem}-trace.jsonl", {"workload": args.workload, "seed": args.seed})
        runs = (samples, traced_samples)
    else:
        speed = Speed()
        samples = Samples(workload.ops, speed)
        speed.start()
        try:
            setup = [time_setup(args, speed) for _ in range(SETUP_PROBES)]
            measure(
                samples,
                Bench(caches),
                args.seconds,
                rng,
                lambda: setup.append(time_setup(args, speed)),
                workload.min_round_s,
            )
        finally:
            speed.stop()
        scaled = samples.scaled()
        metrics = end_to_end(samples.ops, scaled, statistics.median(setup))
        runs = (samples,)
        with open(f"{stem}-samples.json", "w") as out:
            json.dump(
                {
                    "setup_s": setup,
                    "reference_s": speed.ticks,
                    "ops": [
                        {"label": op.label, "family": op.family, "seconds": raw, "scaled": at_ref}
                        for op, raw, at_ref in zip(samples.ops, samples.seconds, scaled)
                    ],
                },
                out,
            )
    failed = sum(r.failed for r in runs)
    for error in [e for r in runs for e in r.errors][:20]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
