"""colcirc benchmark: one workload in one single-threaded process.

Run from the repository root::

    python3 bench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed operations
and the unscaled rates go to standard error.  With ``--trace 0`` the
metrics are the end-to-end ones and no wrapper is installed.  With
``--trace 1`` the run alternates rounds with the program's functions
wrapped (``tracing.py``) and rounds without; it prints the per-layer
metrics that every workload touches and writes all per-layer metrics, the
call graph and the tracing overhead to
``bench/out/trace-<workload>-<seed>.json``.

``python3 bench/run.py --selfcheck`` runs every workload at toy size and
shows that injected wrong outputs are counted as failed operations.

See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("bulk", "small", "cli")
SETUP_REPEATS = 11

# Composed codecs the workloads use: (kind, scheme id, inner schemes, options).
# bench/cases.py holds the generators of the ids used by ``small``.
RECIPES = (
    ("segmentize-uniform", "bench.seg256", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 256}),
    ("elementwise-add", "bench.ewadd", (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"})), {}),
    ("patch", "bench.patch", (("constant", {"type": "u8"}),), {}),
    ("small-dict-fit", "bench.sdf", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"bits": 2}),
    ("differentiate", "bench.diff", (("nullsup", {"type": "i16", "narrow_type": "i8"}),), {"type": "u32"}),
    ("alternate", "bench.alt", (("constant", {"type": "u8"}), ("nullsup", {"type": "u8", "narrow_type": "u8"})), {}),
    ("segmentize-uniform", "bench.seg4", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 4}),
    ("segmentize-variable", "bench.segvar", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {}),
)


def _colcirc_modules():
    return {name: m for name, m in sys.modules.items() if name == "colcirc" or name.startswith("colcirc.")}


def fresh_setup():
    """Import colcirc from scratch, load the registry, register the composed codecs.

    Returns the seconds taken; the new modules stay loaded.
    """
    for name in _colcirc_modules():
        del sys.modules[name]
    gc.collect()  # the previous import's garbage is not this one's cost
    t0 = time.perf_counter()
    colcirc = importlib.import_module("colcirc")
    colcirc.registered_schemes()
    for kind, sid, inner, options in RECIPES:
        colcirc.compose(colcirc.CompositionRecipe(kind, sid, inner, options))
    return time.perf_counter() - t0


def spare_setup():
    """One more timed ``fresh_setup``; the modules in use are put back afterwards.

    The host's speed changes for seconds at a time, so the set-ups of a run
    are spread between its rounds rather than taken back to back.
    """
    in_use = _colcirc_modules()
    seconds = fresh_setup()
    for name in _colcirc_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def make_workload(name, seed, scale=1.0):
    import workloads

    if name == "bulk":
        return workloads.Bulk(seed, scale)
    if name == "small":
        return workloads.Small(seed, scale)
    return workloads.Cli(seed, scale, os.path.join(OUT_DIR, f"work-cli-{os.getpid()}"))


class Rounds:
    """Whole rounds of one workload, and each operation's time in every round.

    Every round repeats the same operations in the same order.  An
    operation's time is the median over rounds of its time scaled to the
    host's quiet speed (HostSpeed); the median of the raw times is kept for
    comparison.  Times are kept as one array of floats per round, NaN where
    the operation failed.
    """

    def __init__(self):
        self.walls = []
        self.tallies = []
        self.kinds = None  # per operation
        self.elems = None  # per operation
        self.scaled = []  # per round: array of scaled seconds
        self.raw = []  # per round: array of raw seconds

    def add(self, wall, tally):
        ops = tally.ops
        if self.kinds is None:
            self.kinds = [kind for kind, _, _, _ in ops]
            self.elems = [0] * len(ops)
        self.elems = [max(old, n) for old, (_, n, _, _) in zip(self.elems, ops)]
        self.scaled.append(array("d", (_NAN if s is None else s for _, _, s, _ in ops)))
        self.raw.append(array("d", (_NAN if r is None else r for _, _, _, r in ops)))
        tally.ops = None
        self.walls.append(wall)
        self.tallies.append(tally)

    def _medians(self, raw):
        """``(kind, elements, median seconds)`` per operation that ever succeeded."""
        rounds = self.raw if raw else self.scaled
        for i, kind in enumerate(self.kinds):
            times = [r[i] for r in rounds if r[i] == r[i]]  # NaN marks a failure
            if times:
                yield kind, self.elems[i], statistics.median(times)

    def busy_s(self):
        """The sum of every operation's median scaled time."""
        return sum(t for _, _, t in self._medians(False))

    def rate(self, kind, raw=False):
        """Elements per second of one operation kind, each operation at its median."""
        elems = secs = 0
        for op_kind, n, t in self._medians(raw):
            if op_kind == kind:
                elems += n
                secs += t
        return elems / secs

    def summary(self):
        """``correct``, ``attempted`` and ``failed``, and the failures seen."""
        errors = sorted({e for t in self.tallies for e in t.errors})
        return {
            "correct": all(t.wrong == 0 for t in self.tallies),
            "attempted": sum(t.attempted for t in self.tallies),
            "failed": sum(t.failed for t in self.tallies),
        }, errors


_NAN = float("nan")


class HostSpeed:
    """How fast the host runs right now, against its speed when quiet.

    On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz, CPython 3.11)
    other tenants slowed the loop below up to threefold, for seconds or
    minutes at a time, which moved raw rates by a fifth to a third between
    identical runs and between the two halves of one run.  So each
    operation's time is scaled by a fixed pure-Python loop timed next to it,
    relative to REFERENCE_S, the loop's time on that machine when quiet: the
    loop is re-timed before an operation when its last timing is older than
    REFRESH_S, and after an operation longer than that, which then takes the
    mean of the two.  With the scaling, and the median over rounds, the two
    halves of a run agreed within 5 %.  The loop does not touch the program,
    so a change to the program moves the scaled time as it moves the raw
    one; the unscaled rates go to standard error.
    """

    REFERENCE_S = 0.0013
    REFRESH_S = 0.1

    def __init__(self):
        self.at = float("-inf")
        self.factor = 1.0

    def __call__(self, fresh=False):
        """The current factor; ``fresh`` re-times the loop whatever its age."""
        if fresh or time.perf_counter() - self.at > self.REFRESH_S:
            self.factor = self.REFERENCE_S / calibration_seconds()
            self.at = time.perf_counter()
        return self.factor


def calibration_seconds():
    """Fastest of three timings of a fixed integer loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_seconds(speed, fn):
    """``fn()``'s seconds scaled like operation times, the loop timed before and after."""
    before = speed(fresh=True)
    seconds = fn()
    return seconds * (before + speed(fresh=True)) / 2


def run_round(workload, rounds, speed, tracer=None):
    """One round of ``workload``, added to ``rounds``."""
    import workloads

    tally = workloads.Tally(tracer, speed)
    t0 = time.perf_counter()
    workload.run_round(tally)
    rounds.add(time.perf_counter() - t0, tally)


def run_rounds(workload, seconds, setups=None):
    """At least one round, and whole rounds until ``seconds`` have passed.

    When ``setups`` is a list, scaled spare set-up times are added to it,
    one before each round, until it holds SETUP_REPEATS.
    """
    rounds = Rounds()
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not rounds.walls or time.perf_counter() < deadline:
        if setups is not None and len(setups) < SETUP_REPEATS:
            setups.append(scaled_seconds(speed, spare_setup))
        run_round(workload, rounds, speed)
    while setups is not None and len(setups) < SETUP_REPEATS:
        setups.append(scaled_seconds(speed, spare_setup))
    return rounds


def end_to_end_metrics(rounds, setup_s):
    """Each operation kind's rate, plus set-up time, encoded size and peak memory."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "encode_elems_per_s": {"value": rounds.rate("encode"), "unit": "elems/s"},
        "verify_elems_per_s": {"value": rounds.rate("verify"), "unit": "elems/s"},
        "decode_elems_per_s": {"value": rounds.rate("decode"), "unit": "elems/s"},
        "query_rows_per_s": {"value": rounds.rate("query"), "unit": "rows/s"},
        "encoded_bytes": {"value": rounds.tallies[0].encoded_bytes, "unit": "bytes"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def traced_run(name, seed, workload, seconds):
    """Traced and untraced rounds in turn; per-layer metrics and the overhead.

    Rounds alternate, so that the host's drift falls on both sides of the
    overhead alike, and a traced round comes first, so that tracing sees the
    decoder cache fill as the first round of an untraced run does.
    """
    import tracing

    tracer = tracing.Tracer()
    traced, plain = Rounds(), Rounds()
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not plain.walls or time.perf_counter() < deadline:
        uninstall = tracing.install(tracer)
        try:
            run_round(workload, traced, speed, tracer)
        finally:
            uninstall()
        run_round(workload, plain, speed)
    # operation times as the end-to-end rates take them
    overhead = traced.busy_s() / plain.busy_s() - 1.0
    layers = tracer.metrics(len(traced.walls))
    layers["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {
        "workload": name,
        "seed": seed,
        "traced_round_s": traced.walls,
        "untraced_round_s": plain.walls,
        "metrics": layers,
        "spans": tracer.span_table(len(traced.walls)),
    }
    with open(os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    printed = {k: layers[k] for k in tracing.PRINTED if k in layers}
    traced.tallies += plain.tallies
    return traced, printed


def run(name, seed, seconds, traced):
    setups = [scaled_seconds(HostSpeed(), fresh_setup)]
    workload = make_workload(name, seed)
    try:
        if traced:
            rounds, metrics = traced_run(name, seed, workload, seconds)
        else:
            rounds = run_rounds(workload, seconds, setups=setups)
            metrics = end_to_end_metrics(rounds, statistics.median(setups))
    finally:
        if hasattr(workload, "close"):
            workload.close()
    result, errors = rounds.summary()
    for line in errors:
        print(f"failed operation: {line}", file=sys.stderr)
    encoded = sorted({t.encoded_bytes for t in rounds.tallies})
    if len(encoded) != 1:  # the same inputs must encode to the same bytes
        result["correct"] = False
        print(f"encoded bytes differ between rounds: {encoded}", file=sys.stderr)
    if not traced:
        raw = {kind: round(rounds.rate(kind, raw=True), 1) for kind in ("encode", "verify", "decode", "query")}
        print(f"unscaled rates {raw}", file=sys.stderr)
    result["metrics"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="toy-size run of every workload with fault injection")
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "colcirc", "__init__.py")):
        print("error: src/colcirc not found; run from the root of a colcirc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.selfcheck:
        import selfcheck

        fresh_setup()
        return selfcheck.main(make_workload, run_rounds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
