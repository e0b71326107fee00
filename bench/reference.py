"""Reference figures for bench/README.md.

    python3 bench/reference.py [--seconds 20]

Prints, as JSON:

- the ROADMAP baselines re-measured here, at 200k u32 values of the ``runs``
  distribution: ``make_column``, ``read_col_bytes`` on bytes from the
  benchmark's own packer, and ``run.rle`` decode (fastest of 3 each);
- ``bulk`` and ``small`` rates with circuit evaluation serial (the default)
  and with ``parallel=True`` substituted for every ``evaluate_circuit`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

import run


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def baselines(n=200_000):
    import colcirc
    from colcirc.types import U32

    import colfile
    import workloads

    values = workloads.gen_runs(random.Random(1), n)
    data = colfile.pack("u32", values)
    col = colcirc.make_column(U32, values)
    inst = colcirc.encode("run.rle", {"type": "u32"}, col)
    return {
        "make_column_s": best_of(lambda: colcirc.make_column(U32, values)),
        "read_col_bytes_s": best_of(lambda: colcirc.read_col_bytes(data)),
        "run_rle_decode_s": best_of(lambda: colcirc.decode(inst)),
    }


def rates(rounds):
    return {kind: rounds.rate(kind) for kind in ("encode", "verify", "decode", "query")}


def parallel_against_serial(name, seconds):
    workload = run.make_workload(name, 1)
    serial = rates(run.run_rounds(workload, seconds))
    originals = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "colcirc" or modname.startswith("colcirc."):
            fn = getattr(mod, "evaluate_circuit", None)
            if fn is not None:
                originals[mod] = fn
                mod.evaluate_circuit = functools.partial(fn, parallel=True)
    try:
        parallel = rates(run.run_rounds(workload, seconds))
    finally:
        for mod, fn in originals.items():
            mod.evaluate_circuit = fn
    return {"serial": serial, "parallel": parallel}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    run.fresh_setup()
    report = {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "baselines_200k": baselines(),
        "bulk": parallel_against_serial("bulk", args.seconds),
        "small": parallel_against_serial("small", args.seconds),
    }
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
