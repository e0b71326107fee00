"""The benchmark's traced run still finds every layer it hooks into.

``bench/tracing.py`` wraps functions of ``colcirc`` by name, so a rename, or a
path that bypasses a wrapped function, would silently drop a per-layer
metric; this runs one short traced round of each workload and checks them.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["bulk", "small", "cli"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    for name in names:
        assert name in report["metrics"], name
        assert math.isfinite(report["metrics"][name]["value"]), name
