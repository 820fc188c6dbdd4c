"""The traced benchmark still runs and reports every per-layer metric.

A traced function renamed or removed in `src/` drops its metrics from the
benchmark's result without failing the run, and one that is no longer
called reports 0, so this runs the shortest traced benchmark of each
workload on a copy of the sources and checks the last line it prints.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Counters each workload's traced cycle must move. `shapley.kernel_shap_matrix.calls`
# is left out: the weighting pass calls `kernel_shap_stack`, which the tracer
# does not wrap, so it reads 0 on E2 until the benchmark wraps the stack.
_EVERY_WORKLOAD = (
    "shapley.exact_shap_matrix.calls",
    "shapley.exact_combine.s",
    "detector.detect.calls",
    "alignment.build_sag.calls",
)
LIVE_COUNTERS = {
    "e1-frcnn-exact": _EVERY_WORKLOAD,
    "e2-retina-backprop": _EVERY_WORKLOAD + (
        "shapley.coalition_values.rows",
        "shapley.sample_masks.drawn",
        "alignment.region_weights.calls",
    ),
}


@pytest.mark.parametrize("workload", ["e1-frcnn-exact", "e2-retina-backprop"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    # a copy keeps the run's output directory and lock out of the checkout
    for name in ("src", "perfbench"):
        shutil.copytree(
            ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [e["name"] for e in spec["per_layer"] if e["name"] not in result["metrics"]]
    assert missing == []
    # a traced function that stops being called reports 0, not a missing metric
    dark = [name for name in LIVE_COUNTERS[workload] if not result["metrics"][name]["value"]]
    assert dark == []
