"""Exact work counts of one traced `xnesyl train` on each workload.

Run from the repository root:

    python3 -m pytest perfbench

The counts are pure functions of the workload's sizes and flags, so a
change that alters one has changed how much work the program does.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xnesyl.kg import monumai_kg  # noqa: E402


def traced_train(name: str, tmp_path: Path):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    session = workloads.Session(workload, workload.default_seed, tmp_path, tracer)
    session.setup()
    tracer.install()
    try:
        session.tracing = True
        session.train()
    finally:
        tracer.uninstall()
    assert session.checks.failures == []
    counts = tracing.totals(tracer.spans, 0, len(tracer.spans))
    return counts, workload, session.train_size, len(session.test_ids)


@pytest.fixture(scope="module")
def e1(tmp_path_factory):
    return traced_train("e1-frcnn-exact", tmp_path_factory.mktemp("e1"))


@pytest.fixture(scope="module")
def e2(tmp_path_factory):
    return traced_train("e2-retina-backprop", tmp_path_factory.mktemp("e2"))


def test_e1_coalition_rows(e1):
    counts, workload, n_train, n_test = e1
    bg = workload.train["bg_size"]
    assert bg <= n_train, "the background must not be capped by the training split"
    n_parts = monumai_kg().num_parts
    assert counts["shapley.coalition_values.rows"] == n_test * 2**n_parts * bg
    assert counts["shapley.exact_shap_matrix.calls"] == n_test
    assert counts.get("shapley.kernel_shap_matrix.calls", 0) == 0


def test_e2_kernel_calls(e2):
    counts, workload, n_train, _ = e2
    assert counts["shapley.kernel_shap_matrix.calls"] == workload.train["epochs_det"] * n_train
    assert counts["shapley.sample_masks.drawn"] == (
        workload.train["epochs_det"] * n_train * workload.train["shap_samples"]
    )


@pytest.mark.parametrize("fixture", ["e1", "e2"])
def test_detect_calls(fixture, request):
    # train detects the training split once per descriptor pass (once for
    # standard training, once per epoch for shap-backprop); evaluate then
    # detects the test split three times (descriptors, graph distance,
    # part accuracy). A change that detects each split once lowers this.
    counts, workload, n_train, n_test = request.getfixturevalue(fixture)
    passes = workload.train["epochs_det"] if workload.train["mode"] == "shap-backprop" else 1
    assert counts["detector.detect.calls"] == passes * n_train + 3 * n_test
