"""Acceptance suite: one test per acceptance criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) so the whole gate can be read off the terminal. Criteria 7 and 8
are full experiments with wall-clock budgets; expect the module to take
several minutes.
"""

import itertools
import time

import numpy as np
import pytest

from xnesyl import training as training_module
from xnesyl.alignment import WeightScheme, build_sag, misattribution, shap_ged
from xnesyl.classifier import MLPClassifier, loss_and_grad
from xnesyl.datagen import (
    GeneratorConfig,
    Region,
    SceneInstance,
    generate_dataset,
    read_dataset,
    split_dataset,
    write_dataset,
)
from xnesyl.detector import (
    DetectionSet,
    PartDetector,
    aggregate_frcnn,
    aggregate_retina,
    weighted_roi_loss,
)
from xnesyl.kg import deterministic_classify, monumai_kg
from xnesyl.shapley import (
    BackgroundSet,
    exact_shap_matrix,
    kernel_shap_matrix,
)
from xnesyl.training import TrainConfig, train_shap_backprop, train_standard

# experiment configurations (criteria 7-9); dataset sizes and budgets per gate
E1_GENERATOR = GeneratorConfig(
    seed=7, feature_dim=8, regions_per_instance=(2, 6), noise_rate=0.0, separation=6.0
)
E1_COUNT = 1000  # hash-rank split gives exactly 600/200/200
E1_TRAIN = dict(
    epochs_det=8,
    epochs_clf=60,
    lr_det=0.5,
    lr_clf=0.05,
    background_size=32,
    shap_mode="exact",
    shap_samples=256,
    aggregation="frcnn",
)

# E2 regime notes: separation 1.5 keeps the part detector genuinely
# fallible (region accuracy ~0.85), so recurring misdetections create the
# phantom part evidence the weighting is designed to correct; the full
# probability vectors (retina aggregation) expose every part to the
# misattribution test. The balancing factor h = 5 scales the correction
# to desk size: the detector is a convex model whose response to instance
# re-weighting is far weaker than a deep network's, and measured wrong-sign
# attribution magnitudes here sit around 0.1, so unit h would leave the
# loss multipliers at ~1.1 and the procedure nearly inert.
E2_SEEDS = (0, 1, 2, 3, 4)
E2_NOISE = 0.2
E2_SEPARATION = 1.5
E2_COUNT = 600
E2_H = 5.0
E2_TRAIN = dict(
    epochs_det=10,
    epochs_clf=40,
    lr_det=0.3,
    lr_clf=0.05,
    background_size=16,
    shap_mode="exact",
    shap_samples=256,
    aggregation="retina",
)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert passed, f"{criterion}: {detail}"


def softmax_model(weights):
    def model(x):
        z = np.asarray(x) @ weights.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return model


@pytest.fixture(scope="module")
def e1_run():
    kg = monumai_kg()
    data = generate_dataset(kg, E1_GENERATOR, E1_COUNT)
    splits = split_dataset(data)
    start = time.monotonic()
    artifacts = train_standard(kg, splits, TrainConfig(seed=7, **E1_TRAIN))
    elapsed = time.monotonic() - start
    return kg, data, splits, artifacts, elapsed


def test_criterion_1_shapley_efficiency():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst_exact = worst_kernel = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 11))
        model = softmax_model(rng.normal(size=(4, n)))
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(8, n)))
        k = int(rng.integers(0, 4))
        span = model(x[None, :])[0, k] - model(bg.vectors)[:, k].mean()
        exact = exact_shap_matrix(model, x, bg)[k]
        worst_exact = max(worst_exact, abs(exact.sum() - span))
        # sample budget covering every proper coalition (and the 2n floor,
        # which exceeds the coalition count for n = 2) forces enumeration
        budget = max(2 * n, (1 << n) - 2)
        kernel = kernel_shap_matrix(model, x, bg, budget, seed=trial)[k]
        worst_kernel = max(worst_kernel, abs(kernel.sum() - span))
    elapsed = time.monotonic() - start
    report(
        "1 shapley-efficiency",
        worst_exact <= 1e-9 and worst_kernel <= 1e-6 and elapsed < 30.0,
        f"exact residual {worst_exact:.2e} (<=1e-9), "
        f"kernel residual {worst_kernel:.2e} (<=1e-6), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_kernel_exact_agreement():
    rng = np.random.default_rng(200)
    n = 8
    worst = 0.0
    for trial in range(20):
        model = softmax_model(rng.normal(size=(3, n)))
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(6, n)))
        exact = exact_shap_matrix(model, x, bg)
        kernel = kernel_shap_matrix(model, x, bg, (1 << n) - 2, seed=trial)
        worst = max(worst, float(np.abs(exact - kernel).max()))
    report("2 kernel-exact-agreement", worst <= 1e-6, f"max abs diff {worst:.2e} (<=1e-6)")


def test_criterion_3_gradient_checks():
    kg = monumai_kg()
    rng = np.random.default_rng(300)
    h = 1e-5
    worst = 0.0

    for probe in range(10):  # detector
        det = PartDetector.create(kg, 6)
        det.weights = rng.normal(size=det.weights.shape)
        det.bias = rng.normal(size=det.bias.shape)
        parts = rng.choice(kg.part_classes, size=4)
        inst = SceneInstance(
            "probe", kg.object_classes[0],
            tuple(Region(p, rng.normal(size=6)) for p in parts),
        )
        weights = rng.uniform(1.0, 2.0, size=4)
        _, (gw, gb) = weighted_roi_loss(det, inst, weights)
        dw, db = rng.normal(size=gw.shape), rng.normal(size=gb.shape)
        analytic = float((gw * dw).sum() + (gb * db).sum())
        plus, minus = det.copy(), det.copy()
        plus.weights, plus.bias = det.weights + h * dw, det.bias + h * db
        minus.weights, minus.bias = det.weights - h * dw, det.bias - h * db
        numeric = (
            weighted_roi_loss(plus, inst, weights)[0]
            - weighted_roi_loss(minus, inst, weights)[0]
        ) / (2 * h)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric)))

    for probe in range(10):  # classifier
        clf = MLPClassifier.create(kg, seed=probe)
        clf.w1 = rng.normal(scale=0.5, size=clf.w1.shape)
        clf.w2 = rng.normal(scale=0.5, size=clf.w2.shape)
        x = rng.uniform(0, 2, size=(5, kg.num_parts))
        y = rng.integers(0, kg.num_object_classes, size=5)
        _, grads = loss_and_grad(clf, x, y)
        directions = [rng.normal(size=g.shape) for g in grads]
        analytic = float(sum((g * d).sum() for g, d in zip(grads, directions)))
        plus, minus = clf.copy(), clf.copy()
        for p, d in zip(plus.parameters(), directions):
            p += h * d
        for p, d in zip(minus.parameters(), directions):
            p -= h * d
        numeric = (loss_and_grad(plus, x, y)[0] - loss_and_grad(minus, x, y)[0]) / (2 * h)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric)))

    report("3 gradient-checks", worst <= 1e-4, f"max rel err {worst:.2e} (<=1e-4)")


def test_criterion_4_beta_truth_table():
    # hand-evaluated: beta = max(-kg * s, 0) when the feature is present,
    # 0 when absent (threshold 0)
    expected = {}
    for s, kg_entry, feat in itertools.product((-0.5, 0.0, 0.5), (-1.0, 1.0), (0.0, 0.5)):
        if feat <= 0.0:
            expected[(s, kg_entry, feat)] = 0.0
        else:
            expected[(s, kg_entry, feat)] = max(-kg_entry * s, 0.0)
    mismatches = [
        combo
        for combo, want in expected.items()
        if misattribution(*combo) != want
    ]
    report("4 beta-truth-table", not mismatches, f"{12 - len(mismatches)}/12 combinations exact")


def test_criterion_5_sag_oracle(facade_fixture):
    kg = monumai_kg()
    sag = build_sag(kg, facade_fixture["v"], facade_fixture["shap_values"], s=0.05)
    edges_ok = sag.edges == facade_fixture["expected_edges"]
    distance = shap_ged(sag, kg)
    report(
        "5 sag-oracle",
        edges_ok and distance == 3,
        f"edges {'match' if edges_ok else 'differ'}, distance {distance} (==3)",
    )


def test_criterion_6_neutrality(monkeypatch):
    kg = monumai_kg()
    gen_cfg = GeneratorConfig(seed=23, noise_rate=0.2)
    splits = split_dataset(generate_dataset(kg, gen_cfg, 150))
    fast = dict(
        epochs_det=3, epochs_clf=10, lr_det=0.3, lr_clf=0.05,
        background_size=12, shap_mode="kernel", shap_samples=64,
    )

    def unit_weights(shap_rows, kg_rows, v, predicted_parts, scheme, v_threshold=0.0):
        return [np.ones(len(parts)) for parts in predicted_parts]

    monkeypatch.setattr(training_module, "region_weights", unit_weights)
    weighted = train_shap_backprop(
        kg, splits, TrainConfig(seed=9, scheme=WeightScheme("linear_instance"), **fast)
    )
    standard = train_standard(kg, splits, TrainConfig(seed=9, **fast))
    same_det = np.array_equal(
        weighted.detector.weights, standard.detector.weights
    ) and np.array_equal(weighted.detector.bias, standard.detector.bias)
    same_clf = all(
        np.array_equal(pw, ps)
        for pw, ps in zip(weighted.classifier.parameters(), standard.classifier.parameters())
    )
    same_metrics = weighted.metrics == standard.metrics
    report(
        "6 neutrality",
        same_det and same_clf and same_metrics,
        f"detector bit-identical {same_det}, classifier bit-identical {same_clf}, "
        f"metrics identical {same_metrics}",
    )


def test_criterion_7_experiment_e1(e1_run):
    _, _, splits, artifacts, elapsed = e1_run
    sizes = tuple(len(s) for s in splits)
    metrics = artifacts.metrics
    ok = (
        sizes == (600, 200, 200)
        and metrics["accuracy"] >= 0.90
        and metrics["part_macro_accuracy"] >= 0.90
        and elapsed < 120.0
    )
    report(
        "7 experiment-e1",
        ok,
        f"split {sizes}, accuracy {metrics['accuracy']:.3f} (>=0.90), "
        f"part macro {metrics['part_macro_accuracy']:.3f} (>=0.90), {elapsed:.0f}s (<120s)",
    )


def test_criterion_8_experiment_e2():
    kg = monumai_kg()
    start = time.monotonic()
    ged_std, ged_sbp, acc_std, acc_sbp = [], [], [], []
    for seed in E2_SEEDS:
        gen_cfg = GeneratorConfig(
            seed=seed, feature_dim=8, regions_per_instance=(2, 6),
            noise_rate=E2_NOISE, separation=E2_SEPARATION,
        )
        splits = split_dataset(generate_dataset(kg, gen_cfg, E2_COUNT))
        standard = train_standard(kg, splits, TrainConfig(seed=seed, **E2_TRAIN))
        weighted = train_shap_backprop(
            kg, splits,
            TrainConfig(
                seed=seed, scheme=WeightScheme("linear_instance", h=E2_H), **E2_TRAIN
            ),
        )
        ged_std.append(standard.metrics["mean_shap_ged"])
        ged_sbp.append(weighted.metrics["mean_shap_ged"])
        acc_std.append(standard.metrics["accuracy"])
        acc_sbp.append(weighted.metrics["accuracy"])
    elapsed = time.monotonic() - start
    ged_std, ged_sbp = np.array(ged_std), np.array(ged_sbp)
    wins = int((ged_sbp < ged_std).sum())
    reduction = 1.0 - ged_sbp.mean() / ged_std.mean()
    acc_gap = abs(np.mean(acc_sbp) - np.mean(acc_std))
    ok = (
        wins >= 4
        and reduction >= 0.10
        and acc_gap <= 0.03
        and elapsed < 600.0
    )
    report(
        "8 experiment-e2",
        ok,
        f"wins {wins}/5 (>=4), mean distance {ged_std.mean():.3f} -> {ged_sbp.mean():.3f} "
        f"({reduction * 100:.1f}% reduction, >=10%), accuracy gap {acc_gap * 100:.2f} pts "
        f"(<=3), {elapsed:.0f}s (<600s)",
    )


def test_criterion_9_deterministic_baseline(e1_run, tmp_path):
    kg, data, splits, _, _ = e1_run
    # the guarantee is checked on the emitted file, not the in-memory objects
    path = tmp_path / "e1.jsonl"
    write_dataset(data, path)
    emitted = read_dataset(path, kg)
    unique_by_class = {c: set(kg.unique_parts(c)) for c in kg.object_classes}
    guarantee = all(
        any(r.gt_part_class in unique_by_class[inst.gt_object_class] for r in inst.regions)
        for inst in emitted
    )
    test_split = splits[2]
    correct = 0
    for inst in test_split:
        one_hot = np.zeros((len(inst.regions), kg.num_parts))
        for row, region in enumerate(inst.regions):
            one_hot[row, kg.part_index(region.gt_part_class)] = 1.0
        v = aggregate_frcnn(DetectionSet(one_hot))
        result = deterministic_classify(kg, v)
        correct += result.object_class == inst.gt_object_class
    acc = correct / len(test_split)
    report(
        "9 deterministic-baseline",
        guarantee and acc == 1.0,
        f"unique-part guarantee {guarantee}, oracle-detection accuracy {acc:.3f} (==1.0)",
    )


def test_criterion_10_aggregation_equivalence():
    rng = np.random.default_rng(1000)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(2, 16))
        probs = np.zeros((m, n))
        probs[np.arange(m), rng.integers(0, n, size=m)] = 1.0
        ds = DetectionSet(probs)
        if not np.array_equal(aggregate_frcnn(ds), aggregate_retina(ds)):
            mismatches += 1
    report(
        "10 aggregation-equivalence",
        mismatches == 0,
        f"{1000 - mismatches}/1000 one-hot cases exactly equal",
    )
