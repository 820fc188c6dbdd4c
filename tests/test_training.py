"""Training orchestration: determinism, neutrality, traces, evaluation."""

import dataclasses

import numpy as np
import pytest

from xnesyl import shapley as shapley_module
from xnesyl import training as training_module
from xnesyl.alignment import WeightScheme
from xnesyl.datagen import GeneratorConfig, generate_dataset, split_dataset
from xnesyl.errors import NumericalError, ValidationError
from xnesyl.kg import KnowledgeGraph, monumai_kg
from xnesyl.shapley import kernel_shap_matrix, kernel_shap_stack
from xnesyl.training import (
    TrainConfig,
    config_echo,
    config_from_echo,
    evaluate,
    metrics_report,
    train_shap_backprop,
    train_standard,
)

FAST = dict(
    epochs_det=3,
    epochs_clf=10,
    lr_det=0.3,
    lr_clf=0.05,
    background_size=12,
    shap_mode="kernel",
    shap_samples=64,
)


@pytest.fixture(scope="module")
def small_splits():
    kg = monumai_kg()
    cfg = GeneratorConfig(seed=17, noise_rate=0.2)
    return kg, split_dataset(generate_dataset(kg, cfg, 150))


class TestStandard:
    def test_deterministic(self, small_splits):
        kg, splits = small_splits
        a = train_standard(kg, splits, TrainConfig(seed=5, **FAST))
        b = train_standard(kg, splits, TrainConfig(seed=5, **FAST))
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.detector.weights, b.detector.weights)
        np.testing.assert_array_equal(a.classifier.w1, b.classifier.w1)

    def test_scheme_rejected(self, small_splits):
        kg, splits = small_splits
        cfg = TrainConfig(seed=5, scheme=WeightScheme("linear_bbox"), **FAST)
        with pytest.raises(ValidationError, match="train_shap_backprop"):
            train_standard(kg, splits, cfg)

    def test_trace_has_one_entry_per_epoch(self, small_splits):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=6, **FAST))
        assert [e["epoch"] for e in artifacts.per_epoch] == [1, 2, 3]
        assert all(e["alpha_mean"] == 1.0 for e in artifacts.per_epoch)

    def test_metrics_keys(self, small_splits):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=7, **FAST))
        assert set(artifacts.metrics) == {
            "part_macro_accuracy",
            "accuracy",
            "mean_shap_ged",
        }


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr_det", float("nan")),
            ("lr_det", float("inf")),
            ("lr_clf", float("nan")),
            ("lr_clf", float("inf")),
            ("s", float("nan")),
            ("s", float("-inf")),
            ("v_threshold", float("nan")),
            ("v_threshold", float("inf")),
        ],
    )
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must be finite"):
            TrainConfig(seed=0, **{field: value})

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValidationError, match="h must be finite"):
            WeightScheme("linear_bbox", h=h)


class TestShapBackprop:
    def test_requires_scheme(self, small_splits):
        kg, splits = small_splits
        with pytest.raises(ValidationError, match="requires a weighting scheme"):
            train_shap_backprop(kg, splits, TrainConfig(seed=5, **FAST))

    def test_trace_records_alpha_stats(self, small_splits):
        kg, splits = small_splits
        cfg = TrainConfig(seed=8, scheme=WeightScheme("linear_instance"), **FAST)
        artifacts = train_shap_backprop(kg, splits, cfg)
        assert len(artifacts.per_epoch) == cfg.epochs_det
        for entry in artifacts.per_epoch:
            assert entry["alpha_max"] >= entry["alpha_mean"] >= 1.0
            assert np.isfinite(entry["det_loss"])

    def test_unit_weights_reproduce_standard_bitwise(self, small_splits, monkeypatch):
        # with every region weight forced to 1 the weighted procedure must
        # retrace the standard procedure exactly: same detector stream,
        # same final classifier seed, same evaluation
        kg, splits = small_splits

        def unit_weights(shap_rows, kg_rows, v, predicted_parts, scheme, v_threshold=0.0):
            return [np.ones(len(parts)) for parts in predicted_parts]

        monkeypatch.setattr(training_module, "region_weights", unit_weights)
        cfg_sbp = TrainConfig(seed=9, scheme=WeightScheme("linear_instance"), **FAST)
        cfg_std = TrainConfig(seed=9, **FAST)
        weighted = train_shap_backprop(kg, splits, cfg_sbp)
        standard = train_standard(kg, splits, cfg_std)
        np.testing.assert_array_equal(weighted.detector.weights, standard.detector.weights)
        np.testing.assert_array_equal(weighted.detector.bias, standard.detector.bias)
        for pw, ps in zip(weighted.classifier.parameters(), standard.classifier.parameters()):
            np.testing.assert_array_equal(pw, ps)
        assert weighted.metrics == standard.metrics

    def test_non_finite_weighting_attributions_raise(self, small_splits, monkeypatch):
        # the weighting pass goes through shap_matrix, which looks the
        # estimator up by name and refuses what it returns here
        kg, splits = small_splits

        def nan_estimator(model, x, bg, num_coalition_samples, seeds):
            return np.full((x.shape[0], kg.num_object_classes, x.shape[1]), np.nan)

        monkeypatch.setattr(shapley_module, "kernel_shap_stack", nan_estimator)
        cfg = TrainConfig(seed=8, scheme=WeightScheme("linear_instance"), **FAST)
        with pytest.raises(NumericalError, match="kernel attributions are non-finite"):
            train_shap_backprop(kg, splits, cfg)

    def test_weighting_attributions_are_efficient_per_row(self, small_splits, monkeypatch):
        # each epoch scores the training split in one stacked call; every
        # row must be the one-row estimate and sum to f(x) - mean f(bg)
        kg, splits = small_splits
        calls = []

        def recording_stack(model, x, bg, num_coalition_samples, seeds):
            shap = kernel_shap_stack(model, x, bg, num_coalition_samples, seeds)
            calls.append((model, x, bg, seeds, shap))
            return shap

        monkeypatch.setattr(shapley_module, "kernel_shap_stack", recording_stack)
        # exact scoring keeps the evaluation's calls out of the record
        fast = {**FAST, "shap_mode": "exact"}
        cfg = TrainConfig(seed=11, scheme=WeightScheme("linear_bbox"), **fast)
        train_shap_backprop(kg, splits, cfg)
        monkeypatch.undo()  # the one-row calls below go through the stack too
        assert len(calls) == cfg.epochs_det
        for model, x, bg, seeds, shap in calls:
            assert shap.shape[0] == len(splits[0])
            span = model(x) - model(bg.vectors).mean(axis=0)
            assert np.max(np.abs(shap.sum(axis=2) - span)) <= 1e-9
            for row, seed, values in zip(x, seeds, shap):
                one_row = kernel_shap_matrix(model, row, bg, cfg.shap_samples, seed)
                np.testing.assert_array_equal(values, one_row)

    def test_deterministic(self, small_splits):
        kg, splits = small_splits
        cfg = TrainConfig(seed=10, scheme=WeightScheme("exp_bbox"), **FAST)
        a = train_shap_backprop(kg, splits, cfg)
        b = train_shap_backprop(kg, splits, cfg)
        assert a.metrics == b.metrics
        assert a.per_epoch == b.per_epoch


class TestEvaluate:
    def test_perfect_oracle_detector_maxes_metrics(self):
        # a detector whose weights recover the generating means classifies
        # every region correctly on clean data
        kg = monumai_kg()
        gen_cfg = GeneratorConfig(seed=19, noise_rate=0.0, separation=8.0)
        data = generate_dataset(kg, gen_cfg, 200)
        splits = split_dataset(data)
        cfg = TrainConfig(seed=11, epochs_det=8, epochs_clf=40, lr_det=0.5,
                          lr_clf=0.05, background_size=12, shap_mode="kernel",
                          shap_samples=64)
        artifacts = train_standard(kg, splits, cfg)
        assert artifacts.metrics["part_macro_accuracy"] >= 0.99
        assert artifacts.metrics["accuracy"] >= 0.95

    def test_empty_test_split_rejected(self, small_splits):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=12, **FAST))
        with pytest.raises(ValidationError, match="empty"):
            evaluate(artifacts, [], kg)

    def test_ged_per_instance_covers_test_split(self, small_splits):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=13, **FAST))
        assert set(artifacts.ged_per_instance) == {i.id for i in splits[2]}

    def test_evaluate_returns_the_scored_run(self, small_splits):
        kg, splits = small_splits
        trained = train_standard(kg, splits, TrainConfig(seed=13, **FAST))
        bare = dataclasses.replace(trained, metrics={}, ged_per_instance={})
        scored = evaluate(bare, splits[2], kg)
        assert scored.metrics == trained.metrics
        assert scored.ged_per_instance == trained.ged_per_instance
        assert bare.metrics == {} and bare.ged_per_instance == {}


def _regions(split):
    return sum(len(inst.regions) for inst in split)


class TestDetectionPasses:
    """Each pass over a split infers every one of its regions once, in one call."""

    def test_train_standard_detects_each_instance_once(self, small_splits, detect_calls):
        kg, splits = small_splits
        train_standard(kg, splits, TrainConfig(seed=15, **FAST))
        assert detect_calls == [_regions(splits[0]), _regions(splits[2])]

    def test_train_shap_backprop_detects_train_split_each_epoch(self, small_splits, detect_calls):
        kg, splits = small_splits
        cfg = TrainConfig(seed=15, scheme=WeightScheme("linear_instance"), **FAST)
        train_shap_backprop(kg, splits, cfg)
        assert detect_calls == [_regions(splits[0])] * cfg.epochs_det + [_regions(splits[2])]

    def test_evaluate_detects_each_test_instance_once(self, small_splits, detect_calls):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=15, **FAST))
        detect_calls.clear()
        evaluate(artifacts, splits[2], kg)
        assert detect_calls == [_regions(splits[2])]


class TestRefusedBeforeTraining:
    """A run that could not finish is refused before its first detector epoch."""

    def test_empty_test_split(self, detect_calls):
        kg = monumai_kg()
        splits = split_dataset(generate_dataset(kg, GeneratorConfig(seed=17), 1))
        assert len(splits[0]) == 1 and not splits[2]
        with pytest.raises(ValidationError, match="test split is empty"):
            train_standard(kg, splits, TrainConfig(seed=5, **FAST))
        assert len(detect_calls) == 0

    @pytest.mark.parametrize("shap_mode, scheme", [("kernel", None), ("exact", "linear_instance")])
    def test_too_few_coalition_samples(self, small_splits, detect_calls, shap_mode, scheme):
        # the weighting pass runs the kernel estimator whatever mode scores the run
        kg, splits = small_splits
        fast = {**FAST, "shap_mode": shap_mode, "shap_samples": 2 * kg.num_parts - 1}
        cfg = TrainConfig(seed=5, scheme=scheme and WeightScheme(scheme), **fast)
        runner = train_standard if scheme is None else train_shap_backprop
        with pytest.raises(ValidationError, match=f"2n = {2 * kg.num_parts} coalition samples"):
            runner(kg, splits, cfg)
        assert len(detect_calls) == 0

    def test_exact_mode_past_the_feature_limit(self, detect_calls):
        parts = tuple(f"p{j}" for j in range(17))
        typical = [(p, "X") for p in parts[:9]] + [(p, "Y") for p in parts[8:]]
        kg = KnowledgeGraph(("X", "Y"), parts, frozenset(typical))
        splits = split_dataset(generate_dataset(kg, GeneratorConfig(seed=17), 30))
        cfg = TrainConfig(seed=5, **{**FAST, "shap_mode": "exact"})
        with pytest.raises(ValidationError, match="at most 16 parts and the knowledge graph has 17"):
            train_standard(kg, splits, cfg)
        assert len(detect_calls) == 0


class TestConfigEcho:
    def test_round_trip(self):
        cfg = TrainConfig(
            seed=3,
            scheme=WeightScheme("exp_instance", h=2.0),
            epochs_det=4,
            epochs_clf=7,
            shap_mode="exact",
            aggregation="retina",
        )
        assert config_from_echo(config_echo(cfg)) == cfg

    def test_standard_mode_round_trip(self):
        cfg = TrainConfig(seed=4)
        echo = config_echo(cfg)
        assert echo["mode"] == "standard"
        assert config_from_echo(echo) == cfg

    @pytest.mark.parametrize(
        "echo",
        [
            {"seed": 1},
            [1],
            {**config_echo(TrainConfig(seed=0)), "seed": "x"},
            {**config_echo(TrainConfig(seed=0)), "seed": 1.5},
        ],
    )
    def test_malformed_echo_rejected(self, echo):
        with pytest.raises(ValidationError, match="malformed run configuration"):
            config_from_echo(echo)

    def test_report_structure(self, small_splits):
        kg, splits = small_splits
        artifacts = train_standard(kg, splits, TrainConfig(seed=14, **FAST))
        report = metrics_report(artifacts)
        assert set(report) == {"config", "metrics", "per_epoch"}
        assert len(report["per_epoch"]) == 3
