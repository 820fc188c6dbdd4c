"""Part detector: probabilities, aggregation rules, weighted loss, training."""

import numpy as np
import pytest

from xnesyl.datagen import GeneratorConfig, Region, SceneInstance, generate_dataset, split_dataset
from xnesyl.detector import (
    AGGREGATIONS,
    BATCH_SIZE,
    DetectionSet,
    PackedSplit,
    PartDetector,
    aggregate,
    aggregate_frcnn,
    aggregate_retina,
    detect,
    load_detector,
    save_detector,
    train_detector_epoch,
    weighted_roi_loss,
)
from xnesyl.errors import NumericalError, ValidationError
from xnesyl.training import descriptors


def random_detector(kg, dim, seed):
    rng = np.random.default_rng(seed)
    det = PartDetector.create(kg, dim)
    det.weights = rng.normal(size=det.weights.shape)
    det.bias = rng.normal(size=det.bias.shape)
    return det


def make_instance(kg, parts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    regions = tuple(Region(p, rng.normal(size=dim)) for p in parts)
    return SceneInstance("i0", kg.object_classes[0], regions)


def reference_roi_loss(det, inst, weights):
    """One instance's weighted loss and gradient, computed on that instance alone."""
    features = np.stack([r.features for r in inst.regions])
    labels = np.array([det.part_classes.index(r.gt_part_class) for r in inst.regions])
    m = features.shape[0]
    weights = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    logits = features @ det.weights.T + det.bias
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = float(-(weights * logp[np.arange(m), labels]).sum())
    dlogits = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits *= weights[:, None]
    return loss, dlogits.T @ features, dlogits.sum(axis=0)


def reference_descriptor(det, inst, mode):
    """One instance's descriptor and predicted parts, detected and summed on that instance alone."""
    features = np.stack([r.features for r in inst.regions])
    logits = features @ det.weights.T + det.bias
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    rows, best = np.arange(len(probs)), np.argmax(probs, axis=1)
    if mode == "frcnn":
        kept = np.zeros_like(probs)
        kept[rows, best] = probs[rows, best]
        probs = kept
    return probs.sum(axis=0), best


def reference_epoch(det, dataset, region_weights, rng, learning_rate):
    """The epoch as an instance-by-instance loop over the shuffled batches."""
    weights = [None] * len(dataset) if region_weights is None else region_weights
    order = rng.permutation(len(dataset))
    updated = det.copy()
    total_loss, total_regions = 0.0, 0
    for start in range(0, len(dataset), BATCH_SIZE):
        grad_w, grad_b = np.zeros_like(updated.weights), np.zeros_like(updated.bias)
        batch_regions = 0
        for i in order[start : start + BATCH_SIZE]:
            loss, gw, gb = reference_roi_loss(updated, dataset[i], weights[i])
            grad_w += gw
            grad_b += gb
            total_loss += loss
            batch_regions += len(dataset[i].regions)
        scale = learning_rate / batch_regions
        updated.weights -= scale * grad_w
        updated.bias -= scale * grad_b
        total_regions += batch_regions
    return updated, total_loss / total_regions


class TestDetect:
    def test_zero_weights_give_uniform(self, monumai):
        det = PartDetector.create(monumai, 8)
        inst = make_instance(monumai, ["pointed arch", "serliana"], dim=8)
        ds = detect(det, inst)
        np.testing.assert_allclose(ds.probabilities, 1.0 / monumai.num_parts)

    def test_one_vector_per_region(self, monumai):
        det = random_detector(monumai, 4, seed=1)
        inst = make_instance(monumai, ["porthole", "porthole", "serliana"])
        ds = detect(det, inst)
        assert ds.probabilities.shape[0] == 3
        assert ds.probabilities.shape == (3, monumai.num_parts)

    def test_rows_are_probability_vectors(self, monumai):
        det = random_detector(monumai, 4, seed=2)
        inst = make_instance(monumai, ["porthole"] * 5, seed=3)
        p = detect(det, inst).probabilities
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self, monumai):
        det = PartDetector.create(monumai, 8)
        inst = make_instance(monumai, ["porthole"], dim=5)
        with pytest.raises(ValidationError, match="dim 5"):
            detect(det, inst)

    def test_trained_detector_region_accuracy(self, monumai):
        cfg = GeneratorConfig(seed=21, feature_dim=8, noise_rate=0.0, separation=6.0)
        data = generate_dataset(monumai, cfg, 400)
        train, _, test = split_dataset(data)
        det = PartDetector.create(monumai, 8)
        train = PackedSplit.pack(train, det.part_classes)
        for epoch in range(1, 9):
            det, _ = train_detector_epoch(
                det, train, None, rng=np.random.default_rng(epoch), learning_rate=0.5
            )
        correct = total = 0
        for inst in test:
            predicted = detect(det, inst).predicted_parts()
            for region, pred in zip(inst.regions, predicted):
                correct += pred == monumai.part_index(region.gt_part_class)
                total += 1
        assert correct / total >= 0.95


class TestDetectSplit:
    """A split's one detection pass against an instance-by-instance reference, bit for bit."""

    # 1:1 is all one-region rows; 8:24 and 1:40 sum many rows per instance
    @pytest.mark.parametrize("regions", [(1, 1), (1, 3), (2, 6), (8, 24), (1, 40)])
    @pytest.mark.parametrize("count", [1, BATCH_SIZE, BATCH_SIZE + 1, 60])
    @pytest.mark.parametrize("mode", AGGREGATIONS)
    def test_bitwise_equal_to_instance_loop(self, monumai, regions, count, mode):
        cfg = GeneratorConfig(
            seed=count + regions[1], regions_per_instance=regions, noise_rate=0.2, separation=2.0
        )
        data = generate_dataset(monumai, cfg, count)
        if count > 2:  # a one-region instance between multi-region ones
            middle = data[count // 2]
            data[count // 2] = SceneInstance(middle.id, middle.gt_object_class, middle.regions[:1])
        det = random_detector(monumai, cfg.feature_dim, seed=count)
        x, y, predicted = descriptors(det, PackedSplit.pack(data, det.part_classes), monumai, mode)
        expected = [reference_descriptor(det, inst, mode) for inst in data]
        np.testing.assert_array_equal(x, np.stack([v for v, _ in expected]))
        np.testing.assert_array_equal(predicted, np.concatenate([best for _, best in expected]))
        assert y.tolist() == [monumai.object_index(inst.gt_object_class) for inst in data]
        for inst, (v, best) in zip(data, expected):
            ds = detect(det, inst)
            np.testing.assert_array_equal(aggregate(ds, mode), v)
            np.testing.assert_array_equal(ds.predicted_parts(), best)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_non_finite_detector_message(self, monumai, value):
        data = generate_dataset(monumai, GeneratorConfig(seed=3), 40)
        det = random_detector(monumai, GeneratorConfig.feature_dim, seed=3)
        det.weights[2, 1] = value
        det.weights[5] = value
        packed = PackedSplit.pack(data, det.part_classes)
        for mode in AGGREGATIONS:
            with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^part detector probabilities are non-finite$"
            ):
                descriptors(det, packed, monumai, mode)

    def test_feature_dim_message(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=4, feature_dim=5), 10)
        det = random_detector(monumai, 8, seed=4)
        with pytest.raises(ValidationError, match="^features have dim 5, detector expects 8$"):
            descriptors(det, PackedSplit.pack(data, det.part_classes), monumai, "frcnn")

    def test_unknown_aggregation_message(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=5), 3)
        det = random_detector(monumai, GeneratorConfig.feature_dim, seed=5)
        with pytest.raises(ValidationError, match="unknown aggregation mode 'mean'"):
            descriptors(det, PackedSplit.pack(data, det.part_classes), monumai, "mean")


class TestAggregation:
    def test_frcnn_two_regions_same_argmax(self):
        ds = DetectionSet(np.array([[0.6, 0.3, 0.1], [0.7, 0.2, 0.1]]))
        v = aggregate_frcnn(ds)
        np.testing.assert_allclose(v, [1.3, 0.0, 0.0])

    def test_frcnn_zeroes_non_max(self):
        ds = DetectionSet(np.array([[0.5, 0.3, 0.2]]))
        np.testing.assert_allclose(aggregate_frcnn(ds), [0.5, 0.0, 0.0])

    def test_one_hot_identity(self):
        ds = DetectionSet(np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(aggregate_frcnn(ds), [0.0, 1.0, 0.0])

    def test_retina_keeps_full_vector(self):
        ds = DetectionSet(np.array([[0.5, 0.3, 0.2]]))
        np.testing.assert_allclose(aggregate_retina(ds), [0.5, 0.3, 0.2])

    def test_retina_mass_equals_region_count(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = rng.integers(1, 7)
            p = rng.dirichlet(np.ones(6), size=m)
            v = aggregate_retina(DetectionSet(p))
            assert v.sum() == pytest.approx(m, abs=1e-9)

    def test_frcnn_mass_at_most_region_count(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(6), size=m)
            assert aggregate_frcnn(DetectionSet(p)).sum() <= m + 1e-9

    def test_modes_coincide_on_one_hot(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 8))
            p = np.zeros((m, n))
            p[np.arange(m), rng.integers(0, n, size=m)] = 1.0
            ds = DetectionSet(p)
            np.testing.assert_array_equal(
                aggregate_frcnn(ds), aggregate_retina(ds)
            )

    def test_empty_detection_set_flagged(self):
        ds = DetectionSet(np.zeros((0, 5)))
        for agg in (aggregate_frcnn, aggregate_retina):
            np.testing.assert_array_equal(agg(ds), np.zeros(5))

    def test_rows_must_be_probability_vectors(self):
        with pytest.raises(ValidationError, match="probability"):
            DetectionSet(np.array([[0.5, 0.2, 0.2]]))
        with pytest.raises(ValidationError, match="probability"):
            DetectionSet(np.array([[1.2, -0.2, 0.0]]))

    @pytest.mark.parametrize(
        "row, accepted",
        [
            ([np.nan, 0.5, 0.5], False),
            ([np.inf, 0.0, 0.0], False),
            ([-np.inf, 0.5, 0.5], False),
            ([0.6, -1e-12, 0.4], False),
            ([0.5, 0.5 + 2e-9, 0.0], False),
            ([0.5, 0.5 - 2e-9, 0.0], False),
            ([0.5, 0.5 + 5e-10, 0.0], True),
            ([0.5, 0.5 - 5e-10, 0.0], True),
        ],
    )
    def test_row_sum_tolerance(self, row, accepted):
        probs = np.array([[0.2, 0.3, 0.5], row])
        # the same verdict as the check written with np.allclose
        assert accepted == (
            np.all(probs >= 0) and np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        )
        if accepted:
            np.testing.assert_array_equal(DetectionSet(probs).probabilities, probs)
        else:
            with pytest.raises(ValidationError, match="probability"):
                DetectionSet(probs)


class TestWeightedLoss:
    def test_unit_weights_match_unweighted(self, monumai):
        det = random_detector(monumai, 4, seed=8)
        inst = make_instance(monumai, ["porthole", "serliana", "flat arch"], seed=9)
        unweighted, _ = weighted_roi_loss(det, inst)
        weighted, _ = weighted_roi_loss(det, inst, np.ones(3))
        assert weighted == unweighted

    def test_doubling_one_weight_adds_that_region_loss(self, monumai):
        det = random_detector(monumai, 4, seed=10)
        inst = make_instance(monumai, ["porthole", "serliana"], seed=11)
        base, _ = weighted_roi_loss(det, inst, np.array([1.0, 1.0]))
        boosted, _ = weighted_roi_loss(det, inst, np.array([2.0, 1.0]))
        single, _ = weighted_roi_loss(
            det,
            SceneInstance(inst.id, inst.gt_object_class, inst.regions[:1]),
            np.array([1.0]),
        )
        assert boosted - base == pytest.approx(single, rel=1e-12)

    def test_negative_weight_rejected(self, monumai):
        det = random_detector(monumai, 4, seed=12)
        inst = make_instance(monumai, ["porthole"], seed=12)
        with pytest.raises(ValidationError, match="non-negative"):
            weighted_roi_loss(det, inst, np.array([-0.1]))

    def test_gradient_matches_finite_differences(self, monumai):
        # central differences along random directions, step 1e-5
        rng = np.random.default_rng(13)
        for probe in range(10):
            det = random_detector(monumai, 4, seed=100 + probe)
            inst = make_instance(
                monumai, ["porthole", "flat arch", "serliana"], seed=200 + probe
            )
            weights = rng.uniform(1.0, 2.0, size=3)
            _, (grad_w, grad_b) = weighted_roi_loss(det, inst, weights)
            direction_w = rng.normal(size=grad_w.shape)
            direction_b = rng.normal(size=grad_b.shape)
            analytic = float(
                (grad_w * direction_w).sum() + (grad_b * direction_b).sum()
            )
            h = 1e-5
            plus = det.copy()
            plus.weights = det.weights + h * direction_w
            plus.bias = det.bias + h * direction_b
            minus = det.copy()
            minus.weights = det.weights - h * direction_w
            minus.bias = det.bias - h * direction_b
            numeric = (
                weighted_roi_loss(plus, inst, weights)[0]
                - weighted_roi_loss(minus, inst, weights)[0]
            ) / (2 * h)
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric)) <= 1e-4


class TestTrainEpoch:
    def test_loss_decreases_on_separable_data(self, monumai):
        cfg = GeneratorConfig(seed=30, noise_rate=0.0, separation=6.0)
        data = PackedSplit.pack(generate_dataset(monumai, cfg, 150), monumai.part_classes)
        det = PartDetector.create(monumai, cfg.feature_dim)
        losses = []
        for epoch in range(4):
            det, loss = train_detector_epoch(
                det, data, None, rng=np.random.default_rng(epoch), learning_rate=0.5
            )
            losses.append(loss)
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < losses[0]

    def test_unit_weight_dict_matches_default(self, monumai):
        cfg = GeneratorConfig(seed=31, noise_rate=0.2)
        data = generate_dataset(monumai, cfg, 60)
        det = PartDetector.create(monumai, cfg.feature_dim)
        ones = [np.ones(len(inst.regions)) for inst in data]
        data = PackedSplit.pack(data, det.part_classes)
        det_a, loss_a = train_detector_epoch(
            det, data, None, rng=np.random.default_rng(0), learning_rate=0.5
        )
        det_b, loss_b = train_detector_epoch(
            det, data, ones, rng=np.random.default_rng(0), learning_rate=0.5
        )
        assert loss_a == loss_b
        np.testing.assert_array_equal(det_a.weights, det_b.weights)
        np.testing.assert_array_equal(det_a.bias, det_b.bias)

    def test_empty_dataset_rejected(self, monumai):
        det = PartDetector.create(monumai, 4)
        with pytest.raises(ValidationError, match="empty"):
            train_detector_epoch(
                det, PackedSplit.pack([], det.part_classes), None,
                rng=np.random.default_rng(0), learning_rate=0.5,
            )

    def test_split_packed_against_other_part_classes_rejected(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=36), 5)
        det = PartDetector.create(monumai, GeneratorConfig.feature_dim)
        data = PackedSplit.pack(data, det.part_classes[::-1])
        with pytest.raises(ValidationError, match="other part classes than the detector"):
            train_detector_epoch(det, data, None, rng=np.random.default_rng(0), learning_rate=0.5)

    def test_misaligned_weight_list_rejected(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=32), 5)
        det = PartDetector.create(monumai, GeneratorConfig.feature_dim)
        ones = [np.ones(len(inst.regions)) for inst in data[:-1]]
        data = PackedSplit.pack(data, det.part_classes)
        with pytest.raises(ValidationError, match="4 weight arrays for 5 instances"):
            train_detector_epoch(det, data, ones, rng=np.random.default_rng(0), learning_rate=0.5)

    # 1:1 is all one-region rows; 8:24 and 1:40 take numpy's pairwise sums
    @pytest.mark.parametrize("regions", [(1, 1), (1, 3), (2, 6), (8, 24), (1, 40)])
    @pytest.mark.parametrize("count", [1, BATCH_SIZE, BATCH_SIZE + 1])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_equal_to_instance_loop(self, monumai, regions, count, weighted):
        cfg = GeneratorConfig(
            seed=count + regions[1], regions_per_instance=regions, noise_rate=0.2, separation=2.0
        )
        data = generate_dataset(monumai, cfg, count)
        det = random_detector(monumai, cfg.feature_dim, seed=count)
        expected = det.copy()
        draw = np.random.default_rng(regions[1])
        weights = None
        packed = PackedSplit.pack(data, det.part_classes)
        for epoch in range(3):
            det, loss = train_detector_epoch(
                det, packed, weights, rng=np.random.default_rng(epoch), learning_rate=0.5
            )
            expected, expected_loss = reference_epoch(
                expected, data, weights, rng=np.random.default_rng(epoch), learning_rate=0.5
            )
            assert loss == expected_loss
            np.testing.assert_array_equal(det.weights, expected.weights)
            np.testing.assert_array_equal(det.bias, expected.bias)
            for inst, w in zip(data, weights or [None] * count):
                got, (gw, gb) = weighted_roi_loss(det, inst, w)
                want, want_w, want_b = reference_roi_loss(det, inst, w)
                assert got == want
                np.testing.assert_array_equal(gw, want_w)
                np.testing.assert_array_equal(gb, want_b)
            if weighted:  # about a third of the multipliers are zero
                weights = [
                    draw.uniform(0.5, 3.0, len(inst.regions))
                    * (draw.random(len(inst.regions)) > 0.3)
                    for inst in data
                ]

    def _reject(self, monumai, data, weights, match):
        det = PartDetector.create(monumai, GeneratorConfig.feature_dim)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=match):
            packed = PackedSplit.pack(data, det.part_classes)
            train_detector_epoch(det, packed, weights, rng=rng, learning_rate=0.5)
        # nothing was drawn, so no batch was formed
        assert rng.bit_generator.state == state

    def test_wrong_weight_length_names_instance(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=33), 40)
        weights = [np.ones(len(inst.regions)) for inst in data]
        m = len(data[37].regions)
        weights[37] = np.ones(m - 1)
        match = f"instance '{data[37].id}' has {m} regions but {m - 1} weights"
        self._reject(monumai, data, weights, match)

    def test_negative_weight_names_instance(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=34), 40)
        weights = [np.ones(len(inst.regions)) for inst in data]
        weights[35][-1] = -0.5
        self._reject(monumai, data, weights, f"instance '{data[35].id}'.*non-negative")

    def test_unknown_part_label_names_instance(self, monumai):
        data = generate_dataset(monumai, GeneratorConfig(seed=35), 40)
        bad = data[38]
        data[38] = SceneInstance(
            bad.id, bad.gt_object_class, bad.regions + (Region("gargoyle", np.zeros(8)),)
        )
        match = f"instance '{bad.id}' has part label unknown to the detector: 'gargoyle'"
        self._reject(monumai, data, None, match)

    def test_checkpoint_round_trip(self, monumai, tmp_path):
        det = random_detector(monumai, 6, seed=40)
        path = tmp_path / "detector.json"
        save_detector(det, path)
        back = load_detector(path)
        assert back.part_classes == det.part_classes
        np.testing.assert_array_equal(back.weights, det.weights)
        np.testing.assert_array_equal(back.bias, det.bias)
