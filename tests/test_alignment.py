"""Attribution graphs, misattribution, loss weighting, and the alignment metric."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xnesyl.alignment import (
    DETECTION_THRESHOLD,
    SAG,
    WeightScheme,
    alpha_bbox,
    alpha_instance,
    build_sag,
    misattribution,
    region_weights,
    sag_to_dot,
    sag_to_json,
    shap_ged,
)
from xnesyl.errors import ValidationError
from xnesyl.kg import project


class TestBuildSag:
    def test_facade_fixture_edges(self, monumai, facade_fixture):
        sag = build_sag(
            monumai, facade_fixture["v"], facade_fixture["shap_values"], s=0.05
        )
        assert sag.edges == facade_fixture["expected_edges"]

    def test_all_zero_attributions_empty(self, monumai):
        sag = build_sag(
            monumai,
            np.ones(monumai.num_parts),
            np.zeros((monumai.num_object_classes, monumai.num_parts)),
        )
        assert sag.edges == frozenset()

    def test_all_detected_all_positive_is_complete(self, monumai):
        sag = build_sag(
            monumai,
            np.ones(monumai.num_parts),
            np.full((monumai.num_object_classes, monumai.num_parts), 0.1),
        )
        assert len(sag.edges) == monumai.num_object_classes * monumai.num_parts

    def test_edge_flips_only_at_thresholds(self, monumai):
        # perturbing a descriptor entry or an attribution without crossing
        # s or 0 never changes the graph
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0, 0.2, size=monumai.num_parts)
            shap_values = rng.normal(
                scale=0.1, size=(monumai.num_object_classes, monumai.num_parts)
            )
            base = build_sag(monumai, v, shap_values, s=0.05)
            v2 = v + np.where(v > 0.05, 0.01, -0.01 * np.minimum(v, 0.04))
            assert build_sag(monumai, v2, shap_values, s=0.05).edges == base.edges
            shap2 = shap_values * 1.5  # sign-preserving rescale
            assert build_sag(monumai, v, shap2, s=0.05).edges == base.edges


class TestMisattribution:
    def test_agreeing_sign_is_zero(self):
        assert misattribution(0.2, 1.0, 0.5) == 0.0

    def test_conflicting_sign_keeps_magnitude(self):
        assert misattribution(0.2, -1.0, 0.5) == pytest.approx(0.2)

    def test_absent_feature_always_zero(self):
        for shap_value in (-0.5, 0.0, 0.5):
            for kg_entry in (-1.0, 1.0):
                assert misattribution(shap_value, kg_entry, 0.0) == 0.0

    def test_sign_grid(self):
        # exhaustive over the sign grid: beta > 0 exactly when the signs
        # conflict and the feature is present
        for shap_value in (-0.5, 0.0, 0.5):
            for kg_entry in (-1.0, 1.0):
                for feature in (0.0, 0.5):
                    beta = misattribution(shap_value, kg_entry, feature)
                    conflict = shap_value * kg_entry < 0 and feature > 0
                    assert beta == (abs(shap_value) if conflict else 0.0)

    def test_vectorized(self):
        beta = misattribution(
            np.array([0.2, -0.3, 0.1]),
            np.array([-1.0, 1.0, 1.0]),
            np.array([1.0, 1.0, 0.0]),
        )
        np.testing.assert_allclose(beta, [0.2, 0.3, 0.0])

    def test_invalid_kg_entry_rejected(self):
        with pytest.raises(ValidationError, match="-1 or"):
            misattribution(0.1, 0.5, 1.0)


class TestAlpha:
    def test_zero_beta_gives_one_both_schemes(self):
        assert alpha_bbox(0.0, WeightScheme("linear_bbox")) == 1.0
        assert alpha_bbox(0.0, WeightScheme("exp_bbox")) == 1.0

    def test_linear_value(self):
        assert alpha_bbox(0.5, WeightScheme("linear_bbox", h=1.0)) == pytest.approx(1.5)

    def test_exponential_value(self):
        assert alpha_bbox(0.5, WeightScheme("exp_bbox", h=1.0)) == pytest.approx(
            math.exp(0.5)
        )

    @given(
        st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
        st.floats(0.0, 1.0),
        st.floats(0.1, 3.0),
        st.sampled_from(["linear_bbox", "exp_bbox"]),
    )
    def test_monotone_and_at_least_one(self, beta, bump, h, kind):
        # beta is either exactly 0 or large enough that 1 + h*beta is
        # representable above 1; below that, alpha rounds to 1 in floats
        scheme = WeightScheme(kind, h)
        alpha = alpha_bbox(beta, scheme)
        assert alpha >= 1.0
        assert alpha_bbox(beta + bump, scheme) >= alpha
        assert (alpha == 1.0) == (beta == 0.0)

    def test_instance_alpha_takes_max(self):
        scheme = WeightScheme("linear_instance", h=1.0)
        shap_row = np.array([0.0, 0.3, 0.1])
        kg_row = np.array([1.0, -1.0, -1.0])
        v = np.array([1.0, 1.0, 1.0])
        assert alpha_instance(shap_row, kg_row, v, scheme) == pytest.approx(1.3)

    def test_instance_alpha_all_agreeing(self):
        scheme = WeightScheme("exp_instance")
        shap_row = np.array([0.2, -0.4])
        kg_row = np.array([1.0, -1.0])
        v = np.array([1.0, 1.0])
        assert alpha_instance(shap_row, kg_row, v, scheme) == 1.0

    def test_invalid_scheme_kind(self):
        with pytest.raises(ValidationError, match="unknown weighting scheme"):
            WeightScheme("quadratic_bbox")

    def test_nonpositive_h(self):
        with pytest.raises(ValidationError, match="h"):
            WeightScheme("linear_bbox", h=0.0)


class TestRegionWeights:
    def test_all_agreeing_gives_unit_weights(self):
        scheme = WeightScheme("linear_bbox")
        shap_row = np.array([0.1, -0.2, 0.3])
        kg_row = np.array([1.0, -1.0, 1.0])
        v = np.array([0.5, 0.5, 0.5])
        weights = region_weights(
            shap_row[None], kg_row[None], v[None], np.array([0, 1, 2, 0]), np.array([4]), scheme
        )
        np.testing.assert_array_equal(weights, np.ones(4))

    def test_bbox_weights_follow_predicted_part(self):
        # one misattributed part (beta 0.4); only regions predicted as that
        # part carry the extra weight
        scheme = WeightScheme("linear_bbox", h=1.0)
        shap_row = np.array([0.1, 0.4, -0.2])
        kg_row = np.array([1.0, -1.0, -1.0])
        v = np.array([0.5, 0.5, 0.5])
        weights = region_weights(
            shap_row[None], kg_row[None], v[None], np.array([1, 0, 1]), np.array([3]), scheme
        )
        np.testing.assert_allclose(weights, [1.4, 1.0, 1.4])

    def test_instance_scheme_broadcasts(self):
        scheme = WeightScheme("linear_instance")
        shap_row = np.array([0.1, 0.4, -0.2])
        kg_row = np.array([1.0, -1.0, -1.0])
        v = np.array([0.5, 0.5, 0.5])
        weights = region_weights(
            shap_row[None], kg_row[None], v[None], np.array([0, 2, 2, 1]), np.array([4]), scheme
        )
        np.testing.assert_allclose(weights, [1.4, 1.4, 1.4, 1.4])

    @pytest.mark.parametrize("kind", ["linear_bbox", "exp_bbox", "linear_instance", "exp_instance"])
    @pytest.mark.parametrize("v_threshold", [0.0, 0.4])
    def test_stack_is_bitwise_per_instance(self, kind, v_threshold):
        # each instance's multipliers are those of its own alpha_bbox /
        # alpha_instance, whatever the other instances in the stack are
        scheme = WeightScheme(kind, h=1.7)
        rng = np.random.default_rng(3)
        count, n = 40, 14
        shap_rows = rng.normal(scale=0.3, size=(count, n))
        kg_rows = rng.choice([-1.0, 1.0], size=(count, n))
        v = rng.choice([0.0, 0.2, 0.7, 1.5], size=(count, n))
        predicted = [rng.integers(0, n, size=rng.integers(1, 9)) for _ in range(count)]
        counts = np.array([len(parts) for parts in predicted])
        stacked = region_weights(
            shap_rows, kg_rows, v, np.concatenate(predicted), counts, scheme, v_threshold
        )
        assert stacked.shape == (counts.sum(),)
        stops = np.cumsum(counts)
        for i, parts in enumerate(predicted):
            if scheme.instance_level:
                alpha = alpha_instance(shap_rows[i], kg_rows[i], v[i], scheme, v_threshold)
                expected = np.full(len(parts), alpha)
            else:
                beta = misattribution(shap_rows[i], kg_rows[i], v[i], v_threshold)
                expected = np.asarray(alpha_bbox(beta, scheme))[parts]
            np.testing.assert_array_equal(stacked[stops[i] - counts[i] : stops[i]], expected)
            alone = region_weights(
                shap_rows[i : i + 1], kg_rows[i : i + 1], v[i : i + 1], parts, counts[i : i + 1],
                scheme, v_threshold,
            )
            np.testing.assert_array_equal(alone, expected)


class TestShapGed:
    def test_projection_match_is_zero(self, monumai):
        edges = project(monumai, {"horseshoe arch", "lobed arch", "Hispanic-Muslim"})
        assert shap_ged(SAG(edges), monumai) == 0

    def test_facade_fixture_distance(self, monumai, facade_fixture):
        sag = build_sag(monumai, facade_fixture["v"], facade_fixture["shap_values"])
        assert shap_ged(sag, monumai) == 3

    def test_empty_sag_is_zero(self, monumai):
        assert shap_ged(SAG(frozenset()), monumai) == 0

    def test_unknown_node_rejected(self, monumai):
        with pytest.raises(ValidationError, match="minaret"):
            shap_ged(SAG(frozenset({("minaret", "Gothic")})), monumai)

    def test_zero_iff_equals_projection(self, monumai):
        rng = np.random.default_rng(1)
        all_pairs = [
            (p, o) for p in monumai.part_classes for o in monumai.object_classes
        ]
        for _ in range(40):
            chosen = rng.choice(len(all_pairs), size=rng.integers(1, 8), replace=False)
            sag = SAG(frozenset(all_pairs[i] for i in chosen))
            distance = shap_ged(sag, monumai)
            matches = sag.edges == project(monumai, set(sag.nodes))
            assert (distance == 0) == matches

    @given(st.data())
    def test_single_edge_toggle_changes_distance_by_one(self, monumai, data):
        all_pairs = [
            (p, o) for p in monumai.part_classes for o in monumai.object_classes
        ]
        subset = data.draw(st.sets(st.sampled_from(all_pairs), min_size=1))
        extra = data.draw(st.sampled_from(all_pairs))
        base_edges = frozenset(subset) - {extra}
        base_nodes = {n for e in base_edges for n in e}
        # adding an edge inside the existing node set moves the distance by
        # exactly one (the projection is unchanged)
        if base_edges and extra[0] in base_nodes and extra[1] in base_nodes:
            before = shap_ged(SAG(base_edges), monumai)
            after = shap_ged(SAG(base_edges | {extra}), monumai)
            assert abs(after - before) == 1


class TestMeanShapGed:
    def test_indifferent_model_scores_zero(self, monumai):
        # a constant classifier attributes nothing, so every attribution
        # graph is empty and the mean distance is exactly 0
        from xnesyl.classifier import MLPClassifier
        from xnesyl.datagen import GeneratorConfig, generate_dataset
        from xnesyl.detector import PartDetector, aggregate, detect
        from xnesyl.shapley import BackgroundSet
        from xnesyl.alignment import mean_shap_ged

        kg = monumai
        instances = generate_dataset(kg, GeneratorConfig(seed=31), 12)
        det = PartDetector.create(kg, 8)
        x = np.stack([aggregate(detect(det, inst), "frcnn") for inst in instances])
        ids = [inst.id for inst in instances]
        clf = MLPClassifier.create(kg, seed=0)
        clf.w1[:] = 0.0
        clf.w2[:] = 0.0
        bg = BackgroundSet(np.ones((4, kg.num_parts)))
        mean, per_instance = mean_shap_ged(
            clf, x, ids, kg, bg, DETECTION_THRESHOLD, "exact", 64, 0
        )
        assert mean == 0.0
        assert set(per_instance.values()) == {0}

    @pytest.mark.parametrize("mode", ["exact", "kernel"])
    def test_one_stack_call_agrees_with_explain(self, monumai, monkeypatch, mode):
        # scoring passes the split as one stack; explain scores one instance
        # at its index, and must reproduce the distance scoring recorded
        from xnesyl import alignment
        from xnesyl.classifier import MLPClassifier
        from xnesyl.datagen import GeneratorConfig, generate_dataset
        from xnesyl.detector import PartDetector, aggregate, detect
        from xnesyl.shapley import BackgroundSet

        kg = monumai
        instances = generate_dataset(kg, GeneratorConfig(seed=5), 10)
        det = PartDetector.create(kg, 8)
        x = np.stack([aggregate(detect(det, inst), "frcnn") for inst in instances])
        ids = [inst.id for inst in instances]
        clf = MLPClassifier.create(kg, seed=2)
        bg = BackgroundSet.sample(x, 6, seed=1)
        calls = []
        shap_matrix = alignment.shap_matrix

        def counted(model, descriptors, *args, **kwargs):
            calls.append(np.shape(descriptors))
            return shap_matrix(model, descriptors, *args, **kwargs)

        monkeypatch.setattr(alignment, "shap_matrix", counted)
        mean, per_instance = alignment.mean_shap_ged(
            clf, x, ids, kg, bg, DETECTION_THRESHOLD, mode, 64, 11
        )
        assert calls == [x.shape]
        assert any(per_instance.values())
        for index, (inst_id, v) in enumerate(zip(ids, x)):
            _, sag = alignment.instance_attribution(
                clf, v, index, kg, bg, DETECTION_THRESHOLD, mode, 64, 11
            )
            assert per_instance[inst_id] == shap_ged(sag, kg)
        assert mean == np.mean(list(per_instance.values()))

    def test_empty_split_rejected(self, monumai):
        from xnesyl.classifier import MLPClassifier
        from xnesyl.shapley import BackgroundSet
        from xnesyl.alignment import mean_shap_ged

        with pytest.raises(ValidationError, match="empty"):
            mean_shap_ged(
                MLPClassifier.create(monumai, seed=0),
                np.zeros((0, monumai.num_parts)),
                [],
                monumai,
                BackgroundSet(np.ones((2, monumai.num_parts))),
                DETECTION_THRESHOLD,
                "kernel",
                512,
                0,
            )


class TestExports:
    def test_dot_contains_typed_nodes_and_edges(self, monumai, facade_fixture):
        sag = build_sag(monumai, facade_fixture["v"], facade_fixture["shap_values"])
        dot = sag_to_dot(sag, monumai)
        assert dot.startswith("digraph")
        assert '"trefoil arch" [shape=ellipse];' in dot
        assert '"Renaissance" [shape=box];' in dot
        parsed = set(re.findall(r'"([^"]+)" -> "([^"]+)";', dot))
        assert parsed == set(sag.edges)

    def test_json_edge_list_round_trip(self, monumai, facade_fixture):
        import json

        sag = build_sag(monumai, facade_fixture["v"], facade_fixture["shap_values"])
        doc = json.loads(sag_to_json(sag))
        assert frozenset(tuple(e) for e in doc["edges"]) == sag.edges
