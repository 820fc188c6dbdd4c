"""Synthetic dataset generation, serialization, and split determinism."""

import json

import numpy as np
import pytest

from xnesyl.datagen import (
    GeneratorConfig,
    generate_dataset,
    locate_instance,
    part_means,
    read_dataset,
    read_test_split,
    split_dataset,
    write_dataset,
)
from xnesyl.errors import ValidationError
from xnesyl.kg import KnowledgeGraph


def atypical_fraction(kg, instances):
    atypical = total = 0
    for inst in instances:
        for region in inst.regions:
            total += 1
            atypical += (region.gt_part_class, inst.gt_object_class) not in kg.typical_of
    return atypical / total


class TestGenerate:
    def test_noise_free_regions_all_typical(self, monumai):
        cfg = GeneratorConfig(seed=3, noise_rate=0.0)
        for inst in generate_dataset(monumai, cfg, 100):
            for region in inst.regions:
                assert (region.gt_part_class, inst.gt_object_class) in monumai.typical_of

    def test_deterministic(self, monumai):
        cfg = GeneratorConfig(seed=11, noise_rate=0.3)
        a = generate_dataset(monumai, cfg, 50)
        b = generate_dataset(monumai, cfg, 50)
        assert [i.id for i in a] == [i.id for i in b]
        for x, y in zip(a, b):
            assert x.gt_object_class == y.gt_object_class
            for rx, ry in zip(x.regions, y.regions):
                assert rx.gt_part_class == ry.gt_part_class
                np.testing.assert_array_equal(rx.features, ry.features)

    def test_atypical_fraction_near_noise_rate(self, monumai):
        cfg = GeneratorConfig(
            seed=7, feature_dim=8, regions_per_instance=(2, 6),
            noise_rate=0.2, separation=6.0,
        )
        instances = generate_dataset(monumai, cfg, 600)
        assert len(instances) == 600
        assert atypical_fraction(monumai, instances) == pytest.approx(0.2, abs=0.05)

    def test_class_balance(self, monumai):
        cfg = GeneratorConfig(seed=5)
        instances = generate_dataset(monumai, cfg, 100 * monumai.num_object_classes)
        counts = {c: 0 for c in monumai.object_classes}
        for inst in instances:
            counts[inst.gt_object_class] += 1
        expected = len(instances) / monumai.num_object_classes
        for count in counts.values():
            assert abs(count - expected) <= 0.2 * expected

    def test_unique_part_guarantee_on_clean_data(self, monumai):
        cfg = GeneratorConfig(seed=9, noise_rate=0.0)
        for inst in generate_dataset(monumai, cfg, 300):
            unique = set(monumai.unique_parts(inst.gt_object_class))
            assert any(r.gt_part_class in unique for r in inst.regions)

    def test_class_without_typical_parts_rejected(self):
        kg = KnowledgeGraph(("X", "Y"), ("a",), frozenset([("a", "X")]))
        with pytest.raises(ValidationError, match="'Y'"):
            generate_dataset(kg, GeneratorConfig(seed=0, noise_rate=0.0), 10)

    @pytest.mark.parametrize("separation", [0.0, -1.0, float("nan"), float("inf")])
    def test_separation_must_be_finite_and_positive(self, separation):
        # built directly: a nan or inf separation used to pass validation and
        # then loop forever in part_means
        with pytest.raises(ValidationError, match="separation"):
            GeneratorConfig(seed=0, separation=separation)

    def test_nearest_mean_oracle_separable(self, monumai):
        # With unit-variance features and means >= 6 apart the nearest-mean
        # rule should make essentially no region mistakes.
        cfg = GeneratorConfig(seed=13, noise_rate=0.0, separation=6.0)
        means = part_means(monumai, cfg)
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        off_diag = dists[~np.eye(len(means), dtype=bool)]
        assert off_diag.min() >= cfg.separation
        instances = generate_dataset(monumai, cfg, 400)
        correct = total = 0
        for inst in instances:
            for region in inst.regions:
                predicted = int(
                    np.argmin(np.linalg.norm(means - region.features, axis=1))
                )
                correct += predicted == monumai.part_index(region.gt_part_class)
                total += 1
        assert correct / total >= 0.99


class TestRoundTrip:
    def test_empty_dataset(self, monumai, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], path)
        assert read_dataset(path, monumai) == []

    def test_single_instance(self, monumai, tmp_path):
        cfg = GeneratorConfig(seed=1, regions_per_instance=(1, 1))
        instances = generate_dataset(monumai, cfg, 1)
        path = tmp_path / "one.jsonl"
        write_dataset(instances, path)
        assert path.read_text().count("\n") == 1
        back = read_dataset(path, monumai)
        assert back == instances

    def test_full_round_trip_identity(self, monumai, tmp_path):
        cfg = GeneratorConfig(seed=2, noise_rate=0.4)
        instances = generate_dataset(monumai, cfg, 40)
        path = tmp_path / "data.jsonl"
        write_dataset(instances, path)
        assert read_dataset(path, monumai) == instances

    def test_unknown_label_reports_line(self, monumai, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = (
            '{"id": "i0", "object_class": "Gothic", '
            '"regions": [{"part_class": "pointed arch", "features": [0.0, 1.0]}]}'
        )
        bad = (
            '{"id": "i1", "object_class": "Gothic", '
            '"regions": [{"part_class": "flying buttress", "features": [0.0, 1.0]}]}'
        )
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"2: unknown part class 'flying buttress'"):
            read_dataset(path, monumai)

    def test_malformed_line_reports_line(self, monumai, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "i0"\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="1: malformed JSON"):
            read_dataset(path, monumai)

    def test_non_numeric_features_report_line(self, monumai, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "i0", "object_class": "Gothic", '
            '"regions": [{"part_class": "pointed arch", "features": ["a", 1.0]}]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="bad.jsonl:1: missing or malformed field"):
            read_dataset(path, monumai)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_line_reports_line(self, monumai, tmp_path, newline):
        path = tmp_path / "bad.jsonl"
        lines = [
            f'{{"id": "i{i}", "object_class": "Gothic", '
            '"regions": [{"part_class": "pointed arch", "features": [0.0, 1.0]}]}'
            for i in range(2)
        ]
        text = newline.join(lines) + newline
        path.write_bytes(text.encode("utf-8") + b'{"id": "\xff"}\n')
        with pytest.raises(ValidationError, match="bad.jsonl:3: not UTF-8 text"):
            read_dataset(path, monumai)


class TestSplit:
    def test_exact_proportions(self, monumai):
        instances = generate_dataset(monumai, GeneratorConfig(seed=4), 1000)
        train, val, test = split_dataset(instances)
        assert (len(train), len(val), len(test)) == (600, 200, 200)

    def test_split_is_stable_under_input_order(self, monumai):
        instances = generate_dataset(monumai, GeneratorConfig(seed=4), 200)
        train_a, _, _ = split_dataset(instances)
        train_b, _, _ = split_dataset(list(reversed(instances)))
        assert [i.id for i in train_a] == [i.id for i in train_b]

    def test_partition(self, monumai):
        instances = generate_dataset(monumai, GeneratorConfig(seed=4), 97)
        train, val, test = split_dataset(instances)
        ids = [i.id for i in train] + [i.id for i in val] + [i.id for i in test]
        assert sorted(ids) == sorted(i.id for i in instances)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 10, 61])
    def test_splits_are_disjoint_and_cover(self, monumai, count):
        instances = generate_dataset(monumai, GeneratorConfig(seed=count), count)
        splits = [[i.id for i in split] for split in split_dataset(instances)]
        for ids in splits:
            assert len(set(ids)) == len(ids)
        train, val, test = map(set, splits)
        assert not (train & val or train & test or val & test)
        assert train | val | test == {i.id for i in instances}


def _write_generated(kg, tmp_path, count):
    instances = generate_dataset(kg, GeneratorConfig(seed=count, regions_per_instance=(1, 2)), count)
    path = tmp_path / f"data-{count}.jsonl"
    write_dataset(instances, path)
    return path


class TestLocateInstance:
    # 60/20/20 cuts never land on .5; these sizes take every n mod 5, so
    # each cut rounds both up and down, and include one- and two-line files
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 8, 11, 14, 37, 60])
    def test_agrees_with_split(self, monumai, tmp_path, count):
        path = _write_generated(monumai, tmp_path, count)
        splits = split_dataset(read_dataset(path, monumai))
        for split in splits:
            for index, inst in enumerate(split):
                assert locate_instance(path, monumai, inst.id, 8) == (index, inst)

    def test_unknown_id_is_none(self, monumai, tmp_path):
        path = _write_generated(monumai, tmp_path, 5)
        assert locate_instance(path, monumai, "inst-999999", 8) is None

    def test_reads_other_lines_only_for_their_ids(self, monumai, tmp_path):
        path = _write_generated(monumai, tmp_path, 6)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"id": "inst-000001", "regions": "not a list"}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="data-6.jsonl:2: missing or malformed field"):
            read_dataset(path, monumai)
        assert locate_instance(path, monumai, "inst-000000", 8)[1].id == "inst-000000"
        with pytest.raises(ValidationError, match="data-6.jsonl:2: missing or malformed field"):
            locate_instance(path, monumai, "inst-000001", 8)


class TestReadTestSplit:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 8, 11, 14, 37, 60])
    def test_agrees_with_split(self, monumai, tmp_path, count):
        path = _write_generated(monumai, tmp_path, count)
        assert read_test_split(path, monumai, 8) == split_dataset(read_dataset(path, monumai))[2]

    @staticmethod
    def _lines_by_split(path, kg):
        """The dataset's documents, and the indices of its test and other lines."""
        docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        test_ids = {inst.id for inst in read_test_split(path, kg, 8)}
        test = [i for i, doc in enumerate(docs) if doc["id"] in test_ids]
        return docs, test, [i for i in range(len(docs)) if i not in test]

    def test_reads_other_lines_only_for_their_ids(self, monumai, tmp_path):
        path = _write_generated(monumai, tmp_path, 6)
        clean = read_test_split(path, monumai, 8)
        docs, _, others = self._lines_by_split(path, monumai)
        docs[others[0]]["regions"] = "not a list"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        with pytest.raises(ValidationError, match=f":{others[0] + 1}: missing or malformed"):
            read_dataset(path, monumai)
        assert read_test_split(path, monumai, 8) == clean

    def test_test_lines_share_one_feature_dimension(self, monumai, tmp_path):
        path = _write_generated(monumai, tmp_path, 14)
        docs, test, _ = self._lines_by_split(path, monumai)
        for region in docs[test[1]]["regions"]:
            region["features"].append(0.5)
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read_test_split(path, monumai, 8)
        assert str(err.value) == f"{path}:{test[1] + 1}: features have dim 9, detector expects 8"


class TestReadersAgainstDetectorWidth:
    def test_names_the_first_wrong_line_in_file_order(self, monumai, tmp_path):
        path = _write_generated(monumai, tmp_path, 14)
        ids = [inst.id for inst in read_dataset(path, monumai)]
        test_lines = [ids.index(inst.id) + 1 for inst in read_test_split(path, monumai, 8)]
        # the split is in hash-rank order, which is not file order
        assert test_lines != sorted(test_lines)
        with pytest.raises(ValidationError) as err:
            read_test_split(path, monumai, 6)
        assert str(err.value) == (
            f"{path}:{min(test_lines)}: features have dim 8, detector expects 6"
        )
        for lineno in (1, 5):
            assert locate_instance(path, monumai, ids[lineno - 1], 8)[1].id == ids[lineno - 1]
            with pytest.raises(ValidationError) as err:
                locate_instance(path, monumai, ids[lineno - 1], 6)
            assert str(err.value) == f"{path}:{lineno}: features have dim 8, detector expects 6"
