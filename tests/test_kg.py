"""Knowledge graph loading, validation, matrix view, projection, baseline."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xnesyl.errors import ValidationError
from xnesyl.kg import (
    KnowledgeGraph,
    attribution_matrix,
    deterministic_classify,
    dumps_kg,
    load_kg,
    project,
    save_kg,
)


def load_text(tmp_path, text):
    """load_kg on a file holding `text`."""
    path = tmp_path / "kg.json"
    path.write_text(text, encoding="utf-8")
    return load_kg(path)


class TestLoad:
    def test_monumai_dimensions(self, monumai):
        assert monumai.num_object_classes == 4
        assert monumai.num_parts == 14
        assert len(monumai.typical_of) == 17

    def test_undeclared_edge_endpoint(self, tmp_path):
        doc = """{"object_classes": ["Gothic", "Baroque"],
                  "part_classes": ["column"],
                  "typical_of": [["arch", "Gothic"]]}"""
        with pytest.raises(ValidationError, match="arch"):
            load_text(tmp_path, doc)

    def test_single_object_class_rejected(self, tmp_path):
        doc = """{"object_classes": ["Gothic"], "part_classes": ["arch"],
                  "typical_of": [["arch", "Gothic"]]}"""
        with pytest.raises(ValidationError, match="2 object classes"):
            load_text(tmp_path, doc)

    def test_duplicate_label_rejected(self, tmp_path):
        doc = """{"object_classes": ["Gothic", "Gothic"], "part_classes": ["arch"],
                  "typical_of": []}"""
        with pytest.raises(ValidationError, match="Gothic"):
            load_text(tmp_path, doc)

    def test_label_shared_between_lists_rejected(self, tmp_path):
        doc = """{"object_classes": ["Gothic", "arch"], "part_classes": ["arch"],
                  "typical_of": []}"""
        with pytest.raises(ValidationError, match="duplicate label"):
            load_text(tmp_path, doc)

    def test_empty_class_list_rejected(self, tmp_path):
        # a loaded file's fault names the file; a graph built directly has none to name
        where = re.escape(f"{tmp_path / 'kg.json'}: ")
        doc = '{"object_classes": [], "part_classes": ["arch"], "typical_of": []}'
        with pytest.raises(ValidationError, match=f"^{where}need at least 2 object classes, got 0$"):
            load_text(tmp_path, doc)
        doc = '{"object_classes": ["Gothic", "Baroque"], "part_classes": [], "typical_of": []}'
        with pytest.raises(ValidationError, match=f"^{where}need at least 1 part class, got 0$"):
            load_text(tmp_path, doc)
        with pytest.raises(ValidationError, match="^need at least 2 object classes, got 0$"):
            KnowledgeGraph((), ("arch",), frozenset())
        with pytest.raises(ValidationError, match="^need at least 1 part class, got 0$"):
            KnowledgeGraph(("Gothic", "Baroque"), (), frozenset())

    def test_weighted_edge_rejected(self, tmp_path):
        doc = """{"object_classes": ["Gothic", "Baroque"], "part_classes": ["arch"],
                  "typical_of": [["arch", "Gothic", 0.7]]}"""
        with pytest.raises(ValidationError, match="pair"):
            load_text(tmp_path, doc)

    def test_duplicate_edge_rejected(self, tmp_path):
        doc = """{"object_classes": ["Gothic", "Baroque"], "part_classes": ["arch"],
                  "typical_of": [["arch", "Gothic"], ["arch", "Gothic"]]}"""
        with pytest.raises(ValidationError, match="duplicate"):
            load_text(tmp_path, doc)

    def test_round_trip(self, monumai, tmp_path):
        path = tmp_path / "kg.json"
        save_kg(monumai, path)
        assert load_kg(path) == monumai

    def test_non_utf8_file_names_the_file(self, monumai, tmp_path):
        path = tmp_path / "kg.json"
        path.write_bytes(b"\xff\xfe" + dumps_kg(monumai).encode("utf-8"))
        with pytest.raises(ValidationError, match=r"kg\.json: knowledge graph file is not UTF-8"):
            load_kg(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "knowledge graph file must be a JSON object"),
            ('{"object_classes": ["A", 1], "part_classes": ["a"], "typical_of": []}',
             "object_classes is not a list of strings"),
        ],
        ids=["list", "int-label"],
    )
    def test_file_fault_spells_the_path_once(self, tmp_path, monkeypatch, text, message):
        # "./kg.json" is named as "kg.json" by every check, not only the file-level ones
        monkeypatch.chdir(tmp_path)
        Path("kg.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^kg\\.json: {message}$"):
            load_kg("./kg.json")

    def test_order_preserved(self, monumai, tmp_path):
        save_kg(monumai, tmp_path / "kg.json")
        reloaded = load_kg(tmp_path / "kg.json")
        assert reloaded.object_classes == monumai.object_classes
        assert reloaded.part_classes == monumai.part_classes


class TestAttributionMatrix:
    def test_known_entries(self, monumai):
        mat = attribution_matrix(monumai)
        hm = monumai.object_index("Hispanic-Muslim")
        gothic = monumai.object_index("Gothic")
        horseshoe = monumai.part_index("horseshoe arch")
        assert mat[hm, horseshoe] == 1.0
        assert mat[gothic, horseshoe] == -1.0

    def test_binary_everywhere(self, monumai):
        mat = attribution_matrix(monumai)
        assert set(np.unique(mat)) == {-1.0, 1.0}

    def test_all_minus_one_without_edges(self):
        kg = KnowledgeGraph(("X", "Y"), ("a",), frozenset())
        assert np.all(attribution_matrix(kg) == -1.0)

    def test_matrix_edge_duality(self, monumai):
        mat = attribution_matrix(monumai)
        for k, obj in enumerate(monumai.object_classes):
            for j, part in enumerate(monumai.part_classes):
                assert (mat[k, j] == 1.0) == ((part, obj) in monumai.typical_of)


class TestProjection:
    def test_identity(self, monumai):
        nodes = set(monumai.object_classes) | set(monumai.part_classes)
        assert project(monumai, nodes) == monumai.typical_of

    def test_single_edge(self, monumai):
        edges = project(monumai, {"horseshoe arch", "Hispanic-Muslim"})
        assert edges == {("horseshoe arch", "Hispanic-Muslim")}

    def test_no_edge_between_unrelated(self, monumai):
        assert project(monumai, {"trefoil arch", "Renaissance"}) == frozenset()

    def test_unknown_label(self, monumai):
        with pytest.raises(ValidationError, match="minaret"):
            project(monumai, {"minaret"})

    @given(st.data())
    def test_monotone_in_node_set(self, monumai, data):
        labels = sorted(set(monumai.object_classes) | set(monumai.part_classes))
        small = data.draw(st.sets(st.sampled_from(labels)))
        extra = data.draw(st.sets(st.sampled_from(labels)))
        assert project(monumai, small) <= project(monumai, small | extra)


class TestDeterministicClassify:
    def test_unique_part_one_hot(self, monumai):
        v = np.zeros(monumai.num_parts)
        v[monumai.part_index("horseshoe arch")] = 1.0
        result = deterministic_classify(monumai, v)
        assert result.object_class == "Hispanic-Muslim"
        assert result.confidences[monumai.object_index("Hispanic-Muslim")] == 1.0
        assert not result.tie

    def test_shared_part_ties_to_first_listed(self, monumai):
        # rounded arch is typical of both Renaissance and Baroque; the
        # confidences come out equal and Renaissance is declared first.
        v = np.zeros(monumai.num_parts)
        v[monumai.part_index("rounded arch")] = 1.0
        result = deterministic_classify(monumai, v)
        assert result.object_class == "Renaissance"
        assert result.tie

    def test_all_zero_rejected(self, monumai):
        with pytest.raises(ValidationError, match="no evidence"):
            deterministic_classify(monumai, np.zeros(monumai.num_parts))

    def test_confidences_normalized(self, monumai):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(0, 2, size=monumai.num_parts)
            result = deterministic_classify(monumai, v)
            assert result.confidences.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant_argmax(self, monumai):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.uniform(0, 2, size=monumai.num_parts)
            base = deterministic_classify(monumai, v).object_class
            scale = float(rng.uniform(0.01, 100.0))
            assert deterministic_classify(monumai, scale * v).object_class == base

    def test_negative_entries_rejected(self, monumai):
        v = np.zeros(monumai.num_parts)
        v[0] = -0.5
        with pytest.raises(ValidationError, match="non-negative"):
            deterministic_classify(monumai, v)
