import numpy as np
import pytest

from xnesyl.detector import PartDetector
from xnesyl.kg import KnowledgeGraph, monumai_kg


@pytest.fixture(scope="session")
def monumai() -> KnowledgeGraph:
    return monumai_kg()


@pytest.fixture
def detect_calls(monkeypatch):
    """The regions each detector inference call made while the test runs, one entry per call."""
    calls = []
    probabilities = PartDetector.probabilities

    def counted(det, features, counts):
        calls.append(len(features))
        return probabilities(det, features, counts)

    monkeypatch.setattr(PartDetector, "probabilities", counted)
    return calls


@pytest.fixture(scope="session")
def tiny_kg() -> KnowledgeGraph:
    """Two classes, three parts; part 'c' shared, 'a' and 'b' unique."""
    return KnowledgeGraph(
        object_classes=("X", "Y"),
        part_classes=("a", "b", "c"),
        typical_of=frozenset([("a", "X"), ("c", "X"), ("b", "Y"), ("c", "Y")]),
    )


@pytest.fixture(scope="session")
def facade_fixture(monumai):
    """Hand-transcribed descriptor and attribution matrix for one scene.

    Only the trefoil and rounded arches are detected (0.2 and 1.35); the
    attribution matrix carries a handful of signed values per class.
    Running the attribution-graph construction on it by hand gives the
    six edges in `expected_edges`, and the alignment distance against the
    monument knowledge graph is 3 (one spurious edge, two expected edges
    missing).
    """
    kg = monumai
    part = {p: j for j, p in enumerate(kg.part_classes)}
    cls = {c: k for k, c in enumerate(kg.object_classes)}
    shap_values = np.zeros((kg.num_object_classes, kg.num_parts))
    entries = [
        ("Hispanic-Muslim", "horseshoe arch", -0.16),
        ("Renaissance", "horseshoe arch", 0.08),
        ("Baroque", "horseshoe arch", 0.03),
        ("Gothic", "pointed arch", -0.15),
        ("Renaissance", "pointed arch", 0.07),
        ("Baroque", "pointed arch", 0.04),
        ("Gothic", "ogee arch", -0.08),
        ("Renaissance", "ogee arch", 0.01),
        ("Renaissance", "trefoil arch", 0.04),
        ("Baroque", "triangular pediment", 0.06),
        ("Baroque", "rounded arch", 0.03),
        ("Renaissance", "broken pediment", 0.14),
        ("Baroque", "broken pediment", -0.16),
        ("Renaissance", "solomonic column", 0.04),
    ]
    for class_label, part_label, value in entries:
        shap_values[cls[class_label], part[part_label]] = value
    v = np.zeros(kg.num_parts)
    v[part["trefoil arch"]] = 0.2
    v[part["rounded arch"]] = 1.35
    expected_edges = frozenset(
        {
            ("horseshoe arch", "Hispanic-Muslim"),
            ("pointed arch", "Gothic"),
            ("ogee arch", "Gothic"),
            ("trefoil arch", "Renaissance"),
            ("rounded arch", "Baroque"),
            ("broken pediment", "Baroque"),
        }
    )
    return {"v": v, "shap_values": shap_values, "expected_edges": expected_edges}
