"""Expert knowledge graphs over part classes and object classes.

A knowledge graph here is a bipartite "typical-of" relation: an edge
(part, object_class) states that the part is expected in objects of that
class. The same relation is exposed as a dense +/-1 attribution matrix
(one row per object class, one column per part): +1 where the edge
exists, -1 where it does not. Edge weights are binary by design;
documents carrying anything other than plain (part, object) pairs are
rejected at load time.

File format (JSON, UTF-8)::

    {
      "object_classes": ["Renaissance", ...],
      "part_classes": ["rounded arch", ...],
      "typical_of": [["rounded arch", "Renaissance"], ...]
    }

The order of the two class arrays is significant: it defines the row and
column indices used everywhere else in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError, read_json_labels, read_json_object

__all__ = [
    "KnowledgeGraph",
    "DeterministicResult",
    "load_kg",
    "save_kg",
    "dumps_kg",
    "attribution_matrix",
    "project",
    "deterministic_classify",
    "monumai_kg",
]


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable bipartite typical-of relation between parts and object classes."""

    object_classes: tuple[str, ...]
    part_classes: tuple[str, ...]
    typical_of: frozenset[tuple[str, str]]

    # index lookups, built once in __post_init__
    _object_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _part_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "object_classes", tuple(self.object_classes))
        object.__setattr__(self, "part_classes", tuple(self.part_classes))
        object.__setattr__(self, "typical_of", frozenset(tuple(e) for e in self.typical_of))
        _validate(self)
        object.__setattr__(
            self, "_object_index", {c: k for k, c in enumerate(self.object_classes)}
        )
        object.__setattr__(self, "_part_index", {p: j for j, p in enumerate(self.part_classes)})

    @property
    def num_object_classes(self) -> int:
        return len(self.object_classes)

    @property
    def num_parts(self) -> int:
        return len(self.part_classes)

    def object_index(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise ValidationError(f"unknown object class {label!r}") from None

    def part_index(self, label: str) -> int:
        try:
            return self._part_index[label]
        except KeyError:
            raise ValidationError(f"unknown part class {label!r}") from None

    def typical_parts(self, object_class: str) -> tuple[str, ...]:
        """Parts linked to object_class, in declared part order."""
        self.object_index(object_class)
        return tuple(p for p in self.part_classes if (p, object_class) in self.typical_of)

    def atypical_parts(self, object_class: str) -> tuple[str, ...]:
        """Parts not linked to object_class, in declared part order."""
        self.object_index(object_class)
        return tuple(p for p in self.part_classes if (p, object_class) not in self.typical_of)

    def unique_parts(self, object_class: str) -> tuple[str, ...]:
        """Parts typical of object_class and of no other class."""
        counts = {p: 0 for p in self.part_classes}
        for p, _ in self.typical_of:
            counts[p] += 1
        return tuple(p for p in self.typical_parts(object_class) if counts[p] == 1)


def _validate(kg: KnowledgeGraph) -> None:
    if len(kg.object_classes) < 2:
        raise ValidationError(
            f"need at least 2 object classes, got {len(kg.object_classes)}"
        )
    if len(kg.part_classes) < 1:
        raise ValidationError("need at least 1 part class, got 0")
    seen: set[str] = set()
    for label in list(kg.object_classes) + list(kg.part_classes):
        if label in seen:
            raise ValidationError(f"duplicate label {label!r}")
        seen.add(label)
    objects = set(kg.object_classes)
    parts = set(kg.part_classes)
    for edge in kg.typical_of:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            raise ValidationError(f"malformed typical-of edge {edge!r}; expected (part, object)")
        part, obj = edge
        if part not in parts:
            raise ValidationError(f"typical-of edge names undeclared part {part!r}")
        if obj not in objects:
            raise ValidationError(f"typical-of edge names undeclared object class {obj!r}")


def load_kg(path: str | Path) -> KnowledgeGraph:
    """Load and validate a knowledge graph from a JSON file."""
    doc = read_json_object(
        path, "knowledge graph file", None, ("object_classes", "part_classes", "typical_of")
    )
    objects = read_json_labels(path, doc, "object_classes")
    parts = read_json_labels(path, doc, "part_classes")
    edges = doc["typical_of"]
    if not isinstance(edges, list):
        raise ValidationError("typical_of must be a list of [part, object] pairs")
    pairs: list[tuple[str, str]] = []
    for entry in edges:
        # Rejects weighted or otherwise decorated edges: binary relation only.
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(s, str) for s in entry)
        ):
            raise ValidationError(
                f"typical_of entry {entry!r} is not a plain [part, object] pair"
            )
        pair = (entry[0], entry[1])
        if pair in pairs:
            raise ValidationError(f"duplicate typical-of edge {pair!r}")
        pairs.append(pair)
    return KnowledgeGraph(objects, parts, frozenset(pairs))


def dumps_kg(kg: KnowledgeGraph) -> str:
    """Serialize to the document format; load_kg reads save_kg's file back as kg."""
    doc = {
        "object_classes": list(kg.object_classes),
        "part_classes": list(kg.part_classes),
        "typical_of": sorted([p, o] for p, o in kg.typical_of),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_kg(kg: KnowledgeGraph, path: str | Path) -> None:
    Path(path).write_text(dumps_kg(kg), encoding="utf-8")


def attribution_matrix(kg: KnowledgeGraph) -> np.ndarray:
    """Dense (m, n) matrix: +1 where (part j, class k) is typical, else -1."""
    m, n = kg.num_object_classes, kg.num_parts
    mat = -np.ones((m, n), dtype=np.float64)
    for part, obj in kg.typical_of:
        mat[kg.object_index(obj), kg.part_index(part)] = 1.0
    return mat


def project(kg: KnowledgeGraph, nodes: set[str]) -> frozenset[tuple[str, str]]:
    """Typical-of edges whose part and object endpoints both lie in nodes."""
    known = set(kg.object_classes) | set(kg.part_classes)
    for label in nodes:
        if label not in known:
            raise ValidationError(f"unknown label {label!r} in projection node set")
    return frozenset((p, o) for p, o in kg.typical_of if p in nodes and o in nodes)


@dataclass(frozen=True)
class DeterministicResult:
    """Outcome of the training-free knowledge-graph classifier."""

    object_class: str
    confidences: np.ndarray
    tie: bool


def deterministic_classify(kg: KnowledgeGraph, v: np.ndarray) -> DeterministicResult:
    """Classify a part-descriptor vector using only the knowledge graph.

    Each class scores the summed descriptor mass of its typical parts;
    scores are normalized to sum to 1 and the argmax wins. Exact score
    ties are broken by the lowest class index in declaration order and
    flagged in the result.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (kg.num_parts,):
        raise ValidationError(
            f"descriptor has shape {v.shape}, expected ({kg.num_parts},)"
        )
    if np.any(v < 0):
        raise ValidationError("descriptor entries must be non-negative")
    mat = attribution_matrix(kg)
    confidences = ((1.0 + mat) / 2.0) @ v
    total = confidences.sum()
    if total <= 0.0:
        raise ValidationError("descriptor carries no evidence (all-zero confidences)")
    confidences = confidences / total
    best = int(np.argmax(confidences))
    tie = bool(np.sum(confidences == confidences[best]) > 1)
    return DeterministicResult(kg.object_classes[best], confidences, tie)


def monumai_kg() -> KnowledgeGraph:
    """The bundled monument-facade knowledge graph (4 styles, 14 elements)."""
    with resources.as_file(resources.files("xnesyl.data") / "monumai_kg.json") as path:
        return load_kg(path)
