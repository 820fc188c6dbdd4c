"""Alignment between learned attributions and the expert knowledge graph.

This module holds the symbolic-neural glue. From a trained model's
attributions it builds, per instance, an empirical attribution graph
(the SAG): an edge (part, object class) is added when a detected part
contributed positively to the class score, or when a missing part
contributed negatively (its absence hurt the class). The SAG is then
compared against the knowledge graph projected onto the SAG's own node
set; the number of disagreeing edges is the alignment metric averaged
over a test split.

For training, the same sign comparison yields a misattribution score per
(instance, class, part): positive exactly when the attribution's sign
contradicts the expert edge. Misattribution feeds one of four loss
weighting schemes (linear or exponential, per region or per instance)
producing multipliers alpha >= 1 for the detector's region losses, with
alpha = 1 recovering standard training exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classifier import MLPClassifier
from .errors import ValidationError
from .kg import KnowledgeGraph, project
from .shapley import BackgroundSet, shap_matrix

__all__ = [
    "SAG",
    "WeightScheme",
    "SCHEME_KINDS",
    "build_sag",
    "misattribution",
    "alpha_bbox",
    "alpha_instance",
    "region_weights",
    "shap_ged",
    "mean_shap_ged",
    "derive_seed",
    "instance_attribution",
    "sag_to_dot",
    "sag_to_json",
]

SCHEME_KINDS = ("linear_bbox", "exp_bbox", "linear_instance", "exp_instance")

DETECTION_THRESHOLD = 0.05  # feature mass above which a part counts as detected
FEATURE_THRESHOLD = 0.0  # misattribution case split: feature present vs absent


@dataclass(frozen=True)
class SAG:
    """Empirical attribution graph: directed (part, object class) edges."""

    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(label for edge in self.edges for label in edge)


@dataclass(frozen=True)
class WeightScheme:
    """Loss weighting scheme: granularity x shape, with balancing factor h."""

    kind: str
    h: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValidationError(
                f"unknown weighting scheme {self.kind!r}; expected one of {SCHEME_KINDS}"
            )
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValidationError("balancing hyperparameter h must be finite and positive")

    @property
    def instance_level(self) -> bool:
        return self.kind.endswith("_instance")

    @property
    def exponential(self) -> bool:
        return self.kind.startswith("exp_")


def build_sag(
    kg: KnowledgeGraph,
    v: np.ndarray,
    shap_values: np.ndarray,
    s: float = DETECTION_THRESHOLD,
) -> SAG:
    """Build the attribution graph for one instance.

    For every (class k, part j): if the part is detected (v_j > s) a
    positive attribution adds the edge (present-feature contribution);
    if undetected (v_j <= s) a negative attribution adds the edge
    (lacking-feature contribution). Zero attributions never add edges.
    """
    v = np.asarray(v, dtype=np.float64)
    shap_values = np.asarray(shap_values, dtype=np.float64)
    m, n = kg.num_object_classes, kg.num_parts
    if v.shape != (n,):
        raise ValidationError(f"descriptor shape {v.shape} does not match {n} parts")
    if shap_values.shape != (m, n):
        raise ValidationError(
            f"attribution matrix shape {shap_values.shape} does not match ({m}, {n})"
        )
    detected = v > s
    edge_mask = np.where(detected[None, :], shap_values > 0.0, shap_values < 0.0)
    edges = {
        (kg.part_classes[j], kg.object_classes[k])
        for k, j in zip(*np.nonzero(edge_mask))
    }
    return SAG(frozenset(edges))


def misattribution(
    shap_value,
    kg_entry,
    feature_value,
    v_threshold: float = FEATURE_THRESHOLD,
) -> np.ndarray:
    """Disagreement score beta >= 0 between an attribution and the expert edge.

    Detected case (feature above v_threshold): beta is the positive part
    of -kg_entry * shap_value, i.e. zero when the signs agree and the
    attribution magnitude otherwise. Undetected case: beta is 0, there is
    no evidence to penalize.
    """
    shap_value = np.asarray(shap_value, dtype=np.float64)
    kg_entry = np.asarray(kg_entry, dtype=np.float64)
    feature_value = np.asarray(feature_value, dtype=np.float64)
    if not np.all(np.isin(kg_entry, (-1.0, 1.0))):
        raise ValidationError("knowledge graph entries must be -1 or +1")
    return np.where(
        feature_value > v_threshold,
        np.maximum(-kg_entry * shap_value, 0.0),
        0.0,
    )


def alpha_bbox(beta, scheme: WeightScheme) -> np.ndarray:
    """Loss multiplier for one region: h*beta + 1 (linear) or exp(h*beta)."""
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(beta < 0):
        raise ValidationError("misattribution beta must be non-negative")
    return np.exp(scheme.h * beta) if scheme.exponential else scheme.h * beta + 1.0


def alpha_instance(
    shap_row: np.ndarray,
    kg_row: np.ndarray,
    v: np.ndarray,
    scheme: WeightScheme,
    v_threshold: float = FEATURE_THRESHOLD,
) -> np.ndarray:
    """Single multiplier for a whole instance: the worst per-part alpha.

    Rows (N, n) give one multiplier per row.
    """
    beta = misattribution(shap_row, kg_row, v, v_threshold)
    return np.max(alpha_bbox(beta, scheme), axis=-1)


def region_weights(
    shap_rows: np.ndarray,
    kg_rows: np.ndarray,
    v: np.ndarray,
    predicted_parts: list[np.ndarray],
    scheme: WeightScheme,
    v_threshold: float = FEATURE_THRESHOLD,
) -> list[np.ndarray]:
    """Per-region loss multipliers of a stack of N instances, one array each.

    Row i of `shap_rows`, `kg_rows` and `v` (each (N, n)) belongs to
    instance i: its attributions and knowledge-graph row for its
    ground-truth object class, and its descriptor. Region-level schemes
    weight each region by the alpha of its *predicted* part class;
    instance-level schemes broadcast the instance alpha (`alpha_instance`)
    to every region.
    """
    if scheme.instance_level:
        alpha = alpha_instance(shap_rows, kg_rows, v, scheme, v_threshold)
        return [np.full(len(parts), top) for top, parts in zip(alpha, predicted_parts)]
    alpha = alpha_bbox(misattribution(shap_rows, kg_rows, v, v_threshold), scheme)
    return [row[np.asarray(parts)] for row, parts in zip(alpha, predicted_parts)]


def shap_ged(sag: SAG, kg: KnowledgeGraph) -> int:
    """Edge disagreement between a SAG and the knowledge graph projection.

    The projection keeps only expert edges between nodes the SAG itself
    mentions, so graphs of very different sizes stay comparable. It counts
    the symmetric difference: spurious SAG edges plus expected edges the
    SAG lacks.
    """
    return len(sag.edges ^ project(kg, set(sag.nodes)))


def derive_seed(seed: int, *parts: int) -> int:
    """Integer seed of the stream named by `parts` (a role tag, then indices).

    The package's one seed derivation: training's classifier, background
    and attribution seeds and the per-instance seeds of scoring and
    `instance_attribution` (`_instance_seed`).
    """
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


_TAG_INSTANCE = 0x6ED  # role tag of per-instance attribution seeds; frozen


def _instance_seed(seed: int, index: int) -> int:
    return derive_seed(seed, _TAG_INSTANCE, index)


def instance_attribution(
    clf: MLPClassifier,
    v: np.ndarray,
    index: int,
    kg: KnowledgeGraph,
    background: BackgroundSet,
    s: float,
    mode: str,
    num_coalition_samples: int,
    seed: int,
) -> tuple[np.ndarray, SAG]:
    """Attributions and SAG of descriptor `v`, at `index` in its scored split.

    The estimator seed is derived from `seed` and the index, so results do
    not depend on evaluation order. This is `xnesyl explain`'s path;
    `mean_shap_ged` scores the whole split as one stack with the same
    per-index seeds, and each row of a stack gets the attributions it gets
    alone, so an explained SAG is the one its distance was scored on.
    """
    values = shap_matrix(
        clf, v, background, mode, num_coalition_samples, seed=_instance_seed(seed, index)
    )
    return values, build_sag(kg, v, values, s)


def mean_shap_ged(
    clf: MLPClassifier,
    x: np.ndarray,
    ids: list[str],
    kg: KnowledgeGraph,
    background: BackgroundSet,
    s: float,
    mode: str,
    num_coalition_samples: int,
    seed: int,
) -> tuple[float, dict[str, int]]:
    """Mean per-instance graph disagreement over a split.

    `x` holds the split's descriptors, one row per id in `ids`, scored in
    one `shap_matrix` call. Returns (mean, per-instance distances keyed by
    id).
    """
    if not ids:
        raise ValidationError("cannot score an empty split")
    if len(ids) != len(x):
        raise ValidationError(f"{len(x)} descriptors for {len(ids)} instance ids")
    seeds = [_instance_seed(seed, index) for index in range(len(ids))]
    values = shap_matrix(clf, x, background, mode, num_coalition_samples, seed=seeds)
    per_instance = {
        inst_id: shap_ged(build_sag(kg, v, row_values, s), kg)
        for inst_id, v, row_values in zip(ids, x, values)
    }
    mean = float(np.mean(list(per_instance.values())))
    return mean, per_instance


def _dot_quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def sag_to_dot(sag: SAG, kg: KnowledgeGraph) -> str:
    """DOT rendering with parts as ellipses and object classes as boxes."""
    parts = sorted(n for n in sag.nodes if n in set(kg.part_classes))
    objects = sorted(n for n in sag.nodes if n in set(kg.object_classes))
    lines = ["digraph sag {", "  rankdir=LR;"]
    lines += [f"  {_dot_quote(p)} [shape=ellipse];" for p in parts]
    lines += [f"  {_dot_quote(o)} [shape=box];" for o in objects]
    lines += [
        f"  {_dot_quote(p)} -> {_dot_quote(o)};" for p, o in sorted(sag.edges)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def sag_to_json(sag: SAG) -> str:
    """JSON edge list, sorted for stable diffs."""
    return json.dumps({"edges": sorted([p, o] for p, o in sag.edges)}, indent=2) + "\n"
