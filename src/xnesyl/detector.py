"""Stage one of the part-based classifier: a per-region part detector.

Localization is out of scope; regions come pre-cut, so the detector is a
softmax linear model over region features whose per-region cross-entropy
is exactly the loss term the alignment-driven weighting multiplies.

Two aggregation rules turn a scene's detections into the tabular
descriptor consumed by the object classifier: `aggregate_frcnn` keeps
only each region's maximal part probability, `aggregate_retina` keeps
the whole probability vector. Both sum over regions.

Training packs the dataset once; a mini-batch is one forward pass and one
gradient product per instance, bit-identical to an instance-by-instance
loop. `weighted_roi_loss` is its one-instance case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import SceneInstance
from .errors import (
    NumericalError, ValidationError, read_json_array, read_json_labels, read_json_object,
)
from .kg import KnowledgeGraph

__all__ = [
    "AGGREGATIONS",
    "PartDetector",
    "DetectionSet",
    "detect",
    "aggregate_frcnn",
    "aggregate_retina",
    "aggregate",
    "weighted_roi_loss",
    "train_detector_epoch",
    "save_detector",
    "load_detector",
]

AGGREGATIONS = ("frcnn", "retina")
BATCH_SIZE = 32  # instances per detector gradient step


def softmax(
    logits: np.ndarray, with_log: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Row-wise stable softmax; `with_log` adds the log-softmax, from the same exp."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    return (e / total, z - np.log(total)) if with_log else e / total


@dataclass
class PartDetector:
    """Softmax linear model mapping region features (dim d) to n part probabilities."""

    part_classes: tuple[str, ...]
    weights: np.ndarray  # (n, d)
    bias: np.ndarray  # (n,)

    @classmethod
    def create(cls, kg: KnowledgeGraph, feature_dim: int) -> "PartDetector":
        # Zero init is exact and deterministic; the objective is convex.
        n = kg.num_parts
        return cls(kg.part_classes, np.zeros((n, feature_dim)), np.zeros(n))

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """(M, d) feature rows to (M, n) part probability rows."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.feature_dim:
            raise ValidationError(
                f"features have dim {features.shape[1]}, detector expects {self.feature_dim}"
            )
        probs = softmax(features @ self.weights.T + self.bias)
        if not np.all(np.isfinite(probs)):
            raise NumericalError("part detector probabilities are non-finite")
        return probs

    def copy(self) -> "PartDetector":
        return PartDetector(self.part_classes, self.weights.copy(), self.bias.copy())


@dataclass(frozen=True)
class DetectionSet:
    """Ordered per-region part probability vectors for one scene instance."""

    probabilities: np.ndarray  # (M, n)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 2:
            raise ValidationError("detections must form an (M, n) array")
        # the test of np.allclose(sums, 1.0, rtol=0.0, atol=1e-9), without its overhead
        if probs.shape[0] and (
            np.any(probs < 0) or not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        ):
            raise ValidationError("each detection row must be a probability vector")
        object.__setattr__(self, "probabilities", probs)

    def predicted_parts(self) -> np.ndarray:
        """Argmax part index per region."""
        return np.argmax(self.probabilities, axis=1)


def detect(det: PartDetector, inst: SceneInstance) -> DetectionSet:
    """One probability vector per region, in region order."""
    features = np.stack([r.features for r in inst.regions])
    return DetectionSet(det.probabilities(features))


def aggregate_frcnn(ds: DetectionSet) -> np.ndarray:
    """Sum of per-region vectors with non-maximal probabilities zeroed."""
    p = ds.probabilities
    kept = np.zeros_like(p)
    rows = np.arange(p.shape[0])
    best = np.argmax(p, axis=1)
    kept[rows, best] = p[rows, best]
    return kept.sum(axis=0)


def aggregate_retina(ds: DetectionSet) -> np.ndarray:
    """Sum of the full per-region probability vectors; total mass equals M."""
    return ds.probabilities.sum(axis=0)


def aggregate(ds: DetectionSet, mode: str) -> np.ndarray:
    """Dispatch on aggregation mode, one of AGGREGATIONS."""
    if mode == "frcnn":
        return aggregate_frcnn(ds)
    if mode == "retina":
        return aggregate_retina(ds)
    raise ValidationError(f"unknown aggregation mode {mode!r}; expected one of {AGGREGATIONS}")


def _pack(det: PartDetector, dataset: list[SceneInstance], region_weights: list | None):
    """Checked features (R, d), part labels (R,), multipliers (R,) and region counts (N,)."""
    regions = [r for inst in dataset for r in inst.regions]
    index = {p: j for j, p in enumerate(det.part_classes)}
    try:
        labels = np.array([index[r.gt_part_class] for r in regions])
    except KeyError as exc:
        inst = next(i for i in dataset if any(r.gt_part_class not in index for r in i.regions))
        raise ValidationError(
            f"instance {inst.id!r} has part label unknown to the detector: {exc}"
        ) from exc
    weights = np.ones(len(regions))
    if region_weights is not None:
        arrays = [np.asarray(w, dtype=np.float64) for w in region_weights]
        for inst, w in zip(dataset, arrays):
            if w.shape != (len(inst.regions),):
                got = w.shape[0] if w.ndim == 1 else "?"
                raise ValidationError(
                    f"instance {inst.id!r} has {len(inst.regions)} regions but {got} weights"
                )
        weights = np.concatenate(arrays)
        if np.any(weights < 0):
            inst = next(i for i, w in zip(dataset, arrays) if np.any(w < 0))
            raise ValidationError(f"instance {inst.id!r}: region weights must be non-negative")
    counts = np.array([len(inst.regions) for inst in dataset])
    return np.array([r.features for r in regions]), labels, weights, counts


def _instance_terms(det: PartDetector, features, labels, weights, counts):
    """Yield each consecutive instance's (loss, dW, db), bitwise as if it were alone.

    One logits product and one exp serve all rows, but a one-region row takes
    the stacked one-row product: alone, it would run numpy's vector path,
    which rounds unlike the matrix product. Gradient products stay per instance.
    """
    logits = features @ det.weights.T
    single = np.repeat(counts == 1, counts)
    if single.any():
        logits[single] = (features[single][:, None, :] @ det.weights.T)[:, 0]
    logits += det.bias
    dlogits, logp = softmax(logits, with_log=True)
    rows = np.arange(len(labels))
    region_loss = weights * logp[rows, labels]
    dlogits[rows, labels] -= 1.0
    dlogits *= weights[:, None]
    stops = np.cumsum(counts).tolist()
    for start, stop in zip([0] + stops, stops):
        part = dlogits[start:stop]
        loss = float(-region_loss[start:stop].sum())
        yield loss, part.T @ features[start:stop], part.sum(axis=0)


def weighted_roi_loss(
    det: PartDetector, inst: SceneInstance, weights: np.ndarray | None = None
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Weighted cross-entropy over the instance's regions, with exact gradient.

    loss = sum_r weight_r * CE(p_r, gt_part_r). Returns (loss, (dW, db)).
    Unit weights reproduce the unweighted loss bit for bit.
    """
    packed = _pack(det, [inst], None if weights is None else [weights])
    ((loss, grad_w, grad_b),) = _instance_terms(det, *packed)
    return loss, (grad_w, grad_b)


def train_detector_epoch(
    det: PartDetector,
    dataset: list[SceneInstance],
    region_weights: list[np.ndarray] | None,
    rng: np.random.Generator,
    learning_rate: float,
) -> tuple[PartDetector, float]:
    """One full pass of mini-batch gradient descent over the dataset.

    `region_weights` holds each instance's per-region loss multipliers,
    aligned with `dataset`, or is None for an unweighted pass. Batches of
    BATCH_SIZE follow the dataset order shuffled by `rng`; with a fixed rng
    state the pass is fully deterministic. Returns the updated detector
    and the mean per-region loss observed during the pass.

    Checks run before the first batch. A batch is one forward pass and one gradient
    product per instance, bit-identical to a `weighted_roi_loss` call per instance.
    """
    if not dataset:
        raise ValidationError("cannot train on an empty dataset")
    if region_weights is not None and len(region_weights) != len(dataset):
        raise ValidationError(f"{len(region_weights)} weight arrays for {len(dataset)} instances")
    features, labels, weights, counts = _pack(det, dataset, region_weights)
    ends = np.cumsum(counts)
    order = rng.permutation(len(dataset))
    updated = det.copy()
    total_loss = 0.0
    for start in range(0, len(dataset), BATCH_SIZE):
        batch = order[start : start + BATCH_SIZE]
        sizes = counts[batch]
        stops = np.cumsum(sizes)
        rows = np.arange(stops[-1]) + np.repeat(ends[batch] - stops, sizes)
        grad_w, grad_b = np.zeros_like(updated.weights), np.zeros_like(updated.bias)
        terms = _instance_terms(updated, features[rows], labels[rows], weights[rows], sizes)
        for loss, gw, gb in terms:
            grad_w += gw
            grad_b += gb
            total_loss += loss
        scale = learning_rate / int(stops[-1])
        updated.weights -= scale * grad_w
        updated.bias -= scale * grad_b
    return updated, total_loss / int(ends[-1])


def save_detector(det: PartDetector, path: str | Path) -> None:
    doc = {
        "kind": "part_detector",
        "part_classes": list(det.part_classes),
        "feature_dim": det.feature_dim,
        "weights": det.weights.tolist(),
        "bias": det.bias.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_detector(path: str | Path) -> PartDetector:
    doc = read_json_object(
        path, "part detector checkpoint", "part_detector",
        ("part_classes", "feature_dim", "weights", "bias"),
    )
    part_classes = read_json_labels(path, doc, "part_classes")
    n = len(part_classes)
    return PartDetector(
        part_classes=part_classes,
        weights=read_json_array(path, doc, "weights", (n, doc["feature_dim"])),
        bias=read_json_array(path, doc, "bias", (n,)),
    )
