"""Stage one of the part-based classifier: a per-region part detector.

Localization is out of scope; regions come pre-cut, so the detector is a
softmax linear model over region features whose per-region cross-entropy
is exactly the loss term the alignment-driven weighting multiplies.

Two aggregation rules turn a scene's detections into the tabular
descriptor consumed by the object classifier: `aggregate_frcnn` keeps
only each region's maximal part probability, `aggregate_retina` keeps
the whole probability vector. Both sum over regions.

A split is packed once (`PackedSplit`): its regions' features as one
(R, d) array. Detecting a split is one logits product and one softmax
(`detect_split`); a training mini-batch is one forward pass and one
gradient product per instance. Both are bit-identical to an
instance-by-instance loop, whose one-instance calls are `detect` +
`aggregate` and `weighted_roi_loss`.
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
    "PackedSplit",
    "detect",
    "detect_split",
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

    def probabilities(self, features: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(R, d) feature rows to (R, n) part probability rows.

        The rows are consecutive instances' regions, `counts` rows each; each
        row is bitwise as if its instance were detected alone.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.feature_dim:
            raise ValidationError(
                f"features have dim {features.shape[1]}, detector expects {self.feature_dim}"
            )
        probs = softmax(_logits(self, features, counts))
        if not np.all(np.isfinite(probs)):
            raise NumericalError("part detector probabilities are non-finite")
        return probs

    def copy(self) -> "PartDetector":
        return PartDetector(self.part_classes, self.weights.copy(), self.bias.copy())


@dataclass(frozen=True)
class DetectionSet:
    """Ordered per-region part probability vectors of one instance, or of a split's in turn."""

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


@dataclass(frozen=True, eq=False)
class PackedSplit:
    """A split's instances with their regions packed into contiguous arrays.

    Each instance's regions are consecutive rows of `features` and `labels`,
    in region order, `counts[i]` of them. Labels index `part_classes`.
    Iterates as its instances.
    """

    instances: tuple[SceneInstance, ...]
    part_classes: tuple[str, ...]
    features: np.ndarray  # (R, d)
    labels: np.ndarray  # (R,)
    counts: np.ndarray  # (N,)

    @classmethod
    def pack(cls, instances: list[SceneInstance], part_classes: tuple[str, ...]) -> "PackedSplit":
        regions = [r for inst in instances for r in inst.regions]
        index = {p: j for j, p in enumerate(part_classes)}
        try:
            labels = np.array([index[r.gt_part_class] for r in regions], dtype=np.intp)
        except KeyError as exc:
            inst = next(i for i in instances if exc.args[0] in {r.gt_part_class for r in i.regions})
            raise ValidationError(
                f"instance {inst.id!r} has part label unknown to the detector: {exc}"
            ) from exc
        counts = np.array([len(inst.regions) for inst in instances], dtype=np.intp)
        features = np.array([r.features for r in regions])
        return cls(tuple(instances), tuple(part_classes), features, labels, counts)

    def __iter__(self):
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)


def _logits(det: PartDetector, features: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One logits product for consecutive instances' rows, bitwise as if each were alone.

    A one-region row takes the stacked one-row product: alone, it would run
    numpy's vector path, which rounds unlike the matrix product.
    """
    logits = features @ det.weights.T
    single = np.repeat(counts == 1, counts)
    if single.any():
        logits[single] = (features[single][:, None, :] @ det.weights.T)[:, 0]
    logits += det.bias
    return logits


def _aggregate(probs: np.ndarray, best: np.ndarray, counts: np.ndarray, mode: str) -> np.ndarray:
    """(N, n) descriptors of consecutive instances holding `counts` rows of `probs` each.

    frcnn keeps only each row's `best` (maximal) entry; retina keeps the whole row.
    Each instance's rows are added in region order, as `sum(axis=0)` adds them
    (`np.add.reduceat` rounds otherwise): they fill a zero-padded
    (N, max count, n) block that is summed over its middle axis.
    """
    if mode not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation mode {mode!r}; expected one of {AGGREGATIONS}")
    rows = np.arange(probs.shape[0])
    owner = np.repeat(np.arange(len(counts)), counts)
    position = rows - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.zeros((len(counts), counts.max(), probs.shape[1]))
    if mode == "frcnn":
        padded[owner, position, best] = probs[rows, best]
    else:
        padded[owner, position] = probs
    return padded.sum(axis=1)


def detect_split(det: PartDetector, split: PackedSplit, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """One detection pass over a split: descriptors (N, n) and predicted part per region (R,).

    Bitwise equal to `aggregate(detect(det, inst), mode)` per instance.
    """
    ds = DetectionSet(det.probabilities(split.features, split.counts))
    best = ds.predicted_parts()
    return _aggregate(ds.probabilities, best, split.counts, mode), best


def detect(det: PartDetector, inst: SceneInstance) -> DetectionSet:
    """One probability vector per region, in region order."""
    features = np.stack([r.features for r in inst.regions])
    return DetectionSet(det.probabilities(features, np.array([len(features)])))


def aggregate(ds: DetectionSet, mode: str) -> np.ndarray:
    """One instance's descriptor; `mode` is one of AGGREGATIONS."""
    counts = np.array([ds.probabilities.shape[0]])
    return _aggregate(ds.probabilities, ds.predicted_parts(), counts, mode)[0]


def aggregate_frcnn(ds: DetectionSet) -> np.ndarray:
    """Sum of per-region vectors with non-maximal probabilities zeroed."""
    return aggregate(ds, "frcnn")


def aggregate_retina(ds: DetectionSet) -> np.ndarray:
    """Sum of the full per-region probability vectors; total mass equals M."""
    return aggregate(ds, "retina")


def _multipliers(split: PackedSplit, region_weights: list | None) -> np.ndarray:
    """Checked per-region loss multipliers (R,); all ones when `region_weights` is None."""
    if region_weights is None:
        return np.ones(split.features.shape[0])
    if len(region_weights) != len(split):
        raise ValidationError(f"{len(region_weights)} weight arrays for {len(split)} instances")
    arrays = [np.asarray(w, dtype=np.float64) for w in region_weights]
    for inst, w in zip(split, arrays):
        if w.shape != (len(inst.regions),):
            got = w.shape[0] if w.ndim == 1 else "?"
            raise ValidationError(
                f"instance {inst.id!r} has {len(inst.regions)} regions but {got} weights"
            )
    weights = np.concatenate(arrays)
    if np.any(weights < 0):
        inst = next(i for i, w in zip(split, arrays) if np.any(w < 0))
        raise ValidationError(f"instance {inst.id!r}: region weights must be non-negative")
    return weights


def _instance_terms(det: PartDetector, features, labels, weights, counts):
    """Yield each consecutive instance's (loss, dW, db), bitwise as if it were alone.

    One logits product and one exp serve all rows; gradient products stay per instance.
    """
    dlogits, logp = softmax(_logits(det, features, counts), with_log=True)
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
    split = PackedSplit.pack([inst], det.part_classes)
    multipliers = _multipliers(split, None if weights is None else [weights])
    ((loss, grad_w, grad_b),) = _instance_terms(
        det, split.features, split.labels, multipliers, split.counts
    )
    return loss, (grad_w, grad_b)


def train_detector_epoch(
    det: PartDetector,
    dataset: PackedSplit,
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
    if dataset.part_classes != det.part_classes:
        raise ValidationError("the split is labelled against other part classes than the detector")
    weights = _multipliers(dataset, region_weights)
    features, labels, counts = dataset.features, dataset.labels, dataset.counts
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
