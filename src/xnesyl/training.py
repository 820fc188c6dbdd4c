"""Orchestration of the two training regimes and full evaluation.

Both regimes run one loop over the training split, packed once. Every
epoch makes one detector pass over it. With a weighting scheme, each
epoch then trains a fresh classifier on the detector's descriptors
(one detection call over the split), draws the attribution
background, scores every training instance's attributions against the
knowledge graph and turns them into per-region loss multipliers for the
*next* detector epoch (the first epoch runs unweighted; attributions
need a trained classifier). Without a scheme the classifier and the
background are built once, after the last epoch. Either way the
classifier and background of the last epoch are the ones kept.

Every random stream is derived from (config seed, role, epoch), so a run
is a pure function of (kg, dataset, config), and the weighted procedure
with all multipliers at 1 reproduces the standard procedure bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import alignment
from .alignment import WeightScheme, derive_seed, mean_shap_ged, region_weights
from .classifier import MLPClassifier, accuracy, train_classifier
from .datagen import SceneInstance
from .detector import AGGREGATIONS, PackedSplit, PartDetector, detect_split, train_detector_epoch
from .errors import NumericalError, ValidationError
from .kg import KnowledgeGraph, attribution_matrix
from .shapley import EXACT_MAX_FEATURES, SHAP_MODES, BackgroundSet, shap_matrix

__all__ = [
    "TrainConfig",
    "RunArtifacts",
    "train_standard",
    "train_shap_backprop",
    "evaluate",
    "descriptors",
    "shap_eval_seed",
    "config_echo",
    "config_from_echo",
    "metrics_report",
]

# role tags for seed derivation; values are arbitrary but frozen
_TAG_BATCH = 1
_TAG_CLF = 2
_TAG_BG = 3
_TAG_SHAP_TRAIN = 4
_TAG_SHAP_EVAL = 5


def _derived_rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *parts]))


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    epochs_det: int = 10
    epochs_clf: int = 60
    lr_det: float = 0.5
    lr_clf: float = 0.05
    scheme: WeightScheme | None = None
    s: float = alignment.DETECTION_THRESHOLD
    v_threshold: float = alignment.FEATURE_THRESHOLD
    background_size: int = 100
    shap_mode: str = "kernel"
    shap_samples: int = 512
    aggregation: str = "frcnn"

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.epochs_det < 1 or self.epochs_clf < 1:
            raise ValidationError("epoch counts must be >= 1")
        if not all(np.isfinite(rate) and rate > 0 for rate in (self.lr_det, self.lr_clf)):
            raise ValidationError("learning rates must be finite and positive")
        if not (np.isfinite(self.s) and np.isfinite(self.v_threshold)):
            raise ValidationError("thresholds s and v_threshold must be finite")
        if self.shap_mode not in SHAP_MODES:
            raise ValidationError(f"unknown shap mode {self.shap_mode!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"unknown aggregation mode {self.aggregation!r}")
        if self.background_size < 1:
            raise ValidationError("background_size must be >= 1")


@dataclass(frozen=True)
class RunArtifacts:
    detector: PartDetector
    classifier: MLPClassifier
    background: BackgroundSet
    config: TrainConfig
    per_epoch: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    ged_per_instance: dict[str, int] = field(default_factory=dict)


def descriptors(
    det: PartDetector, split: PackedSplit, kg: KnowledgeGraph, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one inference pass over a split: one detection call for all its regions.

    Returns the aggregated descriptors (N, n), the object labels (N,) and
    the predicted part index of every region (R,), in the split's row order.
    """
    x, predicted = detect_split(det, split, mode)
    y = np.array([kg.object_index(inst.gt_object_class) for inst in split])
    return x, y, predicted


def _train(
    kg: KnowledgeGraph,
    splits: tuple[list[SceneInstance], list[SceneInstance], list[SceneInstance]],
    cfg: TrainConfig,
) -> RunArtifacts:
    """The one training loop; `cfg.scheme` decides whether epochs are weighted."""
    train_split, _, test_split = splits
    # refuse what the estimators or evaluate would refuse, before any epoch runs
    for name, split in (("training", train_split), ("test", test_split)):
        if not split:
            raise ValidationError(f"{name} split is empty")
    n = kg.num_parts
    if (cfg.shap_mode == "kernel" or cfg.scheme is not None) and cfg.shap_samples < 2 * n:
        raise ValidationError(
            f"need at least 2n = {2 * n} coalition samples, got {cfg.shap_samples}"
        )
    if cfg.shap_mode == "exact" and n > EXACT_MAX_FEATURES:
        raise ValidationError(
            f"exact attributions take at most {EXACT_MAX_FEATURES} parts and the "
            f"knowledge graph has {n}; use the kernel mode"
        )
    kg_matrix = attribution_matrix(kg)
    # packed once: every detector epoch and descriptor pass reads these arrays
    packed = PackedSplit.pack(train_split, kg.part_classes)
    det = PartDetector.create(kg, packed.features.shape[1])
    weights: np.ndarray | None = None  # the previous epoch's multipliers
    per_epoch: list[dict] = []
    for epoch in range(1, cfg.epochs_det + 1):
        det, det_loss = train_detector_epoch(
            det,
            packed,
            weights,
            rng=_derived_rng(cfg.seed, _TAG_BATCH, epoch),
            learning_rate=cfg.lr_det,
        )
        params = (det.weights, det.bias)
        if not (np.isfinite(det_loss) and all(np.all(np.isfinite(p)) for p in params)):
            raise NumericalError(f"detector loss or weights became non-finite at epoch {epoch}")
        alpha = {"alpha_mean": 1.0, "alpha_max": 1.0}
        if cfg.scheme is not None or epoch == cfg.epochs_det:
            x_train, y_train, predicted = descriptors(det, packed, kg, cfg.aggregation)
            clf_seed = derive_seed(cfg.seed, _TAG_CLF, epoch)
            clf = train_classifier(
                MLPClassifier.create(kg, seed=clf_seed),
                x_train, y_train, cfg.epochs_clf, cfg.lr_clf, seed=clf_seed,
            )
            background = BackgroundSet.sample(
                x_train, cfg.background_size, derive_seed(cfg.seed, _TAG_BG, epoch)
            )
        if cfg.scheme is not None:
            # always sampled: it scores the whole training split every epoch
            seeds = [
                derive_seed(cfg.seed, _TAG_SHAP_TRAIN, epoch, index)
                for index in range(len(packed))
            ]
            shap_values = shap_matrix(
                clf, x_train, background, "kernel", cfg.shap_samples, seed=seeds
            )
            weights = region_weights(
                shap_values[np.arange(len(packed)), y_train],
                kg_matrix[y_train],
                x_train,
                predicted,
                packed.counts,
                cfg.scheme,
                cfg.v_threshold,
            )
            alpha = {"alpha_mean": float(weights.mean()), "alpha_max": float(weights.max())}
        per_epoch.append({"epoch": epoch, "det_loss": det_loss, **alpha})
    return evaluate(RunArtifacts(det, clf, background, cfg, per_epoch), test_split, kg)


def train_standard(
    kg: KnowledgeGraph,
    splits: tuple[list[SceneInstance], list[SceneInstance], list[SceneInstance]],
    cfg: TrainConfig,
) -> RunArtifacts:
    """Sequential pipeline: full detector training, then the classifier."""
    if cfg.scheme is not None:
        raise ValidationError(
            "standard procedure takes no weighting scheme; use train_shap_backprop"
        )
    return _train(kg, splits, cfg)


def train_shap_backprop(
    kg: KnowledgeGraph,
    splits: tuple[list[SceneInstance], list[SceneInstance], list[SceneInstance]],
    cfg: TrainConfig,
) -> RunArtifacts:
    """Interleaved pipeline with misattribution-weighted detector epochs.

    Weights computed after epoch e apply at epoch e+1; epoch 1 runs with
    unit weights because no classifier exists yet.
    """
    if cfg.scheme is None:
        raise ValidationError("train_shap_backprop requires a weighting scheme")
    return _train(kg, splits, cfg)


def part_macro_accuracy(predicted: np.ndarray, split: PackedSplit, kg: KnowledgeGraph) -> float:
    """Mean over part classes (with test support) of per-class region accuracy.

    `predicted` holds the predicted part index of each of the split's regions.
    """
    labels = split.labels
    totals = np.bincount(labels, minlength=kg.num_parts)
    correct = np.bincount(labels[predicted == labels], minlength=kg.num_parts)
    supported = totals > 0
    if not np.any(supported):
        raise ValidationError("no regions in the split")
    return float(np.mean(correct[supported] / totals[supported]))


def shap_eval_seed(cfg: TrainConfig) -> int:
    """Base seed of test-split attributions; see `alignment.instance_attribution`."""
    return derive_seed(cfg.seed, _TAG_SHAP_EVAL)


def evaluate(
    artifacts: RunArtifacts, test_split: list[SceneInstance], kg: KnowledgeGraph
) -> RunArtifacts:
    """A copy of the run with its test-split metrics and per-instance distances."""
    if not test_split:
        raise ValidationError("test split is empty")
    cfg = artifacts.config
    split = PackedSplit.pack(test_split, kg.part_classes)
    x_test, y_test, predicted = descriptors(artifacts.detector, split, kg, cfg.aggregation)
    ged_mean, ged_per_instance = mean_shap_ged(
        artifacts.classifier, x_test, [inst.id for inst in test_split], kg,
        artifacts.background, cfg.s, cfg.shap_mode, cfg.shap_samples, shap_eval_seed(cfg),
    )
    metrics = {
        "part_macro_accuracy": part_macro_accuracy(predicted, split, kg),
        "accuracy": accuracy(artifacts.classifier, x_test, y_test),
        "mean_shap_ged": ged_mean,
    }
    return replace(artifacts, metrics=metrics, ged_per_instance=ged_per_instance)


def _integral(value) -> int:
    # int() alone would read a seed of 1.5 as 1
    if int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


# (name, cast) of each TrainConfig field but `scheme`, which the echo spells as mode, scheme, h
_ECHO_FIELDS = tuple(
    (f.name, {"int": _integral, "float": float, "str": str}[f.type])
    for f in fields(TrainConfig)
    if f.name != "scheme"
)


def config_echo(cfg: TrainConfig) -> dict:
    echo = {name: getattr(cfg, name) for name, _ in _ECHO_FIELDS}
    echo["mode"] = "standard" if cfg.scheme is None else "shap-backprop"
    echo["scheme"] = None if cfg.scheme is None else cfg.scheme.kind
    echo["h"] = WeightScheme.h if cfg.scheme is None else cfg.scheme.h
    return echo


def config_from_echo(echo: dict) -> TrainConfig:
    """Inverse of `config_echo`; a missing or ill-typed field is a ValidationError naming it.

    A value the config itself rejects keeps the config's own message.
    """
    if not isinstance(echo, dict):
        raise ValidationError("malformed run configuration: not a JSON object")
    echo = {"h": WeightScheme.h, **echo}
    values = {}
    for name, cast in (*_ECHO_FIELDS, ("h", float)):
        try:
            values[name] = cast(echo[name])
        except (KeyError, OverflowError, TypeError, ValueError):
            problem = "ill-typed" if name in echo else "missing"
            raise ValidationError(f"malformed run configuration: {name} is {problem}") from None
    h = values.pop("h")
    scheme = WeightScheme(echo["scheme"], h) if echo.get("scheme") else None
    return TrainConfig(scheme=scheme, **values)


def metrics_report(artifacts: RunArtifacts) -> dict:
    return {
        "config": config_echo(artifacts.config),
        "metrics": artifacts.metrics,
        "per_epoch": artifacts.per_epoch,
    }

