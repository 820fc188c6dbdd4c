"""Part-based scene classification aligned with expert knowledge graphs.

The pipeline: a per-region part detector feeds an aggregation step that
produces a tabular per-part descriptor, a small MLP classifies the
descriptor into an object class, and Shapley attributions of that
classifier are compared against an expert knowledge graph, both to score
explainability (a per-instance graph distance averaged over a test set)
and to reweight the detector loss during training so the learned
attributions move toward the expert's.
"""

from .alignment import (
    SAG,
    WeightScheme,
    alpha_bbox,
    alpha_instance,
    build_sag,
    mean_shap_ged,
    misattribution,
    region_weights,
    shap_ged,
)
from .classifier import MLPClassifier, accuracy, train_classifier
from .datagen import (
    GeneratorConfig,
    Region,
    SceneInstance,
    generate_dataset,
    read_dataset,
    split_dataset,
    write_dataset,
)
from .detector import (
    DetectionSet,
    PartDetector,
    aggregate_frcnn,
    aggregate_retina,
    detect,
    train_detector_epoch,
    weighted_roi_loss,
)
from .errors import NumericalError, ValidationError
from .kg import (
    KnowledgeGraph,
    attribution_matrix,
    deterministic_classify,
    load_kg,
    monumai_kg,
    project,
)
from .shapley import BackgroundSet, shap_matrix, shap_summary
from .training import RunArtifacts, TrainConfig, evaluate, train_shap_backprop, train_standard

__version__ = "0.1.0"

__all__ = [
    "SAG",
    "WeightScheme",
    "alpha_bbox",
    "alpha_instance",
    "build_sag",
    "mean_shap_ged",
    "misattribution",
    "region_weights",
    "shap_ged",
    "MLPClassifier",
    "accuracy",
    "train_classifier",
    "GeneratorConfig",
    "Region",
    "SceneInstance",
    "generate_dataset",
    "read_dataset",
    "split_dataset",
    "write_dataset",
    "DetectionSet",
    "PartDetector",
    "aggregate_frcnn",
    "aggregate_retina",
    "detect",
    "train_detector_epoch",
    "weighted_roi_loss",
    "NumericalError",
    "ValidationError",
    "KnowledgeGraph",
    "attribution_matrix",
    "deterministic_classify",
    "load_kg",
    "monumai_kg",
    "project",
    "BackgroundSet",
    "shap_matrix",
    "shap_summary",
    "RunArtifacts",
    "TrainConfig",
    "evaluate",
    "train_shap_backprop",
    "train_standard",
]
