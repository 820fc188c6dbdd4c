"""Part-based scene classification aligned with expert knowledge graphs.

The pipeline: a per-region part detector feeds an aggregation step that
produces a tabular per-part descriptor, a small MLP classifies the
descriptor into an object class, and Shapley attributions of that
classifier are compared against an expert knowledge graph, both to score
explainability (a per-instance graph distance averaged over a test set)
and to reweight the detector loss during training so the learned
attributions move toward the expert's.

Library names are imported from their modules (`xnesyl.training`,
`xnesyl.alignment`, ...); the package itself re-exports only the graph
loader, the graph-only baseline and the attribution entry point.
"""

from .kg import deterministic_classify, monumai_kg
from .shapley import shap_matrix

__version__ = "0.1.0"

__all__ = ["deterministic_classify", "monumai_kg", "shap_matrix"]
