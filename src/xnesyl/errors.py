"""Exception types shared across the package, and the checked JSON readers.

The CLI maps these onto distinct exit codes, so raising the right class
matters: ValidationError for bad inputs (files, labels, flag values that
pass parsing but fail semantic checks) and NumericalError for failures of
the numerics themselves (singular systems, non-finite losses).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed (singular system, divergence, non-finite loss)."""


def read_json_object(
    path: str | Path, what: str, kind: str | None, keys: tuple[str, ...]
) -> dict:
    """A JSON object file holding `keys` (and `"kind": kind` unless kind is None).

    Every failure, from a missing file to a missing key, is a
    ValidationError whose message names the file.
    """
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{p}: malformed JSON in {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{p}: {what} must be a JSON object")
    if kind is not None and doc.get("kind") != kind:
        raise ValidationError(f"{p} is not a {what}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{p}: {what} lacks {', '.join(missing)}")
    return doc


def read_json_labels(path: str | Path, doc: dict, key: str) -> tuple[str, ...]:
    """`doc[key]` as a tuple of strings, else a ValidationError naming the file and key."""
    labels = doc[key]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValidationError(f"{path}: {key} is not a list of strings")
    return tuple(labels)


def read_json_array(
    path: str | Path, doc: dict, key: str, shape: tuple[int | None, ...]
) -> np.ndarray:
    """`doc[key]` as a finite float array of `shape` (None: any length).

    Ragged, non-numeric, non-finite or wrong-shape values are a
    ValidationError naming the file and the key.
    """
    try:
        values = np.array(doc[key])
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: {key} is not a numeric array")
    if values.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(values.shape, shape)
    ):
        raise ValidationError(f"{path}: {key} has shape {values.shape}, expected {shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: {key} holds non-finite values")
    return values.astype(np.float64)
