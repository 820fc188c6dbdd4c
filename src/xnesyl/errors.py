"""Exception types shared across the package, and the checked JSON reader.

The CLI maps these onto distinct exit codes, so raising the right class
matters: ValidationError for bad inputs (files, labels, flag values that
pass parsing but fail semantic checks) and NumericalError for failures of
the numerics themselves (singular systems, non-finite losses).
"""

from __future__ import annotations

import json
from pathlib import Path


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed (singular system, divergence, non-finite loss)."""


def read_json_object(
    path: str | Path, what: str, kind: str | None = None, keys: tuple[str, ...] = ()
) -> dict:
    """A JSON object file holding `keys` (and `"kind": kind` when given).

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
