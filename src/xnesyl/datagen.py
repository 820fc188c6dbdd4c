"""Synthetic, knowledge-graph-consistent scene datasets.

Each scene instance stands in for an annotated image: a ground-truth
object class plus a handful of labeled regions, where every region
carries a feature vector drawn from an isotropic unit-variance Gaussian
centered at its part's mean. Part means are placed pairwise at least
`separation` apart, so detector difficulty is a knob rather than an
accident of the data.

Label noise flips a region's part to one that is *atypical* of the
instance's object class, which is exactly the kind of systematic
misattribution the alignment machinery is meant to detect and correct.

Dataset file format (JSON Lines, UTF-8), one instance per line::

    {"id": "...", "object_class": "...",
     "regions": [{"part_class": "...", "features": [f, ...]}, ...]}
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import streams
from .errors import ValidationError
from .kg import KnowledgeGraph

__all__ = [
    "Region",
    "SceneInstance",
    "GeneratorConfig",
    "generate_dataset",
    "part_means",
    "write_dataset",
    "read_dataset",
    "read_test_split",
    "locate_instance",
    "split_dataset",
]


@dataclass(frozen=True, eq=False)
class Region:
    """One labeled region of a scene: a part label plus its feature vector."""

    gt_part_class: str
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=np.float64)
        )
        if self.features.ndim != 1:
            raise ValidationError("region features must be a flat vector")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError(
                f"region with part {self.gt_part_class!r} has non-finite features"
            )

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self.gt_part_class == other.gt_part_class and np.array_equal(
            self.features, other.features
        )


@dataclass(frozen=True)
class SceneInstance:
    """A synthetic scene: ground-truth object class plus labeled regions."""

    id: str
    gt_object_class: str
    regions: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValidationError(f"instance {self.id!r} has no regions")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    feature_dim: int = 8
    regions_per_instance: tuple[int, int] = (2, 6)
    noise_rate: float = 0.0
    separation: float = 6.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < 2:
            raise ValidationError("feature_dim must be >= 2")
        lo, hi = self.regions_per_instance
        if lo < 1 or hi < lo:
            raise ValidationError(
                f"regions_per_instance range {self.regions_per_instance} is invalid"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValidationError("noise_rate must lie in [0, 1]")
        # a nan or inf separation would stall the placement loop in part_means
        if not (np.isfinite(self.separation) and self.separation > 0.0):
            raise ValidationError("separation must be finite and positive")


def part_means(kg: KnowledgeGraph, cfg: GeneratorConfig) -> np.ndarray:
    """Deterministic (n, d) matrix of part-conditional feature means.

    Means are drawn from a seeded Gaussian and accepted greedily only if
    at least `separation` away from every mean placed so far; the
    proposal radius grows if placement stalls so termination is
    guaranteed.
    """
    rng = streams.rng(cfg.seed, streams.Tag.PART_MEANS)
    n, d = kg.num_parts, cfg.feature_dim
    means = np.zeros((n, d))
    radius = cfg.separation
    placed = 0
    while placed < n:
        for _ in range(200):
            candidate = rng.normal(0.0, radius, size=d)
            if placed == 0 or np.min(
                np.linalg.norm(means[:placed] - candidate, axis=1)
            ) >= cfg.separation:
                means[placed] = candidate
                placed += 1
                break
        else:
            radius *= 1.5
    return means


def generate_dataset(
    kg: KnowledgeGraph, cfg: GeneratorConfig, count: int
) -> list[SceneInstance]:
    """Generate `count` instances, deterministic given (kg, cfg, count).

    Per instance: the object class is uniform, the region count uniform
    over the configured range, and each region's part is typical of the
    class with probability 1 - noise_rate (uniform among typical parts)
    or atypical otherwise (uniform among atypical parts). When the class
    has class-unique parts, one clean region is redrawn to carry one if
    none did, so every instance with a clean region keeps at least one
    unambiguous class marker.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    # (typical, atypical, unique) parts depend only on the class
    parts_of = {
        obj: (kg.typical_parts(obj), kg.atypical_parts(obj), set(kg.unique_parts(obj)))
        for obj in kg.object_classes
    }
    for obj, (typical, _, _) in parts_of.items():
        if not typical and cfg.noise_rate < 1.0:
            raise ValidationError(
                f"object class {obj!r} has no typical parts; cannot generate clean regions"
            )
    means = part_means(kg, cfg)
    rng = streams.rng(cfg.seed, streams.Tag.SCENES)
    lo, hi = cfg.regions_per_instance
    instances: list[SceneInstance] = []
    for i in range(count):
        obj = kg.object_classes[rng.integers(0, kg.num_object_classes)]
        typical, atypical, unique = parts_of[obj]
        n_regions = int(rng.integers(lo, hi + 1))
        parts: list[str] = []
        clean: list[bool] = []
        for _ in range(n_regions):
            if atypical and rng.random() < cfg.noise_rate:
                parts.append(atypical[rng.integers(0, len(atypical))])
                clean.append(False)
            else:
                parts.append(typical[rng.integers(0, len(typical))])
                clean.append(True)
        if unique and not any(p in unique for p in parts):
            clean_slots = [r for r, ok in enumerate(clean) if ok]
            if clean_slots:
                ordered_unique = [p for p in typical if p in unique]
                parts[clean_slots[0]] = ordered_unique[
                    rng.integers(0, len(ordered_unique))
                ]
        regions = tuple(
            Region(p, means[kg.part_index(p)] + rng.standard_normal(cfg.feature_dim))
            for p in parts
        )
        instances.append(SceneInstance(f"inst-{i:06d}", obj, regions))
    return instances


def write_dataset(instances: list[SceneInstance], path: str | Path) -> None:
    lines = []
    for inst in instances:
        doc = {
            "id": inst.id,
            "object_class": inst.gt_object_class,
            "regions": [
                {"part_class": r.gt_part_class, "features": r.features.tolist()}
                for r in inst.regions
            ],
        }
        lines.append(json.dumps(doc, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _dataset_lines(p: Path):
    """(line number, parsed JSON) of every non-blank line of the dataset file `p`.

    Every line must hold a string id that no other line repeats.
    """
    if not p.exists():
        raise ValidationError(f"dataset file not found: {p}")
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; number the lines as a text-mode file would
        before = io.StringIO(data[: exc.start].decode("utf-8") + "?", newline=None)
        raise ValidationError(f"{p}:{len(before.readlines())}: not UTF-8 text: {exc}") from exc
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            inst_id = doc["id"]
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{p}:{lineno}: malformed JSON line: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{p}:{lineno}: missing or malformed field: {exc}") from exc
        if not isinstance(inst_id, str):
            raise ValidationError(f"{p}:{lineno}: instance id must be a string")
        if inst_id in id_lines:
            raise ValidationError(
                f"{p}:{lineno}: duplicate instance id {inst_id!r} "
                f"(first at line {id_lines[inst_id]})"
            )
        id_lines[inst_id] = lineno
        yield lineno, doc


def _instances(p: Path, lines, kg: KnowledgeGraph, dim: int | None) -> list[SceneInstance]:
    """The validated instances of `lines`, `_dataset_lines` pairs in file order,
    whose labels belong to `kg` and whose regions' features are all `dim` wide
    (the detector's width), or when `dim` is None as wide as the first's."""
    instances: list[SceneInstance] = []
    first_line = None
    for lineno, doc in lines:
        try:
            regions = tuple(Region(r["part_class"], r["features"]) for r in doc["regions"])
            inst = SceneInstance(doc["id"], doc["object_class"], regions)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{p}:{lineno}: missing or malformed field: {exc}") from exc
        if inst.gt_object_class not in kg.object_classes:
            raise ValidationError(f"{p}:{lineno}: unknown object class {inst.gt_object_class!r}")
        for r in inst.regions:
            if r.gt_part_class not in kg.part_classes:
                raise ValidationError(f"{p}:{lineno}: unknown part class {r.gt_part_class!r}")
        if dim is None:
            dim, first_line = inst.regions[0].features.shape[0], lineno
        width = next((r.features.shape[0] for r in inst.regions if r.features.shape[0] != dim), dim)
        if width != dim:
            raise ValidationError(
                f"{p}:{lineno}: features have dim {width}, detector expects {dim}"
                if first_line is None
                else f"{p}:{lineno}: region feature dimension {width} differs from {dim} "
                f"(line {first_line})"
            )
        instances.append(inst)
    return instances


def read_dataset(path: str | Path, kg: KnowledgeGraph) -> list[SceneInstance]:
    """Read a JSONL dataset whose labels all belong to `kg`.

    Rejects, naming file and line, text that is not UTF-8, duplicate
    instance ids (per-id results would collide) and regions whose feature
    dimension differs from the first region's.
    """
    p = Path(path)
    return _instances(p, _dataset_lines(p), kg, None)


def read_test_split(path: str | Path, kg: KnowledgeGraph, dim: int) -> list[SceneInstance]:
    """`split_dataset(read_dataset(path, kg))[2]`, validating only the test lines.

    Every line must hold a fresh string id, because the split ranks all ids;
    only the test lines are built, and checked as `read_dataset` checks every
    line but against `dim`, the width of the detector that will read them.
    """
    p = Path(path)
    lines = list(_dataset_lines(p))
    test = _split_positions([doc["id"] for _, doc in lines])[2]
    in_file = sorted(test)
    by_position = dict(zip(in_file, _instances(p, [lines[i] for i in in_file], kg, dim)))
    return [by_position[i] for i in test]


def locate_instance(
    path: str | Path, kg: KnowledgeGraph, instance_id: str, dim: int
) -> tuple[int, SceneInstance] | None:
    """`instance_id`'s index in its split and its instance; None if no line holds it.

    Places the instance as `split_dataset(read_dataset(path, kg))` does,
    but of the other lines reads only the ids; its features must be `dim`
    wide, the width of the detector that will read them.
    """
    p = Path(path)
    ids: list[str] = []
    inst = None
    for lineno, doc in _dataset_lines(p):
        ids.append(doc["id"])
        if doc["id"] == instance_id:
            position, inst = len(ids) - 1, _instances(p, [(lineno, doc)], kg, dim)[0]
    if inst is None:
        return None
    split = next(split for split in _split_positions(ids) if position in split)
    return split.index(position), inst


def _id_rank(instance_id: str) -> int:
    # Platform-stable hash; Python's builtin hash() is salted per process.
    return int.from_bytes(hashlib.sha256(instance_id.encode("utf-8")).digest()[:8], "big")


def _split_positions(ids: list[str]) -> tuple[list[int], list[int], list[int]]:
    """Positions in `ids` of the train, val and test splits, each in hash-rank order."""
    keys = [(_id_rank(instance_id), instance_id) for instance_id in ids]
    ranked = sorted(range(len(ids)), key=keys.__getitem__)
    n_train = round(len(ids) * 0.6)
    n_val = round(len(ids) * 0.2)
    return ranked[:n_train], ranked[n_train : n_train + n_val], ranked[n_train + n_val :]


def split_dataset(
    instances: list[SceneInstance],
) -> tuple[list[SceneInstance], list[SceneInstance], list[SceneInstance]]:
    """Deterministic 60/20/20 train/val/test split by hash rank of instance id.

    Ranking (rather than thresholding) the hashes yields exact split
    sizes while staying a pure function of the instance ids.
    """
    splits = _split_positions([inst.id for inst in instances])
    return tuple([instances[i] for i in split] for split in splits)
