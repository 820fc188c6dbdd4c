"""Span tracing of the xnesyl layers, installed from outside the program.

`Tracer.install` replaces each traced function in its defining module and
in every xnesyl module that imported it by name (training, alignment and
cli bind `detect`, `aggregate`, `kernel_shap_matrix`, ... directly), so a
call is recorded whichever binding it goes through.
`MLPClassifier.predict_proba` is wrapped on the class. Nothing under
`src/` knows about tracing; `Tracer.uninstall` restores every binding.

A span is `[name, start, end, parent, child_s, counts]`, kept in memory
and written out by the caller when the run ends. Self time is the span's
duration minus the time its child spans cover. Functions that do not
exist in the program (a later change may remove a private helper) are
listed in `Tracer.absent` and their metrics are left out, not failed.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    def count(tracer, args, kwargs, result):
        return {"bytes": Path(_arg(args, kwargs, index, name)).stat().st_size}

    return count


def _epoch_regions(tracer, args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "dataset")
    return {"regions": sum(len(inst.regions) for inst in dataset)}


def _detect_regions(tracer, args, kwargs, result):
    return {"regions": len(_arg(args, kwargs, 1, "inst").regions)}


def _rows(tracer, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return {"rows": x.shape[0] if x.ndim == 2 else 1}


def _coalitions(tracer, args, kwargs, result):
    masks = _arg(args, kwargs, 3, "masks")
    bg = _arg(args, kwargs, 2, "bg")
    return {"coalitions": masks.shape[0], "rows": masks.shape[0] * bg.size}


def _draws(tracer, args, kwargs, result):
    return {"drawn": _arg(args, kwargs, 1, "num_samples"), "unique": result[0].shape[0]}


def _attribution(tracer, args, kwargs, result):
    # Kept for the efficiency check the runner makes once tracing is off.
    model = _arg(args, kwargs, 0, "model")
    tracer.attributions.append(
        (model, _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "bg"), result)
    )
    return None


LAYERS = ("datagen", "detector", "classifier", "shapley", "alignment", "training", "cli")

# (module, function, span name, counter). Two functions may share a span name.
FUNCTIONS = (
    ("datagen", "generate_dataset", "datagen.generate_dataset", None),
    ("datagen", "write_dataset", "datagen.write_dataset", _file_bytes(1, "path")),
    ("datagen", "read_dataset", "datagen.read_dataset", _file_bytes(0, "path")),
    ("datagen", "split_dataset", "datagen.split_dataset", None),
    ("detector", "train_detector_epoch", "detector.train_detector_epoch", _epoch_regions),
    ("detector", "detect", "detector.detect", _detect_regions),
    ("detector", "aggregate", "detector.aggregate", None),
    ("detector", "save_detector", "detector.checkpoint_io", None),
    ("detector", "load_detector", "detector.checkpoint_io", None),
    ("classifier", "train_classifier", "classifier.train_classifier", None),
    ("classifier", "save_classifier", "classifier.checkpoint_io", None),
    ("classifier", "load_classifier", "classifier.checkpoint_io", None),
    ("shapley", "exact_shap_matrix", "shapley.exact_shap_matrix", _attribution),
    ("shapley", "kernel_shap_matrix", "shapley.kernel_shap_matrix", _attribution),
    ("shapley", "_coalition_values", "shapley.coalition_values", _coalitions),
    ("shapley", "_sample_masks", "shapley.sample_masks", _draws),
    ("shapley", "_kernel_solve", "shapley.kernel_solve", None),
    ("shapley", "_exact_from_values", "shapley.exact_combine", None),
    ("alignment", "mean_shap_ged", "alignment.mean_shap_ged", None),
    ("alignment", "build_sag", "alignment.build_sag", None),
    ("alignment", "shap_ged", "alignment.shap_ged", None),
    ("alignment", "region_weights", "alignment.region_weights", None),
    ("training", "train_standard", "training.train", None),
    ("training", "train_shap_backprop", "training.train", None),
    ("training", "evaluate", "training.evaluate", None),
)

# (module, class, method, span name, counter)
METHODS = (("classifier", "MLPClassifier", "predict_proba", "classifier.predict_proba", _rows),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.attributions: list[tuple] = []
        self.absent: list[str] = []
        self.present: set[str] = set()
        self.recording = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += now - span[1]

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if counter is not None:
                tracer.spans[index][5] = counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name in LAYERS:
            importlib.import_module(f"xnesyl.{name}")
        loaded = [
            m for name, m in list(sys.modules.items())
            if name == "xnesyl" or name.startswith("xnesyl.")
        ]
        for module_name, attr, span_name, counter in FUNCTIONS:
            home = sys.modules[f"xnesyl.{module_name}"]
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.present.add(span_name)
            wrapper = self._wrap(original, span_name, counter)
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        for module_name, cls_name, attr, span_name, counter in METHODS:
            cls = getattr(sys.modules[f"xnesyl.{module_name}"], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self.present.add(span_name)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span_name, counter))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def totals(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-name calls, self seconds and counts over spans[first:last]."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _parent, child_s, counts in spans[first:last]:
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += (end - start) - child_s
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] += value
    return out


def median_totals(groups: dict[str, list[dict[str, float]]]) -> dict[str, float]:
    """Sum over group kinds of the per-key median over that kind's groups."""
    out: dict[str, float] = defaultdict(float)
    for group_list in groups.values():
        keys = set().union(*group_list) if group_list else set()
        for key in keys:
            out[key] += statistics.median(g.get(key, 0.0) for g in group_list)
    return out
