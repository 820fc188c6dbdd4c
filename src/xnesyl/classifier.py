"""Stage two: a small MLP mapping part descriptors to object-class probabilities.

One hidden rectifier layer (HIDDEN_UNITS = 11), softmax output,
trained by mini-batch SGD with momentum on cross-entropy. Gradients are
exact and finite-difference checked in the test suite; the whole model
stays in plain numpy so every number is auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import streams
from .detector import softmax
from .errors import (
    NumericalError, ValidationError, read_json_array, read_json_labels, read_json_object,
)
from .kg import KnowledgeGraph

__all__ = [
    "MLPClassifier",
    "loss_and_grad",
    "train_classifier",
    "accuracy",
    "save_classifier",
    "load_classifier",
]

HIDDEN_UNITS = 11
BATCH_SIZE = 32  # descriptors per SGD step
MOMENTUM = 0.9


@dataclass
class MLPClassifier:
    object_classes: tuple[str, ...]
    w1: np.ndarray  # (hidden, n)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (m, hidden)
    b2: np.ndarray  # (m,)

    @classmethod
    def create(cls, kg: KnowledgeGraph, seed: int) -> "MLPClassifier":
        rng = streams.rng(seed, streams.Tag.CLF_INIT)
        n, m = kg.num_parts, kg.num_object_classes
        return cls(
            object_classes=kg.object_classes,
            w1=rng.normal(0.0, 1.0 / np.sqrt(n), size=(HIDDEN_UNITS, n)),
            b1=np.zeros(HIDDEN_UNITS),
            w2=rng.normal(0.0, 1.0 / np.sqrt(HIDDEN_UNITS), size=(m, HIDDEN_UNITS)),
            b2=np.zeros(m),
        )

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(B, n) descriptor rows to (B, m) class probability rows."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValidationError(
                f"descriptor has dim {x.shape[1]}, classifier expects {self.input_dim}"
            )
        probs = self.head(x @ self.w1.T + self.b1)
        return probs[0] if squeeze else probs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x)

    @property
    def first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """The affine first layer (weight (hidden, n), bias (hidden,))."""
        return self.w1, self.b1

    def head(self, pre: np.ndarray) -> np.ndarray:
        """(R, hidden) first-layer outputs to (R, m) class probability rows.

        Applies the rectifier, the second layer and the softmax. The logits
        are laid out class-major, (m, R), so the softmax reduces across m
        contiguous rows instead of along R rows of m values; every element
        goes through the same operations as `detector.softmax` on the
        row-major logits, so the result is bitwise equal to it. The rectifier
        is applied in place, so `pre` is overwritten.
        """
        hidden = np.maximum(pre, 0.0, out=pre)
        logits = self.w2 @ hidden.T
        logits += self.b2[:, None]
        logits -= logits.max(axis=0)
        probs = np.exp(logits, out=logits)
        probs /= probs.sum(axis=0)
        return probs.T

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "MLPClassifier":
        return MLPClassifier(self.object_classes, *(p.copy() for p in self.parameters()))


def _flat_views(params: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer holding `params`, and views of it shaped like each of them."""
    flat = np.concatenate(params, axis=None)
    bounds = np.cumsum([p.size for p in params])[:-1]
    return flat, [part.reshape(p.shape) for part, p in zip(np.split(flat, bounds), params)]


def _loss_and_grad_into(
    clf: MLPClassifier, x: np.ndarray, labels: np.ndarray, rows: np.ndarray, grads: list
) -> float:
    """Mean cross-entropy over the batch; writes the exact gradients into `grads`.

    `rows` is `np.arange(len(x))`; `grads` are arrays shaped like the parameters.
    """
    z1 = x @ clf.w1.T + clf.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ clf.w2.T + clf.b2
    dz2, logp = softmax(z2, with_log=True)
    batch = x.shape[0]
    loss = float(-(logp[rows, labels].sum() / batch))  # the mean, without its wrapper's cost
    dz2[rows, labels] -= 1.0
    dz2 /= batch
    grad_w1, grad_b1, grad_w2, grad_b2 = grads
    np.matmul(dz2.T, hidden, out=grad_w2)
    dz2.sum(axis=0, out=grad_b2)
    dz1 = dz2 @ clf.w2
    dz1 *= z1 > 0.0
    np.matmul(dz1.T, x, out=grad_w1)
    dz1.sum(axis=0, out=grad_b1)
    return loss


def loss_and_grad(
    clf: MLPClassifier, x: np.ndarray, labels: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch and exact gradients, in parameter order."""
    x = np.asarray(x, dtype=np.float64)
    grads = [np.empty_like(p) for p in clf.parameters()]
    loss = _loss_and_grad_into(clf, x, np.asarray(labels), np.arange(x.shape[0]), grads)
    return loss, grads


def train_classifier(
    clf: MLPClassifier,
    descriptors: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> MLPClassifier:
    """Mini-batch SGD with momentum; deterministic given the seed.

    The returned model's parameters are views of one flat buffer, and each
    step writes its gradients into views of another, so a momentum step is
    a few in-place operations on flat arrays.
    Raises NumericalError naming the epoch if the loss goes non-finite.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels)
    if descriptors.shape[0] == 0:
        raise ValidationError("cannot train the classifier on an empty set")
    if descriptors.shape[0] != labels.shape[0]:
        raise ValidationError("descriptor and label counts differ")
    rng = streams.rng(seed, streams.Tag.CLF_BATCH)
    flat, views = _flat_views(clf.parameters())
    model = MLPClassifier(clf.object_classes, *views)
    grad, grads = _flat_views(clf.parameters())
    velocity = np.zeros_like(flat)
    count = descriptors.shape[0]
    rows = np.arange(min(count, BATCH_SIZE))
    for epoch in range(1, epochs + 1):
        order = rng.permutation(count)
        epoch_loss = 0.0
        for start in range(0, count, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            loss = _loss_and_grad_into(
                model, descriptors[idx], labels[idx], rows[: len(idx)], grads
            )
            epoch_loss += loss * len(idx)
            velocity *= MOMENTUM
            grad *= learning_rate
            velocity -= grad
            flat += velocity
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"classifier loss became non-finite at epoch {epoch}")
    return model


def accuracy(clf: MLPClassifier, descriptors: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels)
    if descriptors.shape[0] == 0:
        raise ValidationError("accuracy of an empty set is undefined")
    predictions = np.argmax(clf.predict_proba(descriptors), axis=1)
    return float(np.mean(predictions == labels))


def save_classifier(clf: MLPClassifier, path: str | Path) -> None:
    doc = {
        "kind": "mlp_classifier",
        "object_classes": list(clf.object_classes),
        "input_dim": clf.input_dim,
        "hidden_units": clf.w1.shape[0],
        "w1": clf.w1.tolist(),
        "b1": clf.b1.tolist(),
        "w2": clf.w2.tolist(),
        "b2": clf.b2.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_classifier(path: str | Path) -> MLPClassifier:
    doc = read_json_object(
        path, "classifier checkpoint", "mlp_classifier",
        ("object_classes", "input_dim", "hidden_units", "w1", "b1", "w2", "b2"),
    )
    object_classes = read_json_labels(path, doc, "object_classes")
    hidden, m = doc["hidden_units"], len(object_classes)
    return MLPClassifier(
        object_classes=object_classes,
        w1=read_json_array(path, doc, "w1", (hidden, doc["input_dim"])),
        b1=read_json_array(path, doc, "b1", (hidden,)),
        w2=read_json_array(path, doc, "w2", (m, hidden)),
        b2=read_json_array(path, doc, "b2", (m,)),
    )
