"""Object classifier: forward pass, gradients, training, accuracy."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xnesyl import streams
from xnesyl.classifier import (
    BATCH_SIZE,
    MOMENTUM,
    MLPClassifier,
    accuracy,
    load_classifier,
    loss_and_grad,
    save_classifier,
    train_classifier,
)
from xnesyl.detector import softmax
from xnesyl.errors import NumericalError, ValidationError


def random_classifier(kg, seed):
    clf = MLPClassifier.create(kg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    clf.w1 = rng.normal(scale=0.5, size=clf.w1.shape)
    clf.b1 = rng.normal(scale=0.1, size=clf.b1.shape)
    clf.w2 = rng.normal(scale=0.5, size=clf.w2.shape)
    clf.b2 = rng.normal(scale=0.1, size=clf.b2.shape)
    return clf


def reference_loss_and_grad(clf, x, labels):
    """The batch loss and gradients computed one fresh array per parameter."""
    batch = x.shape[0]
    z1 = x @ clf.w1.T + clf.b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ clf.w2.T + clf.b2
    z = z2 - z2.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    dz2, logp = e / total, z - np.log(total)
    loss = float(-logp[np.arange(batch), labels].mean())
    dz2[np.arange(batch), labels] -= 1.0
    dz2 /= batch
    dz1 = (dz2 @ clf.w2) * (z1 > 0.0)
    return loss, [dz1.T @ x, dz1.sum(axis=0), dz2.T @ hidden, dz2.sum(axis=0)]


def reference_train(clf, x, labels, epochs, learning_rate, seed):
    """Momentum SGD stepping each parameter array on its own."""
    rng = streams.rng(seed, streams.Tag.CLF_BATCH)
    model = clf.copy()
    velocity = [np.zeros_like(p) for p in model.parameters()]
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            _, grads = reference_loss_and_grad(model, x[idx], labels[idx])
            for p, v, g in zip(model.parameters(), velocity, grads):
                v *= MOMENTUM
                v -= learning_rate * g
                p += v
    return model


class TestForward:
    def test_zero_weights_uniform(self, monumai):
        clf = MLPClassifier.create(monumai, seed=0)
        clf.w1[:] = 0.0
        clf.w2[:] = 0.0
        probs = clf.predict_proba(np.ones(monumai.num_parts))
        np.testing.assert_allclose(probs, 1.0 / monumai.num_object_classes)

    def test_outputs_sum_to_one(self, monumai):
        clf = random_classifier(monumai, 1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            probs = clf.predict_proba(rng.uniform(0, 3, size=monumai.num_parts))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= 0)

    def test_dimension_mismatch(self, monumai):
        clf = MLPClassifier.create(monumai, seed=0)
        with pytest.raises(ValidationError, match="dim"):
            clf.predict_proba(np.zeros(monumai.num_parts + 1))

    def test_hidden_width_default(self, monumai):
        clf = MLPClassifier.create(monumai, seed=0)
        assert clf.w1.shape == (11, monumai.num_parts)

    def test_permutation_consistency(self, monumai):
        # permuting descriptor entries together with input weights leaves
        # the outputs unchanged
        clf = random_classifier(monumai, 3)
        rng = np.random.default_rng(4)
        v = rng.uniform(0, 2, size=monumai.num_parts)
        perm = rng.permutation(monumai.num_parts)
        permuted = clf.copy()
        permuted.w1 = clf.w1[:, perm]
        np.testing.assert_allclose(
            permuted.predict_proba(v[perm]), clf.predict_proba(v), atol=1e-12
        )

    @given(
        st.integers(1, 16), st.integers(1, 12), st.integers(1, 6), st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_class_major_softmax_is_bitwise_row_major(self, n, hidden, m, rows, seed):
        # the head lays the logits out (m, R); the reference is the
        # row-wise softmax over the (R, m) logits
        rng = np.random.default_rng(seed)
        clf = MLPClassifier(
            tuple(f"class {k}" for k in range(m)),
            rng.normal(size=(hidden, n)),
            rng.normal(size=hidden),
            rng.normal(scale=3.0, size=(m, hidden)),
            rng.normal(size=m),
        )
        x = rng.normal(scale=2.0, size=(rows, n))
        for batch in (x, x[:1]):
            logits = np.maximum(batch @ clf.w1.T + clf.b1, 0.0) @ clf.w2.T + clf.b2
            np.testing.assert_array_equal(clf.predict_proba(batch), softmax(logits))
            np.testing.assert_array_equal(clf(batch), softmax(logits))
        np.testing.assert_array_equal(clf.predict_proba(x[0]), clf.predict_proba(x[:1])[0])


class TestGradients:
    def test_matches_finite_differences(self, monumai):
        rng = np.random.default_rng(5)
        for probe in range(10):
            clf = random_classifier(monumai, 50 + probe)
            x = rng.uniform(0, 2, size=(6, monumai.num_parts))
            y = rng.integers(0, monumai.num_object_classes, size=6)
            _, grads = loss_and_grad(clf, x, y)
            directions = [rng.normal(size=g.shape) for g in grads]
            analytic = float(sum((g * d).sum() for g, d in zip(grads, directions)))
            h = 1e-5
            plus, minus = clf.copy(), clf.copy()
            for p, d in zip(plus.parameters(), directions):
                p += h * d
            for p, d in zip(minus.parameters(), directions):
                p -= h * d
            numeric = (loss_and_grad(plus, x, y)[0] - loss_and_grad(minus, x, y)[0]) / (2 * h)
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric)) <= 1e-4


class TestFlatStep:
    """The flat-buffer step against a per-parameter reference, bit for bit."""

    @pytest.mark.parametrize(
        "count, epochs", [(36, 60), (30, 40), (1, 3), (BATCH_SIZE + 1, 5), (600, 60)]
    )
    def test_bitwise_equal_to_per_parameter_step(self, monumai, count, epochs):
        rng = np.random.default_rng(count)
        x = rng.uniform(0, 3, size=(count, monumai.num_parts)) * (rng.random((count, 1)) > 0.5)
        y = rng.integers(0, monumai.num_object_classes, size=count)
        clf = MLPClassifier.create(monumai, seed=count)
        trained = train_classifier(clf, x, y, epochs, 0.05, seed=count)
        expected = reference_train(clf, x, y, epochs, 0.05, seed=count)
        for got, want in zip(trained.parameters(), expected.parameters()):
            np.testing.assert_array_equal(got, want)
        loss, grads = loss_and_grad(trained, x, y)
        want_loss, want_grads = reference_loss_and_grad(trained, x, y)
        assert loss == want_loss
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_nan_feature_message(self, monumai):
        x = np.ones((40, monumai.num_parts))
        x[37, 3] = np.nan
        y = np.arange(40) % monumai.num_object_classes
        clf = MLPClassifier.create(monumai, seed=1)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="^classifier loss became non-finite at epoch 1$"
        ):
            train_classifier(clf, x, y, 3, 0.05, seed=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_message(self, monumai, value):
        x = np.ones((40, monumai.num_parts))
        y = np.arange(40) % monumai.num_object_classes
        clf = MLPClassifier.create(monumai, seed=2)
        clf.w2[1, 4] = value
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="^classifier loss became non-finite at epoch 1$"
        ):
            train_classifier(clf, x, y, 3, 0.05, seed=2)


class TestTraining:
    def _separable_data(self, monumai, per_class=30, seed=6):
        # one indicative part per class, cleanly separated descriptors
        rng = np.random.default_rng(seed)
        n, m = monumai.num_parts, monumai.num_object_classes
        xs, ys = [], []
        for k in range(m):
            base = np.zeros(n)
            base[k] = 3.0
            for _ in range(per_class):
                xs.append(base + rng.uniform(0, 0.3, size=n))
                ys.append(k)
        return np.array(xs), np.array(ys)

    def test_loss_trend_non_increasing(self, monumai):
        x, y = self._separable_data(monumai)
        clf = MLPClassifier.create(monumai, seed=7)
        losses = []
        model = clf
        for _ in range(12):
            model = train_classifier(model, x, y, epochs=1, learning_rate=0.05, seed=8)
            losses.append(loss_and_grad(model, x, y)[0])
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6

    def test_single_class_dataset(self, monumai):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=(40, monumai.num_parts))
        y = np.full(40, 2)
        clf = train_classifier(
            MLPClassifier.create(monumai, seed=10), x, y, epochs=30,
            learning_rate=0.1, seed=10,
        )
        assert np.all(np.argmax(clf.predict_proba(x), axis=1) == 2)

    def test_deterministic_under_seed(self, monumai):
        x, y = self._separable_data(monumai)
        a = train_classifier(
            MLPClassifier.create(monumai, seed=11), x, y, 5, 0.05, seed=11
        )
        b = train_classifier(
            MLPClassifier.create(monumai, seed=11), x, y, 5, 0.05, seed=11
        )
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_training_set_rejected(self, monumai):
        clf = MLPClassifier.create(monumai, seed=0)
        with pytest.raises(ValidationError, match="empty"):
            train_classifier(clf, np.zeros((0, monumai.num_parts)), np.zeros(0), 1, 0.1, 0)

    def test_divergence_reports_epoch(self, monumai):
        # identical inputs with conflicting labels cannot be fit, so an
        # absurd learning rate must blow the weights up to non-finite
        from xnesyl.errors import NumericalError

        x = np.ones((8, monumai.num_parts))
        y = np.arange(8) % monumai.num_object_classes
        clf = MLPClassifier.create(monumai, seed=15)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="epoch"):
            train_classifier(clf, x, y, epochs=5, learning_rate=1e200, seed=15)


class TestAccuracy:
    def test_all_correct(self, monumai):
        x, _ = np.eye(monumai.num_parts), None
        clf = MLPClassifier.create(monumai, seed=12)
        labels = np.argmax(clf.predict_proba(x), axis=1)
        assert accuracy(clf, x, labels) == 1.0

    def test_all_wrong(self, monumai):
        x = np.eye(monumai.num_parts)
        clf = MLPClassifier.create(monumai, seed=13)
        predicted = np.argmax(clf.predict_proba(x), axis=1)
        wrong = (predicted + 1) % monumai.num_object_classes
        assert accuracy(clf, x, wrong) == 0.0

    def test_empty_set_rejected(self, monumai):
        clf = MLPClassifier.create(monumai, seed=0)
        with pytest.raises(ValidationError, match="empty"):
            accuracy(clf, np.zeros((0, monumai.num_parts)), np.zeros(0))


def test_checkpoint_round_trip(monumai, tmp_path):
    clf = random_classifier(monumai, 14)
    path = tmp_path / "classifier.json"
    save_classifier(clf, path)
    back = load_classifier(path)
    assert back.object_classes == clf.object_classes
    for pa, pb in zip(back.parameters(), clf.parameters()):
        np.testing.assert_array_equal(pa, pb)
