"""Attribution estimators against first-principles oracles.

The exact enumerator is itself validated against closed forms (additive
models) and the classical axioms; the kernel estimator is validated
against the exact enumerator.
"""

import contextlib
import errno
import itertools
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xnesyl import shapley as shapley_module
from xnesyl.classifier import MLPClassifier
from xnesyl.errors import NumericalError, ValidationError
from xnesyl.shapley import (
    BackgroundSet,
    _coalition_values,
    _exact_from_values,
    _layered_game_values,
    _sample_masks,
    exact_shap_matrix,
    exact_shap_stack,
    kernel_shap_matrix,
    kernel_shap_stack,
    shap_matrix,
)


def softmax_model(weights):
    def model(x):
        z = np.asarray(x) @ weights.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return model


def brute_force_shapley(value_fn, n):
    """Textbook permutation-average Shapley value over explicit coalitions."""
    shap = np.zeros(n)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for size in range(n):
            weight = (
                math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
            )
            for coalition in itertools.combinations(others, size):
                shap[j] += weight * (
                    value_fn(frozenset(coalition) | {j}) - value_fn(frozenset(coalition))
                )
    return shap


class TestExact:
    def test_constant_model_all_zero(self):
        model = lambda x: np.full((np.asarray(x).shape[0], 2), 0.37)
        bg = BackgroundSet(np.zeros((5, 6)))
        values = exact_shap_matrix(model, np.ones(6), bg)[0]
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_additive_model_closed_form(self):
        # for f(x) = w.x with a single background row b, the attribution of
        # feature j must be w_j (x_j - b_j); confirmed independently by the
        # brute-force permutation formula
        rng = np.random.default_rng(0)
        n = 7
        w = rng.normal(size=n)
        x = rng.normal(size=n)
        b = rng.normal(size=n)
        model = lambda X: (np.asarray(X) @ w)[:, None]
        bg = BackgroundSet(b[None, :])
        values = exact_shap_matrix(model, x, bg)[0]
        np.testing.assert_allclose(values, w * (x - b), atol=1e-10)

        def coalition_value(coalition):
            composite = b.copy()
            idx = sorted(coalition)
            composite[idx] = x[idx]
            return float(composite @ w)

        np.testing.assert_allclose(values, brute_force_shapley(coalition_value, n), atol=1e-10)

    def test_matches_brute_force_on_nonlinear_model(self):
        rng = np.random.default_rng(1)
        n = 5
        w = rng.normal(size=(2, n))
        model = softmax_model(w)
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(4, n)))

        def coalition_value(coalition):
            composite = np.tile(bg.vectors, (1, 1)).copy()
            idx = sorted(coalition)
            composite[:, idx] = x[idx]
            return float(model(composite)[:, 1].mean())

        np.testing.assert_allclose(
            exact_shap_matrix(model, x, bg)[1],
            brute_force_shapley(coalition_value, n),
            atol=1e-10,
        )

    def test_symmetry_axiom(self):
        # duplicate columns with identical values receive equal attributions
        rng = np.random.default_rng(2)
        n = 6
        w = rng.normal(size=n)
        w[2] = w[3]

        def model(X):
            X = np.asarray(X)
            return (X @ w + 0.5 * X[:, 2] * X[:, 3])[:, None]

        x = rng.normal(size=n)
        x[3] = x[2]
        bg_row = rng.normal(size=n)
        bg_row[3] = bg_row[2]
        values = exact_shap_matrix(model, x, BackgroundSet(bg_row[None, :]))[0]
        assert values[2] == pytest.approx(values[3], abs=1e-10)

    def test_dummy_axiom(self):
        rng = np.random.default_rng(3)
        n = 5
        w = rng.normal(size=n)
        w[4] = 0.0
        model = lambda X: (np.asarray(X)[:, :4] @ w[:4])[:, None]
        values = exact_shap_matrix(
            model, rng.normal(size=n), BackgroundSet(rng.normal(size=(6, n)))
        )[0]
        assert abs(values[4]) <= 1e-12

    def test_efficiency(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            model = softmax_model(rng.normal(size=(3, n)))
            x = rng.normal(size=n)
            bg = BackgroundSet(rng.normal(size=(5, n)))
            k = int(rng.integers(0, 3))
            values = exact_shap_matrix(model, x, bg)[k]
            span = model(x[None, :])[0, k] - model(bg.vectors)[:, k].mean()
            assert values.sum() == pytest.approx(span, abs=1e-9)

    def test_refuses_large_n(self):
        model = lambda x: np.asarray(x).sum(axis=1, keepdims=True)
        bg = BackgroundSet(np.zeros((2, 17)))
        with pytest.raises(ValidationError, match="kernel_shap_matrix"):
            exact_shap_matrix(model, np.ones(17), bg)

    def test_bounded_for_probability_models(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = 6
            model = softmax_model(rng.normal(size=(4, n)))
            matrix = exact_shap_matrix(
                model, rng.normal(size=n), BackgroundSet(rng.normal(size=(8, n)))
            )
            assert np.all(np.abs(matrix) <= 1.0 + 1e-9)


def full_enumeration(model, x, bg):
    """The 2^n route over the averaged game, kept as the reduced games' oracle.

    Its masks are built here, independently of the shapley module: row i
    holds the bits of i, feature j in bit j.
    """
    n = x.shape[0]
    masks = np.array(list(itertools.product([False, True], repeat=n)))[:, ::-1]
    return _exact_from_values(_coalition_values(model, x, bg, masks), n)


def indexed_combine(values, n):
    """The combine step by index arrays: per feature j, gather the
    coalitions without j and with j; the reference for its sliced form."""
    ints = np.arange(1 << n)
    popcount = np.array([bin(i).count("1") for i in ints])
    weights = np.array(
        [math.factorial(t) * math.factorial(n - t - 1) / math.factorial(n) for t in range(n)]
    )
    shap = np.zeros((n, values.shape[1]))
    for j in range(n):
        without = ints[(ints >> j) & 1 == 0]
        shap[j] = weights[popcount[without]] @ (values[without + (1 << j)] - values[without])
    return shap.T


@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_combine_is_bitwise_indexed_combine(n, m, seed):
    values = np.random.default_rng(seed).normal(size=(1 << n, m))
    for _ in range(2):  # the second call reads the cached weight table
        np.testing.assert_array_equal(_exact_from_values(values, n), indexed_combine(values, n))


@st.composite
def exact_cases(draw, sparse=None, n_max=10):
    """(model, x, background): sparse cases draw from a small value pool, so
    x_j == b_j ties are common; backgrounds repeat rows."""
    n = draw(st.integers(1, n_max))
    b_rows = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    if sparse is None:
        sparse = draw(st.booleans())
    rng = np.random.default_rng(seed)
    model = softmax_model(rng.normal(size=(3, n)))
    if sparse:
        pool = np.array([0.0, 0.0, 0.3, 1.0, 1.7])
        x = rng.choice(pool, size=n)
        distinct = rng.choice(pool, size=(b_rows, n))
    else:
        x = rng.normal(size=n)
        offsets = rng.uniform(0.1, 2.0, size=(b_rows, n)) * rng.choice([-1, 1], size=(b_rows, n))
        distinct = x + offsets
    rows = distinct[rng.integers(0, b_rows, size=b_rows)]  # duplicates included
    return model, x, BackgroundSet(rows)


class TestCoalitionWeights:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_table_matches_per_mask_formula(self, n):
        # bitwise: the size-t weight t! (n - t - 1)! / n! of each mask, 0 for the full one
        weight = [math.factorial(t) * math.factorial(n - t - 1) / math.factorial(n)
                  for t in range(n)] + [0.0]
        expected = np.array([weight[bin(mask).count("1")] for mask in range(1 << n)])
        table = shapley_module._coalition_weights(n)
        assert table.dtype == np.float64 and not table.flags.writeable
        np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize("live", [[True], [False, True, True, False, True], [True] * 9])
    def test_live_masks_select_index_bits(self, live):
        live = np.array(live)
        columns = np.flatnonzero(live)
        expected = np.zeros((1 << len(columns), live.size), dtype=bool)
        for index in range(1 << len(columns)):
            for bit, column in enumerate(columns):
                expected[index, column] = bool(index >> bit & 1)
        np.testing.assert_array_equal(shapley_module._live_masks(live), expected)


class TestReducedGames:
    @given(exact_cases())
    def test_matches_full_enumeration(self, case):
        model, x, bg = case
        np.testing.assert_allclose(
            exact_shap_matrix(model, x, bg), full_enumeration(model, x, bg), rtol=0, atol=1e-12
        )

    @given(exact_cases(sparse=False))
    def test_no_ties_is_bitwise_full_enumeration(self, case):
        model, x, bg = case
        assert not np.any(x[None, :] == bg.vectors)
        np.testing.assert_array_equal(
            exact_shap_matrix(model, x, bg), full_enumeration(model, x, bg)
        )

    @given(exact_cases())
    def test_x_equal_to_every_reference_is_all_zero(self, case):
        model, x, _ = case
        bg = BackgroundSet(np.tile(x, (3, 1)))
        values = exact_shap_matrix(model, x, bg)
        assert values.shape == (3, x.shape[0])
        assert np.all(values == 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 13))  # 14 parts
    def test_null_feature_is_exact_zero_and_adds_no_sag_edge(self, monumai, seed, b_rows, j):
        from xnesyl.alignment import build_sag

        kg = monumai
        n = kg.num_parts
        rng = np.random.default_rng(seed)
        pool = [0.0, 0.0, 0.3, 1.0]
        x = rng.choice(pool, size=n)
        rows = rng.choice(pool, size=(b_rows, n))
        rows[:, j] = x[j]  # detected (x_j > s) or not, feature j is a null player
        model = softmax_model(rng.normal(size=(kg.num_object_classes, n)))
        values = exact_shap_matrix(model, x, BackgroundSet(rows))
        assert np.all(values[:, j] == 0.0)
        sag = build_sag(kg, x, values)
        assert all(part != kg.part_classes[j] for part, _ in sag.edges)


@st.composite
def layered_cases(draw, n_max=14):
    """(classifier, x, background) for the factored route: sparse cases tie
    x with the references, bg may be a single row, and `tied` makes x equal
    to every reference."""
    n = draw(st.integers(1, n_max))
    b_rows = draw(st.integers(1, 8))
    hidden = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    sparse = draw(st.booleans())
    tied = draw(st.booleans()) and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clf = MLPClassifier(
        tuple(f"class {k}" for k in range(m)),
        rng.normal(size=(hidden, n)),
        rng.normal(scale=0.5, size=hidden),
        rng.normal(scale=2.0, size=(m, hidden)),
        rng.normal(size=m),
    )
    if sparse:
        pool = np.array([0.0, 0.0, 0.3, 1.0, 1.7])
        x = rng.choice(pool, size=n)
        rows = rng.choice(pool, size=(b_rows, n))
    else:
        x = rng.uniform(0.0, 3.0, size=n)
        rows = rng.uniform(0.0, 3.0, size=(b_rows, n))
    if tied:
        rows = np.tile(x, (b_rows, 1))
    return clf, x, BackgroundSet(rows)


class TestFactoredRoute:
    """A classifier is evaluated through its first layer; the same calls on a
    lambda take the black-box route, the oracle."""

    @settings(deadline=None)
    @given(layered_cases())
    def test_exact_matches_black_box(self, case):
        clf, x, bg = case
        np.testing.assert_allclose(
            exact_shap_matrix(clf, x, bg),
            exact_shap_matrix(lambda X: clf.predict_proba(X), x, bg),
            rtol=0, atol=1e-12,
        )

    @settings(deadline=None)
    @given(layered_cases(), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_kernel_matches_black_box(self, case, per_feature, seed):
        clf, x, bg = case
        samples = per_feature * x.shape[0]
        runs = []
        for model in (clf, lambda X: clf.predict_proba(X)):
            try:
                runs.append(kernel_shap_matrix(model, x, bg, samples, seed))
            except NumericalError:  # rank depends on the masks alone
                runs.append(None)
        if runs[0] is None or runs[1] is None:
            assert runs == [None, None]
        else:
            np.testing.assert_allclose(runs[0], runs[1], rtol=0, atol=1e-12)

    @given(layered_cases(n_max=7), st.integers(1, 400))
    def test_chunk_boundaries(self, case, cap):
        # a cap of a few elements splits the masks into chunks of one or
        # more coalitions, on both routes
        clf, x, bg = case
        masks = shapley_module._all_masks(x.shape[0])
        reference = _coalition_values(lambda X: clf.predict_proba(X), x, bg, masks)
        with mock.patch.object(shapley_module, "_CHUNK_ELEMENTS", cap):
            for model in (clf, lambda X: clf.predict_proba(X)):
                np.testing.assert_allclose(
                    _coalition_values(model, x, bg, masks), reference, rtol=0, atol=1e-12
                )

    @settings(deadline=None)
    @given(layered_cases(n_max=10), st.data())
    def test_exact_block_boundaries(self, case, data):
        # a cap of 1 element leaves every coalition bit to the per-block high
        # sum; a cap of hidden * B * 2^n puts every bit in the low table
        clf, x, bg = case
        per_coalition = clf.w1.shape[0] * bg.size
        cap = data.draw(
            st.one_of(st.just(1), st.integers(0, x.shape[0]).map(lambda e: per_coalition << e))
        )
        reference = exact_shap_matrix(lambda X: clf.predict_proba(X), x, bg)
        with mock.patch.object(shapley_module, "_CHUNK_ELEMENTS", cap):
            np.testing.assert_allclose(
                exact_shap_matrix(clf, x, bg), reference, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("shap", ["exact", "kernel"])
    @pytest.mark.parametrize("tied", [False, True])
    def test_rejects_descriptor_of_other_dimension(self, monumai, shap, tied):
        clf = MLPClassifier.create(monumai, seed=0)
        rng = np.random.default_rng(1)
        n = monumai.num_parts - 1
        x = rng.uniform(0, 2, size=n)
        bg = BackgroundSet(np.tile(x, (3, 1)) if tied else rng.uniform(0, 2, size=(3, n)))
        with pytest.raises(ValidationError, match=f"dim {n}"):
            shap_matrix(clf, x, bg, shap, 4 * n, seed=0)

    @pytest.mark.parametrize("shap", ["exact", "kernel"])
    def test_non_finite_attributions_raise(self, shap):
        model = lambda X: np.full((np.asarray(X).shape[0], 3), np.nan)
        rng = np.random.default_rng(2)
        bg = BackgroundSet(rng.normal(size=(4, 6)))
        with pytest.raises(NumericalError, match=f"{shap} attributions are non-finite"):
            shap_matrix(model, rng.normal(size=6), bg, shap, 24, seed=0)


class TestSampleMasks:
    @given(st.integers(2, 80), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_unique_proper_rows_weighted_by_draw_counts(self, n, num_samples, seed):
        masks, weights = _sample_masks(n, num_samples, np.random.default_rng(seed))
        assert masks.dtype == bool and masks.shape[1] == n
        sizes = masks.sum(axis=1)
        assert np.all((sizes > 0) & (sizes < n))
        assert len({row.tobytes() for row in masks}) == masks.shape[0]
        assert np.all(weights > 0) and weights.sum() == num_samples

    @given(st.integers(2, 80), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_same_seed_same_output(self, n, num_samples, seed):
        a = _sample_masks(n, num_samples, np.random.default_rng(seed))
        b = _sample_masks(n, num_samples, np.random.default_rng(seed))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("n, draws", [(14, 100_000), (70, 20_000)])
    def test_strata_follow_kernel_mass_and_subsets_are_uniform(self, n, draws):
        masks, weights = _sample_masks(n, draws, np.random.default_rng(0))
        sizes = np.arange(1, n)
        mass = 1.0 / (sizes * (n - sizes))
        expected = mass / mass.sum()
        observed = np.bincount(masks.sum(axis=1), weights=weights, minlength=n)[1:] / draws
        # five binomial standard deviations per stratum
        tolerance = 5 * np.sqrt(expected * (1 - expected) / draws)
        assert np.all(np.abs(observed - expected) <= tolerance)
        # by symmetry every feature joins a draw with probability E[size] / n
        inclusion = weights @ masks / draws
        p = (expected @ sizes) / n
        assert np.all(np.abs(inclusion - p) <= 5 * np.sqrt(p * (1 - p) / draws))


def reference_sample_masks(n, num_samples, rng):
    """The sampler as first written: `rng.choice` for the sizes, a double
    argsort for the ranks, a void-row `np.unique`."""
    sizes = np.arange(1, n)
    size_mass = (n - 1) / (sizes * (n - sizes))
    draws = rng.choice(sizes, size=num_samples, p=size_mass / size_mass.sum())
    ranks = rng.random((num_samples, n)).argsort(axis=1).argsort(axis=1)
    masks = ranks < draws[:, None]
    packed = np.packbits(masks, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return masks[first], counts.astype(np.float64)


class CoarseKeys:
    """A generator whose subset keys take four values, so ranks tie often;
    the size draw stays the wrapped generator's own."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        values = self.rng.random(size)
        return np.floor(values * 4) / 4 if isinstance(size, tuple) else values

    def choice(self, a, size, p):
        return self.rng.choice(a, size=size, p=p)


class TestSampleMasksMatchReference:
    """The sampler gives the reference sampler's output for the same stream,
    mask for mask and weight for weight. A numpy whose `Generator.choice`
    consumed its stream differently would fail here."""

    @pytest.mark.parametrize("n", [2, 3, 14, 40, 63, 70])
    def test_matches_reference(self, n):
        trials = np.random.default_rng(n)
        for _ in range(60):
            num_samples = int(trials.integers(1, 400))
            seed = int(trials.integers(0, 2**63))
            masks, weights = _sample_masks(n, num_samples, np.random.default_rng(seed))
            ref_masks, ref_weights = reference_sample_masks(
                n, num_samples, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(masks, ref_masks)
            np.testing.assert_array_equal(weights, ref_weights)

    @pytest.mark.parametrize("n", [3, 14, 70])
    def test_tied_keys_match_reference(self, n):
        for seed in range(40):
            masks, weights = _sample_masks(n, 200, CoarseKeys(seed))
            ref_masks, ref_weights = reference_sample_masks(n, 200, CoarseKeys(seed))
            np.testing.assert_array_equal(masks, ref_masks)
            np.testing.assert_array_equal(weights, ref_weights)


def e2_shaped_case(rows=30, n=14, bg_rows=16, seed=0):
    rng = np.random.default_rng(seed)
    clf = MLPClassifier(
        tuple(f"class {k}" for k in range(4)),
        rng.normal(size=(11, n)),
        rng.normal(scale=0.5, size=11),
        rng.normal(scale=2.0, size=(4, 11)),
        rng.normal(size=4),
    )
    x = rng.uniform(0.0, 2.0, size=(rows, n))
    bg = BackgroundSet(rng.uniform(0.0, 2.0, size=(bg_rows, n)))
    seeds = [int(seed) for seed in rng.integers(0, 2**63, size=rows)]
    return clf, x, bg, seeds


class TestKernelStack:
    """The stacked estimator gives every row what the one-row call gives it."""

    def assert_rows_are_one_row_calls(self, model, x, bg, samples, seeds):
        stacked = kernel_shap_stack(model, x, bg, samples, seeds)
        assert stacked.shape[0] == x.shape[0]
        span = np.asarray(model(x)) - np.asarray(model(bg.vectors)).mean(axis=0)
        for row, seed, values, row_span in zip(x, seeds, stacked, span):
            np.testing.assert_array_equal(
                values, kernel_shap_matrix(model, row, bg, samples, seed)
            )
            assert np.max(np.abs(values.sum(axis=1) - row_span)) <= 1e-9
        return stacked

    def test_e2_shape(self):
        clf, x, bg, seeds = e2_shaped_case()
        self.assert_rows_are_one_row_calls(clf, x, bg, 256, seeds)

    def test_rows_spanning_several_chunks(self):
        # at bg 100 a row's ~340 unique masks take six chunks
        clf, x, bg, seeds = e2_shaped_case(rows=5, bg_rows=100, seed=1)
        self.assert_rows_are_one_row_calls(clf, x, bg, 512, seeds)

    def test_single_row(self):
        clf, x, bg, seeds = e2_shaped_case(rows=1, seed=2)
        self.assert_rows_are_one_row_calls(clf, x, bg, 256, seeds)

    def test_single_feature(self):
        clf, x, bg, seeds = e2_shaped_case(rows=4, n=1, seed=3)
        stacked = self.assert_rows_are_one_row_calls(clf, x, bg, 2, seeds)
        assert stacked.shape == (4, 4, 1)

    def test_enumeration_branch(self):
        clf, x, bg, seeds = e2_shaped_case(rows=3, n=6, bg_rows=5, seed=4)
        stacked = self.assert_rows_are_one_row_calls(clf, x, bg, 62, seeds)
        for row, values in zip(x, stacked):
            assert np.abs(values - exact_shap_matrix(clf, row, bg)).max() <= 1e-9

    def test_black_box(self):
        clf, x, bg, seeds = e2_shaped_case(rows=6, n=9, bg_rows=4, seed=5)
        model = lambda X: clf.predict_proba(X)
        stacked = self.assert_rows_are_one_row_calls(model, x, bg, 90, seeds)
        np.testing.assert_allclose(
            stacked, kernel_shap_stack(clf, x, bg, 90, seeds), rtol=0, atol=1e-12
        )

    def test_too_few_samples_rejected(self):
        clf, x, bg, seeds = e2_shaped_case(rows=3)
        with pytest.raises(ValidationError, match="2n = 28"):
            kernel_shap_stack(clf, x, bg, 27, seeds)

    def test_one_seed_per_row(self):
        clf, x, bg, seeds = e2_shaped_case(rows=3)
        with pytest.raises(ValidationError, match="one seed per descriptor"):
            kernel_shap_stack(clf, x, bg, 64, seeds[:2])

    def test_non_finite_attributions_raise(self):
        model = lambda X: np.full((np.asarray(X).shape[0], 3), np.nan)
        rng = np.random.default_rng(2)
        bg = BackgroundSet(rng.normal(size=(4, 6)))
        with pytest.raises(NumericalError, match="kernel attributions are non-finite"):
            shap_matrix(model, rng.normal(size=(5, 6)), bg, "kernel", 24, seed=list(range(5)))

    def test_shap_matrix_stack_is_its_rows(self):
        clf, x, bg, seeds = e2_shaped_case(rows=3, n=8, bg_rows=4, seed=6)
        stacked = shap_matrix(clf, x, bg, "kernel", 64, seeds)
        for row, seed, values in zip(x, seeds, stacked):
            np.testing.assert_array_equal(values, shap_matrix(clf, row, bg, "kernel", 64, seed))


def e1_shaped_case(rows=12, n=14, bg_rows=32, seed=0):
    """Sparse frcnn-like descriptors: most parts undetected (exactly 0), so
    a row ties most references on most columns and its games are small."""
    rng = np.random.default_rng(seed)
    clf, _, _, _ = e2_shaped_case(rows=1, n=n, seed=seed)

    def draw(count):
        detected = rng.random((count, n)) < 0.2
        return np.where(detected, rng.choice([0.4, 0.9, 1.0, 1.6], size=(count, n)), 0.0)

    return clf, draw(rows), BackgroundSet(draw(bg_rows))


def per_game_reference(clf, x, bg):
    """Each row scored alone, one reduced game at a time: `np.unique` groups,
    `_layered_game_values` on the group's references, `_exact_from_values`,
    and the share-weighted part added into the row in group order."""
    m, n = clf.w2.shape[0], x.shape[1]
    out = np.zeros((x.shape[0], m, n))
    for row, shap in zip(x, out):
        patterns, group = np.unique(row[None, :] != bg.vectors, axis=0, return_inverse=True)
        for g, pattern in enumerate(patterns):
            live = np.flatnonzero(pattern)
            if live.size == 0:
                continue
            rows = bg.vectors[group == g]
            columns = np.tile(live, (rows.shape[0], 1))
            values = _layered_game_values(
                clf, rows, columns, row[live] - rows[:, live], [rows.shape[0]]
            )
            part = _exact_from_values(values.transpose(0, 2, 1), live.size)[0]
            shap[:, live] += part * (rows.shape[0] / bg.size)
    return out


def straddling_case():
    """At bg 100 the games of one live count hold more references than one
    pack takes, and 50 copies of a reference that differs from every row on
    8 or more columns make one game past the chunk cap alone, evaluated in
    blocks."""
    clf, x, bg = e1_shaped_case(rows=10, bg_rows=50, seed=1)
    far = np.zeros(x.shape[1])
    far[:8] = 0.5
    return clf, x, BackgroundSet(np.concatenate([bg.vectors, np.tile(far, (50, 1))]))


class TestExactStack:
    """The stacked exact estimator gives every row what the one-row call gives it."""

    def assert_rows_are_one_row_calls(self, model, x, bg):
        stacked = exact_shap_stack(model, x, bg)
        assert stacked.shape[0] == x.shape[0]
        span = np.asarray(model(x)) - np.asarray(model(bg.vectors)).mean(axis=0)
        for row, values, row_span in zip(x, stacked, span):
            np.testing.assert_array_equal(values, exact_shap_matrix(model, row, bg))
            assert np.max(np.abs(values.sum(axis=1) - row_span)) <= 1e-9
        return stacked

    def test_e1_shape(self):
        clf, x, bg = e1_shaped_case()
        self.assert_rows_are_one_row_calls(clf, x, bg)

    def test_e2_shape(self):
        clf, x, bg, _ = e2_shaped_case(rows=4)
        self.assert_rows_are_one_row_calls(clf, x, bg)

    def test_packs_straddle_the_caps(self):
        clf, x, bg = straddling_case()
        hidden = clf.w1.shape[0]
        held = {}
        single = 0
        for row in x:
            patterns, sizes = np.unique(row != bg.vectors, axis=0, return_counts=True)
            for pattern, size in zip(patterns, sizes):
                live = int(pattern.sum())
                held[live] = held.get(live, 0) + size
                single = max(single, hidden * size << live)
        pack = shapley_module._PACK_ELEMENTS
        assert any(hidden * refs << live > pack for live, refs in held.items() if live)
        assert single > shapley_module._CHUNK_ELEMENTS
        self.assert_rows_are_one_row_calls(clf, x, bg)

    # the game list, its zero result and its scatter serve both evaluators
    @staticmethod
    def model_of(clf, kind):
        return clf if kind == "layered" else lambda X: clf.predict_proba(X)

    @pytest.mark.parametrize("kind", ["layered", "black-box"])
    def test_row_equal_to_every_reference(self, kind):
        clf, x, bg = e1_shaped_case(rows=3, seed=2)
        model = self.model_of(clf, kind)
        bg = BackgroundSet(np.tile(x[1], (5, 1)))
        stacked = self.assert_rows_are_one_row_calls(model, x, bg)
        assert np.all(stacked[1] == 0.0)
        stacked = self.assert_rows_are_one_row_calls(model, x[1:2], bg)
        assert stacked.shape == (1, 4, 14) and np.all(stacked == 0.0)

    @pytest.mark.parametrize("kind", ["layered", "black-box"])
    def test_duplicated_references(self, kind):
        clf, x, bg = e1_shaped_case(rows=6, bg_rows=8, seed=3)
        bg = BackgroundSet(bg.vectors[[0, 1, 1, 2, 0, 3, 3, 3, 4, 1]])
        self.assert_rows_are_one_row_calls(self.model_of(clf, kind), x, bg)

    @pytest.mark.parametrize("kind", ["layered", "black-box"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_few_features(self, n, kind):
        clf, x, bg, _ = e2_shaped_case(rows=5, n=n, bg_rows=6, seed=4 + n)
        x[0] = bg.vectors[2]  # one reference tied on every column
        stacked = self.assert_rows_are_one_row_calls(self.model_of(clf, kind), x, bg)
        assert stacked.shape == (5, 4, n)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_black_box_matches_layered(self, sparse):
        if sparse:
            clf, x, bg = e1_shaped_case(rows=5, n=10, bg_rows=12, seed=7)
        else:
            clf, x, bg, _ = e2_shaped_case(rows=3, n=9, bg_rows=5, seed=7)
        model = lambda X: clf.predict_proba(X)
        stacked = self.assert_rows_are_one_row_calls(model, x, bg)
        np.testing.assert_allclose(stacked, exact_shap_stack(clf, x, bg), rtol=0, atol=1e-12)

    def test_too_many_features_rejected(self):
        clf, x, bg, _ = e2_shaped_case(rows=2, n=17)
        with pytest.raises(ValidationError, match="n=17 > 16"):
            exact_shap_stack(clf, x, bg)

    @pytest.mark.parametrize("case", ["e1", "e1-bg100", "e2"])
    def test_matches_per_game_reference(self, case):
        if case == "e2":
            clf, x, bg, _ = e2_shaped_case(rows=3)
        else:
            clf, x, bg = e1_shaped_case(bg_rows=100 if case == "e1-bg100" else 32, seed=8)
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), per_game_reference(clf, x, bg))

    @staticmethod
    def edge_case(case):
        """Stacks at the edges of the integer-keyed game list."""
        if case == "n16":
            # the widest key the guard allows: row bits above 16 pattern bits,
            # column 0 (the top pattern bit) live in some game
            clf, x, bg = e1_shaped_case(rows=6, n=16, bg_rows=12, seed=10)
            x[2, 0] = 1.3
            assert np.all(x[2, 0] != bg.vectors[:, 0])
            return clf, x, bg
        clf, x, bg = e1_shaped_case(rows=5, bg_rows=8, seed=11)
        if case == "identical-rows":
            x[3] = x[1]  # same patterns, yet each row keeps its own games
        elif case == "one-row":
            x = x[2:3]
        else:
            bg = BackgroundSet(np.tile(bg.vectors[4], (6, 1)))
            if case == "row-equal-to-every-reference":
                x[2] = bg.vectors[0]
        return clf, x, bg

    EDGE_CASES = [
        "n16", "identical-rows", "row-equal-to-every-reference", "identical-references", "one-row",
    ]

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edges_match_per_game_reference(self, case):
        clf, x, bg = self.edge_case(case)
        stacked = exact_shap_stack(clf, x, bg)
        np.testing.assert_array_equal(stacked, per_game_reference(clf, x, bg))
        if case == "identical-rows":
            np.testing.assert_array_equal(stacked[3], stacked[1])
        if case == "row-equal-to-every-reference":
            assert np.all(stacked[2] == 0.0) and np.any(stacked[[0, 1, 3, 4]] != 0.0)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edges_black_box_match_one_row_calls(self, case):
        clf, x, bg = self.edge_case(case)
        self.assert_rows_are_one_row_calls(self.model_of(clf, "black-box"), x, bg)

    def test_shap_matrix_stack_is_its_rows(self):
        clf, x, bg = e1_shaped_case(rows=4, seed=9)
        stacked = shap_matrix(clf, x, bg, "exact", 64, [0] * 4)
        for row, values in zip(x, stacked):
            np.testing.assert_array_equal(values, shap_matrix(clf, row, bg, "exact", 64, 0))


class RecordingHead:
    """A classifier whose head records numpy's ufunc buffer size at each call
    and raises at call `fail_at`."""

    def __init__(self, clf, fail_at=None):
        self.clf, self.fail_at, self.sizes = clf, fail_at, []

    def __call__(self, rows):
        return self.clf(rows)

    @property
    def first_layer(self):
        return self.clf.first_layer

    def head(self, pre):
        self.sizes.append(np.getbufsize())
        if len(self.sizes) == self.fail_at:
            raise RuntimeError("head failed")
        return self.clf.head(pre)


@pytest.fixture(params=["default", 4096])
def caller_buffer(request):
    """numpy's default buffer size, or one the caller set."""
    size = np.getbufsize() if request.param == "default" else request.param
    old = np.setbufsize(size)
    yield size
    np.setbufsize(old)


class TestRowBuffer:
    """The layered routes run under a ufunc buffer of one row, with the bits
    numpy's default buffering gives, and hand the caller's size back."""

    CASES = {
        "e2": lambda: e2_shaped_case(rows=4)[:3],
        "e1": e1_shaped_case,
        "straddling": straddling_case,
    }

    @staticmethod
    def default_buffering():
        return mock.patch.object(
            shapley_module, "_row_buffer", lambda row: contextlib.nullcontext()
        )

    @pytest.mark.parametrize("caller_buffer", [4096], indirect=True)
    @pytest.mark.parametrize(
        "row, size", [(8, None), (16, 16), (176, 176), (1100, 1104), (4090, None), (5000, None)]
    )
    def test_buffer_shrinks_to_one_row_in_multiples_of_16(self, row, size, caller_buffer):
        with shapley_module._row_buffer(row):
            assert np.getbufsize() == (size or caller_buffer)
        assert np.getbufsize() == caller_buffer

    @pytest.mark.parametrize("case", list(CASES))
    def test_exact_bits_are_default_buffering_bits(self, case):
        clf, x, bg = self.CASES[case]()
        scoped = exact_shap_stack(clf, x, bg)
        with self.default_buffering():
            np.testing.assert_array_equal(scoped, exact_shap_stack(clf, x, bg))

    def test_kernel_bits_are_default_buffering_bits(self):
        clf, x, bg, seeds = e2_shaped_case()
        scoped = kernel_shap_stack(clf, x, bg, 256, seeds)
        with self.default_buffering():
            np.testing.assert_array_equal(scoped, kernel_shap_stack(clf, x, bg, 256, seeds))

    def test_heads_run_under_one_row(self, caller_buffer):
        # E2's dense games: 2^8 coalitions of (11 hidden, 16 references) per block
        clf, x, bg, seeds = e2_shaped_case(rows=2)
        model = RecordingHead(clf)
        exact_shap_stack(model, x, bg)
        assert model.sizes == [256] * 2 * 64
        model.sizes.clear()
        kernel_shap_stack(model, x, bg, 256, seeds)
        assert model.sizes == [16 * 11] * 2
        assert np.getbufsize() == caller_buffer

    def test_caller_size_kept(self, caller_buffer):
        clf, x, bg, seeds = e2_shaped_case(rows=3)
        shap_matrix(clf, x, bg, "exact", 256, seeds)
        assert np.getbufsize() == caller_buffer
        shap_matrix(clf, x, bg, "kernel", 256, seeds)
        assert np.getbufsize() == caller_buffer

    @pytest.mark.parametrize("mode", ["exact", "kernel"])
    def test_caller_size_kept_when_the_head_raises(self, mode, caller_buffer):
        clf, x, bg, seeds = e2_shaped_case(rows=3)
        model = RecordingHead(clf, fail_at=2)
        with pytest.raises(RuntimeError, match="head failed"):
            shap_matrix(model, x, bg, mode, 256, seeds)
        assert model.sizes == [256 if mode == "exact" else 176] * 2
        assert np.getbufsize() == caller_buffer


FORK_ROWS = shapley_module._FORK_ROWS


def stack_work(x, bg):
    """Model rows of an exact stack: 2^live over (row, reference) pairs with a live feature."""
    live = (x[:, None, :] != bg.vectors).sum(axis=2)
    return int(sum(2**int(count) for count in live.ravel() if count))


def serial(model, x, bg):
    return shapley_module._exact_rows(model, np.asarray(x, dtype=np.float64), bg)


def uneven_case():
    """One dense row ahead of seven sparse ones: nearly all the work is row 0."""
    clf, x, bg = e1_shaped_case(rows=8, seed=12)
    x[0] = np.random.default_rng(12).uniform(0.1, 2.0, size=x.shape[1])
    return clf, x, bg


class TestProcessSplit:
    """Exact stacks split over forked processes keep every row's bits, and
    every failure of a child or of the fork falls back or re-raises here."""

    CASES = {
        "e2": lambda: e2_shaped_case(rows=6)[:3],
        "sparse": lambda: e1_shaped_case(rows=12, seed=5),
        "straddling": straddling_case,
        "uneven": uneven_case,
    }

    @pytest.fixture
    def forks(self, monkeypatch):
        """Every stack is split over two CPUs; the pids that forked, one entry per fork."""
        made = []
        fork = os.fork

        def counted():
            made.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(shapley_module, "_FORK_ROWS", 0)
        return made

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_forked_bits_are_serial_bits(self, case, cpus, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        clf, x, bg = self.CASES[case]()
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))
        # the dense row of the uneven stack outweighs the rest: two shares on any CPU count
        assert forks == [os.getpid()] * (1 if case == "uneven" else cpus - 1)

    def test_cut_falls_by_work(self, forks, monkeypatch):
        # by row count this process would score four rows; by work, the dense one alone
        clf, x, bg = uneven_case()
        expected, scored, exact_rows = serial(clf, x, bg), [], shapley_module._exact_rows

        def recorded(model, rows, bg):
            scored.append(len(rows))
            return exact_rows(model, rows, bg)

        monkeypatch.setattr(shapley_module, "_exact_rows", recorded)
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), expected)
        assert scored == [1] and len(forks) == 1

    def test_stack_of_the_constant_splits(self, forks, monkeypatch):
        clf, x, bg = e1_shaped_case()
        monkeypatch.setattr(shapley_module, "_FORK_ROWS", stack_work(x, bg))
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))
        assert len(forks) == 1

    def test_mean_shap_ged_per_instance(self, monumai, forks, monkeypatch):
        from xnesyl.alignment import DETECTION_THRESHOLD, mean_shap_ged

        clf, x, bg, _ = e2_shaped_case(rows=4, seed=3)
        ids = [f"i{k}" for k in range(4)]
        args = (clf, x, ids, monumai, bg, DETECTION_THRESHOLD, "exact", 64, 0)
        forked = mean_shap_ged(*args)
        assert len(forks) == 1
        monkeypatch.setattr(shapley_module, "_FORK_ROWS", 1 << 62)
        assert forked == mean_shap_ged(*args)
        assert len(forks) == 1

    @staticmethod
    def small_case():
        clf, x, bg, _ = e2_shaped_case(rows=4, n=6, bg_rows=4, seed=13)
        return clf, x, bg

    def test_child_error_reraised(self, forks):
        clf, x, bg = self.small_case()
        x[3, 0] = 7.5  # the sentinel, in the child's share of rows 2 and 3

        def model(rows):
            if np.any(rows[:, 0] == 7.5):
                raise NumericalError(f"sentinel row in process {os.getpid()}")
            return clf.predict_proba(rows)

        with pytest.raises(NumericalError, match=r"sentinel row in process \d+") as raised:
            exact_shap_stack(model, x, bg)
        assert int(str(raised.value).split()[-1]) != os.getpid()
        assert len(forks) == 1

    def test_failed_fork_scores_here(self, forks, monkeypatch):
        clf, x, bg = self.small_case()

        def refused():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))
        assert len(forks) == 1

    def test_child_exiting_without_result_scored_here(self, forks):
        clf, x, bg = self.small_case()
        parent = os.getpid()

        def model(rows):
            if os.getpid() != parent:
                os._exit(1)
            return clf.predict_proba(rows)

        np.testing.assert_array_equal(exact_shap_stack(model, x, bg), serial(model, x, bg))
        assert len(forks) == 1

    @pytest.fixture
    def no_fork(self, monkeypatch):
        """Forking fails the test; the stack would be split on two CPUs."""

        def refused():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(shapley_module, "_FORK_ROWS", 0)

    def test_one_row_not_split(self, no_fork):
        clf, x, bg = self.small_case()
        np.testing.assert_array_equal(exact_shap_stack(clf, x[1:2], bg), serial(clf, x[1:2], bg))

    def test_one_cpu_not_split(self, no_fork, monkeypatch):
        clf, x, bg = self.small_case()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))

    def test_no_affinity_call_not_split(self, no_fork, monkeypatch):
        clf, x, bg = self.small_case()
        monkeypatch.delattr(os, "sched_getaffinity")
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))

    def test_little_work_not_split(self, no_fork, monkeypatch):
        # E1's scoring stacks stay below the constant
        clf, x, bg = e1_shaped_case()
        assert stack_work(x, bg) < FORK_ROWS
        monkeypatch.setattr(shapley_module, "_FORK_ROWS", stack_work(x, bg) + 1)
        np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))

    def test_live_thread_not_split(self, no_fork):
        clf, x, bg = self.small_case()
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            np.testing.assert_array_equal(exact_shap_stack(clf, x, bg), serial(clf, x, bg))
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestKernel:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_enumerated_weights_are_per_mask_weights(self, n):
        masks, weights = shapley_module._enumerate_proper_masks(n)
        per_mask = [shapley_module._kernel_weight(n, int(s)) for s in masks.sum(axis=1)]
        np.testing.assert_array_equal(weights, np.array(per_mask))

    def test_full_enumeration_matches_exact(self):
        rng = np.random.default_rng(6)
        n = 8
        for trial in range(20):
            model = softmax_model(rng.normal(size=(3, n)))
            x = rng.normal(size=n)
            bg = BackgroundSet(rng.normal(size=(6, n)))
            exact = exact_shap_matrix(model, x, bg)
            kernel = kernel_shap_matrix(model, x, bg, (1 << n) - 2, seed=trial)
            assert np.abs(exact - kernel).max() <= 1e-6

    def test_constant_model_zero(self):
        model = lambda x: np.full((np.asarray(x).shape[0], 1), 0.2)
        bg = BackgroundSet(np.zeros((3, 9)))
        values = kernel_shap_matrix(model, np.ones(9), bg, num_coalition_samples=64, seed=0)[0]
        np.testing.assert_allclose(values, 0.0, atol=1e-9)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(7)
        n = 12
        model = softmax_model(rng.normal(size=(3, n)))
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(5, n)))
        a = kernel_shap_matrix(model, x, bg, 200, seed=42)[1]
        b = kernel_shap_matrix(model, x, bg, 200, seed=42)[1]
        np.testing.assert_array_equal(a, b)

    def test_efficiency_enforced_when_sampled(self):
        rng = np.random.default_rng(8)
        n = 12
        model = softmax_model(rng.normal(size=(2, n)))
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(5, n)))
        values = kernel_shap_matrix(model, x, bg, num_coalition_samples=60, seed=3)[0]
        span = model(x[None, :])[0, 0] - model(bg.vectors)[:, 0].mean()
        assert values.sum() == pytest.approx(span, abs=1e-9)

    @pytest.mark.parametrize("n", [63, 70])
    def test_large_n_satisfies_efficiency(self, n):
        rng = np.random.default_rng(n)
        model = softmax_model(rng.normal(size=(3, n)) * 0.3)
        x = rng.normal(size=n)
        bg = BackgroundSet(rng.normal(size=(4, n)))
        values = kernel_shap_matrix(model, x, bg, 600, seed=1)
        span = model(x[None, :])[0] - model(bg.vectors).mean(axis=0)
        assert values.shape == (3, n)
        np.testing.assert_allclose(values.sum(axis=1), span, rtol=0, atol=1e-9)

    @settings(deadline=None)
    @given(st.integers(63, 80), st.integers(0, 2**32 - 1))
    def test_large_n_axioms_on_additive_model(self, n, seed):
        # v(S) of an additive model is additive in S, so the weighted
        # least-squares fit is exact at any full-rank sample: features 0
        # and 1 are symmetric, feature 2 is a dummy
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(3, n))
        w[:, 1] = w[:, 0]
        w[:, 2] = 0.0
        model = lambda X: np.sin(np.asarray(X)) @ w.T
        x = rng.normal(size=n)
        rows = rng.normal(size=(4, n))
        x[1] = x[0]
        rows[:, 1] = rows[:, 0]
        bg = BackgroundSet(rows)
        values = kernel_shap_matrix(model, x, bg, 3 * n, seed)
        span = model(x[None, :])[0] - model(rows).mean(axis=0)
        np.testing.assert_allclose(values[:, 1], values[:, 0], rtol=0, atol=1e-9)
        assert np.all(np.abs(values[:, 2]) <= 1e-9)
        np.testing.assert_allclose(values.sum(axis=1), span, rtol=0, atol=1e-9)

    def test_single_feature(self):
        model = lambda X: (2.0 * np.asarray(X)[:, 0])[:, None]
        bg = BackgroundSet(np.array([[0.5]]))
        values = kernel_shap_matrix(model, np.array([1.5]), bg, 2, seed=0)[0]
        assert values[0] == pytest.approx(2.0, abs=1e-12)

    def test_too_few_samples_rejected(self):
        model = lambda x: np.asarray(x).sum(axis=1, keepdims=True)
        bg = BackgroundSet(np.zeros((2, 8)))
        with pytest.raises(ValidationError, match="2n"):
            kernel_shap_matrix(model, np.ones(8), bg, 15, seed=0)

    def test_singular_system_reports_condition(self):
        # a background identical to x makes every composite identical, but
        # rank deficiency needs degenerate sampling; force it with a tiny
        # mask set by duplicating one coalition via monkeypatched sampling
        model = lambda X: (np.asarray(X) @ np.ones(4))[:, None]
        bg = BackgroundSet(np.zeros((1, 4)))

        def degenerate_masks(n, num_samples, rng):
            masks = np.zeros((2, n), dtype=bool)
            masks[:, 0] = True
            return masks, np.ones(2)

        original = shapley_module._sample_masks
        shapley_module._sample_masks = degenerate_masks
        try:
            with pytest.raises(NumericalError, match="condition"):
                kernel_shap_matrix(model, np.ones(4), bg, 8, seed=0)
        finally:
            shapley_module._sample_masks = original


def test_typical_parts_dominate_ranking_on_trained_model(monumai):
    # after training on clean synthetic scenes, a class's typical parts
    # should carry the bulk of the attribution mass toward that class
    from xnesyl.datagen import GeneratorConfig, generate_dataset, split_dataset
    from xnesyl.detector import aggregate, detect
    from xnesyl.training import TrainConfig, train_standard

    kg = monumai
    gen_cfg = GeneratorConfig(seed=29, noise_rate=0.0, separation=6.0)
    splits = split_dataset(generate_dataset(kg, gen_cfg, 250))
    cfg = TrainConfig(
        seed=29, epochs_det=8, epochs_clf=50, lr_det=0.5, lr_clf=0.05,
        background_size=16, shap_mode="exact", shap_samples=128,
    )
    artifacts = train_standard(kg, splits, cfg)
    test_split = splits[2][:40]
    descriptors = np.stack(
        [aggregate(detect(artifacts.detector, inst), "frcnn") for inst in test_split]
    )
    values = np.stack(
        [
            exact_shap_matrix(artifacts.classifier.predict_proba, row, artifacts.background)
            for row in descriptors
        ]
    )
    for label in kg.object_classes:
        # parts by decreasing mean |shap| toward the class, ties by part index
        k = kg.object_index(label)
        mean_abs = [np.mean(np.abs(values[:, k, j])) for j in range(kg.num_parts)]
        order = sorted(range(kg.num_parts), key=lambda j: (-mean_abs[j], j))
        ranking = [kg.part_classes[j] for j in order]
        typical = set(kg.typical_parts(label))
        top = set(ranking[:4])
        # the top of the ranking is dominated by parts that discriminate
        # the class; at least half of the top four are its own typical
        # parts (the rest can be markers of confusable classes, whose
        # absence is equally informative)
        assert len(top & typical) >= 2, (label, ranking[:4])


def test_background_sampling_deterministic():
    rng = np.random.default_rng(12)
    descriptors = rng.normal(size=(50, 6))
    a = BackgroundSet.sample(descriptors, 10, seed=5)
    b = BackgroundSet.sample(descriptors, 10, seed=5)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert a.size == 10


def test_background_must_be_nonempty():
    with pytest.raises(ValidationError, match="non-empty"):
        BackgroundSet(np.zeros((0, 3)))
