"""Shapley feature attribution of a descriptor-level model.

Attributions explain every model output (one per object class) for one
descriptor x against a background of reference descriptors. A feature
"missing" from a coalition is replaced by its background value, and the
coalition's worth is the background-averaged model output, so each row of
attributions sums to f_k(x) minus the mean background output (the
efficiency identity asserted throughout the tests).

`shap_matrix` is the one entry point of scoring, `explain` and the
training-time weighting pass. It takes one descriptor or, in either mode,
a stack of them, refuses non-finite attributions and dispatches on a mode
of `SHAP_MODES` to one of two independent estimators:

* "exact" (`exact_shap_stack`, whose one-row call is `exact_shap_matrix`)
  applies the classical permutation-weight formula to every coalition of
  the features that can move the output. Per reference row b, a feature
  with x_j == b_j is a null player, so the cost is 2^(live features)
  coalitions per distinct live pattern among the references; dense
  descriptors keep all n features live and cost 2^n. The n <= 16 guard
  applies to n, not to the live count. It is the oracle for the kernel
  estimator. A stack, such as the whole test split that scoring reads, is
  scored in one call: one `np.unique` of integer (row, live pattern) keys
  lists the reduced games of every row, each game is evaluated by the
  evaluator of the model's kind, and one `np.add.at` scatters them into
  their rows, so each row gets the attributions it gets alone, bit for bit.
* "kernel" (`kernel_shap_stack`, whose one-row call is
  `kernel_shap_matrix`) solves the weighted least-squares system with the
  Shapley kernel weight (n-1) / (C(n,|z|) |z| (n-|z|)), with the empty and
  full coalitions pinned to the exact model values. Sampled when the
  coalition space is large; when every proper coalition is enumerated it
  reproduces the exact values. A stack, such as the whole training split
  of one weighting epoch, is scored in one call, and each row gets the
  attributions it gets alone, bit for bit.

A model that exposes an affine first layer and a head (`LayeredModel`,
such as `MLPClassifier`) is evaluated through that structure, without
building composite descriptors: the exact estimator builds every
coalition's first-layer output by subset sums (`_layered_game_values`),
and the kernel estimator multiplies its sampled masks into the first
layer (`_coalition_values`). Any other callable is called on the
composite rows (`_coalition_values`), one exact game at a time. That
black-box route is the oracle the tests hold both structured ones to.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "BackgroundSet",
    "LayeredModel",
    "Model",
    "SHAP_MODES",
    "exact_shap_matrix",
    "exact_shap_stack",
    "kernel_shap_matrix",
    "kernel_shap_stack",
    "shap_matrix",
]

# A model is a batched callable: (B, n) descriptor rows -> (B, m) outputs.
# One that is also a LayeredModel is evaluated through its structure.
Model = Callable[[np.ndarray], np.ndarray]


class LayeredModel(Protocol):
    """A model whose output is head(rows @ weight.T + bias).

    `first_layer` is the affine map (weight (hidden, n), bias (hidden,));
    `head` maps its (R, hidden) outputs to the (R, m) model outputs and may
    overwrite its argument, so callers pass an array they own.
    """

    def __call__(self, rows: np.ndarray) -> np.ndarray: ...

    @property
    def first_layer(self) -> tuple[np.ndarray, np.ndarray]: ...

    def head(self, pre: np.ndarray) -> np.ndarray: ...


SHAP_MODES = ("exact", "kernel")
EXACT_MAX_FEATURES = 16
# Cap on the elements of one chunk's composite rows or pre-activations. At
# 2^16 float64 (512 KB) a chunk's temporaries stay in a 2 MB L2 cache: one
# dense exact call (n = 14, bg 16) takes ~8.8 ms against ~10 ms at 2^15 and
# ~12 ms at 2^22 on a 2-core Xeon VM with 2 MB of L2 per core. The cap also
# fixes where `_layered_game_values` splits a coalition index into low and
# high bits, and so the order of its sums and the exact attribution bits:
# 2^15, 2^17 and 2^18 each change them, so it cannot be retuned without
# breaking byte-identity with earlier runs.
_CHUNK_ELEMENTS = 1 << 16
# Cap on one pack of exact games, whose table, logits and values are live
# together. Over 100 E1 benchmark cycles (bg 32), a quarter of the chunk
# cap left peak RSS 0.4 MB lower than the full cap, for ~1 ms more per
# scored split (8.4 against 7.5 ms) on a 2-core Xeon VM.
_PACK_ELEMENTS = _CHUNK_ELEMENTS >> 2


@dataclass(frozen=True)
class BackgroundSet:
    """Reference descriptors defining the missing-feature distribution."""

    vectors: np.ndarray  # (B, n)

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise ValidationError("background set must be a non-empty (B, n) array")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_features(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def sample(cls, descriptors: np.ndarray, size: int, seed: int) -> "BackgroundSet":
        """Draw up to `size` rows without replacement, deterministic per seed."""
        descriptors = np.asarray(descriptors, dtype=np.float64)
        if descriptors.ndim != 2 or descriptors.shape[0] == 0:
            raise ValidationError("need a non-empty (N, n) descriptor array to sample from")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB6]))
        count = min(size, descriptors.shape[0])
        idx = rng.choice(descriptors.shape[0], size=count, replace=False)
        return cls(descriptors[np.sort(idx)])


def _is_layered(model: Model) -> bool:
    # isinstance on a runtime-checkable Protocol costs ~17 us a call
    return hasattr(model, "first_layer")


@contextlib.contextmanager
def _row_buffer(row: int):
    """Size numpy's ufunc buffer to one row of `row` elements in the body.

    Where a buffer holds two or more rows, numpy 2.4 runs an operation that
    broadcasts one operand along the rows, such as `table + offset[..., None]`,
    through a buffered path at under half the speed of the plain loop. A
    buffer of one row, rounded up to the multiple of 16 that numpy 1.x
    requires, holds fewer than two. Rows shorter than 16, and a buffer no
    larger than that already, are left alone, so the size only shrinks.
    The caller's size is restored on every exit: numpy 1.x does not tie it
    to `np.errstate`.
    """
    size = -(-row // 16) * 16
    if row < 16 or size >= np.getbufsize():
        yield
        return
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _first_layer(model: LayeredModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The model's (weight, bias), checked against an n-feature descriptor."""
    weight, bias = model.first_layer
    if weight.shape[1] != n:
        raise ValidationError(f"descriptor has dim {n}, model expects {weight.shape[1]}")
    return weight, bias


def _coalition_values(
    model: Model, x: np.ndarray, bg: BackgroundSet, masks: np.ndarray
) -> np.ndarray:
    """Background-averaged model outputs for each coalition mask.

    masks: (K, n) boolean, True = feature takes its value from x.
    Returns (K, m).

    A `LayeredModel` is evaluated through its affine first layer: against
    reference b, coalition S has the pre-activation
    (W b + c) + mask_S @ ((x - b) * W^T), so one (K, n) @ (n, B * hidden)
    product gives every (coalition, reference) row without building the
    composite descriptors, and its chunks run under a ufunc buffer of one
    (B * hidden) row (`_row_buffer`): 5% less time per E2-shaped row (n =
    14, bg 16, 256 draws) on a 2-core Xeon VM. Any other model is called
    on the (K * B, n) composite rows under the caller's buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    b = bg.vectors
    layered = _is_layered(model)
    if layered:
        weight, bias = _first_layer(model, n)
        hidden = weight.shape[0]
        width = bg.size * hidden
        base = (b @ weight.T + bias).ravel()  # (B * hidden,) pre-activation at each b
        delta = ((x - b)[:, :, None] * weight.T).transpose(1, 0, 2).reshape(n, width)

        def evaluate(part: np.ndarray) -> np.ndarray:
            pre = part.astype(np.float64) @ delta
            pre += base
            return model.head(pre.reshape(part.shape[0] * bg.size, hidden))

    else:
        width = bg.size * n

        def evaluate(part: np.ndarray) -> np.ndarray:
            composite = np.where(part[:, None, :], x[None, None, :], b[None, :, :])
            return model(composite.reshape(-1, n))

    chunk = max(1, _CHUNK_ELEMENTS // max(1, width))
    out_chunks = []
    with _row_buffer(width) if layered else contextlib.nullcontext():
        for start in range(0, masks.shape[0], chunk):
            part = masks[start : start + chunk]
            outputs = np.asarray(evaluate(part), dtype=np.float64)
            outputs = outputs.reshape(part.shape[0], bg.size, -1).mean(axis=1)
            out_chunks.append(outputs)
    return np.concatenate(out_chunks, axis=0)


def _all_masks(n: int) -> np.ndarray:
    return _live_masks(np.ones(n, dtype=bool))


def _live_masks(live: np.ndarray) -> np.ndarray:
    """Every coalition of the live columns as (2^|live|, n) masks; others False.

    Bit b of a coalition's index selects the b-th live column; a column
    that is not live reads bit |live|, which no index below 2^|live| sets.
    """
    count = int(live.sum())
    ints = np.arange(1 << count, dtype=np.uint32)
    shift = np.where(live, np.cumsum(live) - 1, count).astype(np.uint32)
    return ((ints[:, None] >> shift) & 1).astype(bool)


@functools.lru_cache(maxsize=None)
def _coalition_weights(n: int) -> np.ndarray:
    """Shapley weight of each of the 2^n coalitions when one more feature joins.

    Built once per n and shared by every caller, so it is read-only. The
    full coalition, which no feature can join, gets weight 0.
    """
    # coalition sizes by index: the indices from 2^k up hold one feature more than those below
    popcount = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    # weight of a coalition of size t when adding one more feature
    weights = np.array(
        [math.factorial(t) * math.factorial(n - t - 1) / math.factorial(n) for t in range(n)]
        + [0.0]
    )
    table = weights[popcount]
    table.flags.writeable = False
    return table


def _exact_from_values(values: np.ndarray, n: int) -> np.ndarray:
    """Shapley combination over full coalition-value tables.

    values: (..., 2^n, m), any leading axes a stack of games. Returns
    (..., m, n).
    """
    lead, m = values.shape[:-2], values.shape[-1]
    table = _coalition_weights(n)
    shap = np.zeros((*lead, n, m))
    for j in range(n):
        # coalition index = (higher bits, bit j, lower bits): this axis picks
        # bit j, so [..., 0, :, :] lists the coalitions without j in order
        w = table.reshape(-1, 2, 1 << j)[:, 0].ravel()
        paired = values.reshape(*lead, -1, 2, 1 << j, m)
        diff = paired[..., 1, :, :] - paired[..., 0, :, :]
        shap[..., j, :] = w @ diff.reshape(*lead, -1, m)
    return np.swapaxes(shap, -1, -2)


def _layered_game_values(
    model: LayeredModel, rows: np.ndarray, live: np.ndarray, gaps: np.ndarray, sizes: list[int]
) -> np.ndarray:
    """Reference-averaged outputs of every coalition of a pack of reduced games.

    The pack holds G games with the same number L of live columns, their
    references side by side: game g owns the next sizes[g] rows of `rows`
    (R, n). Row r of `live` (R, L) holds the live columns of its game, and
    of `gaps` (R, L) the differences x_j - b_j of its descriptor x and its
    reference b there. Returns (G, m, 2^L), coalitions in `_live_masks`
    order.

    Against reference b, a coalition's first-layer output is (W b + c)
    plus the sum over its members j of delta_j = W[:, j] (x_j - b_j). A
    coalition index splits into high and low bits. The sums over the low
    bits form one table built by doubling, t[2^j : 2^(j+1)] = t[:2^j] +
    delta_j, laid out (hidden, R, 2^low) with `low` the largest value that
    keeps it within _CHUNK_ELEMENTS. Each block of 2^low coalitions is that
    table plus the deltas of its high bits, summed once per block, so no
    array grows past the cap. The cost is one addition per element instead
    of an n-term product, and no mask or composite row is built.

    The blocks run under a ufunc buffer of one table row, 2^low elements
    (`_row_buffer`): the offset add broadcasts along table rows, the head's
    bias add and softmax along logit rows of R * 2^low, and on E2 (hidden
    11, bg 16, 2^8) numpy's default buffer holds two or more of either. A
    dense (11, 23, 256) block then takes 118 us instead of 151 us, with the
    same bits.

    Every game gets the bits it gets alone: its base W b + c is one product
    over its own references, and its mean runs over its own slice of them.
    Consecutive games with as many references share those two steps.
    """
    weight, bias = model.first_layer
    hidden, refs, count = weight.shape[0], rows.shape[0], live.shape[1]
    # delta[j] = outer(W[:, live_j], x_j - b_j): (L, hidden, R)
    delta = np.empty((count, hidden, refs))
    np.multiply(weight.T[live.T].transpose(0, 2, 1), gaps.T[:, None, :], out=delta)
    # runs of consecutive games with as many references: their games, their
    # references, and (games, size) to split the references by game
    runs, game, ref = [], 0, 0
    for size, run in itertools.groupby(sizes):
        games = len(list(run))
        runs.append((slice(game, game + games), slice(ref, ref + games * size), (games, size)))
        game, ref = game + games, ref + games * size
    low = min(count, max(0, (_CHUNK_ELEMENTS // (hidden * refs)).bit_length() - 1))
    table = np.empty((hidden, refs, 1 << low))
    for _, run_refs, split in runs:
        base = weight @ rows[run_refs].reshape(*split, -1).transpose(0, 2, 1) + bias[:, None]
        table[:, run_refs, 0] = base.transpose(1, 0, 2).reshape(hidden, -1)
    for j in range(low):
        np.add(table[..., : 1 << j], delta[j, :, :, None], out=table[..., 1 << j : 2 << j])
    high = delta[low:].reshape(count - low, hidden * refs)
    shifts = np.arange(count - low)
    blocks = 1 << (count - low)
    # scratch the head may overwrite; a table that only one block reads is its own
    pre = table if blocks == 1 else np.empty_like(table)
    # the head takes (R, hidden) rows; the transposed view keeps `pre` hidden-major
    pre_rows = pre.reshape(hidden, -1).T
    values = None
    with _row_buffer(1 << low):
        for block in range(blocks):
            offset = ((block >> shifts) & 1) @ high
            np.add(table, offset.reshape(hidden, refs, 1), out=pre)
            probs = model.head(pre_rows).T  # (m, R * 2^low)
            m = probs.shape[0]
            if values is None:
                values = np.empty((len(sizes), m, 1 << count))
            probs = probs.reshape(m, refs, -1)
            coalitions = slice(block << low, (block + 1) << low)
            for run_games, run_refs, split in runs:
                mean = probs[:, run_refs].reshape(m, *split, -1).mean(axis=2)
                values[run_games, :, coalitions] = mean.transpose(1, 0, 2)
    return values


def _check_inputs(x: np.ndarray, bg: BackgroundSet, stacked: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if stacked and (x.ndim != 2 or x.shape[0] == 0):
        raise ValidationError("descriptors must be a non-empty (N, n) stack")
    if not stacked and x.ndim != 1:
        raise ValidationError("descriptor must be a flat vector")
    if bg.num_features != x.shape[-1]:
        raise ValidationError(
            f"background has {bg.num_features} features, descriptor has {x.shape[-1]}"
        )
    return x


def exact_shap_stack(model: Model, x: np.ndarray, bg: BackgroundSet) -> np.ndarray:
    """Exact attributions of a stack of descriptors (N, n); (N, m, n).

    The background-averaged game is the mean of its single-reference
    games, and Shapley values are linear in the game. In the game of one
    reference b, every feature with x_j == b_j is a null player, so only
    the live features (x_j != b_j) are enumerated. References sharing a
    live pattern share one reduced game.

    Each (row, reference) pair gets the integer key row << n | pattern,
    column 0 the pattern's top bit, so key order is `np.unique(axis=0)`'s
    order of each row's patterns, and one `np.unique` of the keys lists
    every game of the stack. A `LayeredModel` evaluates them by live
    count, fewest references first, packed side by side up to
    _PACK_ELEMENTS (a game past that alone is a pack of one), through its
    first layer (`_layered_game_values`); any other callable evaluates one
    game at a time on its composite rows (`_coalition_values`). One
    unbuffered `np.add.at` adds each game, weighted by its share of the
    background, into its row in key order, so each row gets the
    attributions `exact_shap_matrix` gives it alone, bit for bit.
    """
    x = _check_inputs(x, bg, stacked=True)
    count, n = x.shape
    if n > EXACT_MAX_FEATURES:
        raise ValidationError(
            f"exact enumeration refuses n={n} > {EXACT_MAX_FEATURES} features; "
            "use the kernel mode (kernel_shap_matrix) instead"
        )
    bits = 1 << np.arange(n - 1, -1, -1)
    codes = (x[:, None, :] != bg.vectors) @ bits  # (N, B) live patterns
    keys, game, sizes = np.unique(
        (np.arange(count)[:, None] << n | codes).ravel(), return_inverse=True, return_counts=True
    )
    live = (keys & (1 << n) - 1) != 0  # a game with no live feature contributes exactly 0
    if not live.any():  # every row equals every reference
        return np.zeros((count, np.asarray(model(x[:1])).shape[1], n))
    keys, sizes = keys[live], sizes[live]
    masks = (keys[:, None] & bits) != 0  # (G, n) live columns of each game
    live_counts = masks.sum(axis=1)
    layered = _is_layered(model)
    # layered games by live count, fewest references first; others in key order
    order = np.lexsort((sizes, live_counts)) if layered else np.arange(keys.size)
    rank = np.full(live.size, keys.size)
    rank[np.flatnonzero(live)[order]] = np.arange(keys.size)
    # every (row, reference) pair by its game's rank, game order[k]'s from firsts[k]
    held = np.argsort(rank[game], kind="stable")
    firsts = np.concatenate([[0], np.cumsum(sizes[order])])
    parts = []  # (G, m, L) attributions of the games in `order`
    if layered:
        capacity = _PACK_ELEMENTS // _first_layer(model, n)[0].shape[0]
        bounds, total = [], 0
        counts, ref_counts = live_counts[order].tolist(), sizes[order].tolist()
        for k, size in enumerate(ref_counts):
            total += size
            if not k or counts[k] != counts[k - 1] or total > capacity >> counts[k]:
                bounds.append(k)
                total = size
        for first, last in zip(bounds, bounds[1:] + [order.size]):
            games, pack = order[first:last], held[firsts[first] : firsts[last]]
            rows = bg.vectors[pack % bg.size]
            columns = masks[games].nonzero()[1].reshape(games.size, -1)
            columns = np.repeat(columns, sizes[games], axis=0)
            at = np.arange(rows.shape[0])[:, None]
            gaps = x[pack // bg.size][at, columns] - rows[at, columns]
            values = _layered_game_values(model, rows, columns, gaps, ref_counts[first:last])
            # class-major tables read coalition-major: each game's combine
            # then runs over the layout its table has when evaluated alone
            parts.append(_exact_from_values(values.transpose(0, 2, 1), counts[first]))
    else:
        for g, first, last in zip(order, firsts, firsts[1:]):
            subset = BackgroundSet(bg.vectors[held[first:last] % bg.size])
            values = _coalition_values(model, x[keys[g] >> n], subset, _live_masks(masks[g]))
            parts.append(_exact_from_values(values, int(live_counts[g]))[None])
    # one (m,) entry per (game, live column), stably into key order
    values = np.concatenate([part.transpose(0, 2, 1).reshape(-1, part.shape[1]) for part in parts])
    values = values[np.argsort(np.repeat(order, live_counts[order]), kind="stable")]
    values *= np.repeat(sizes / bg.size, live_counts)[:, None]
    owners, columns = np.repeat(keys >> n, live_counts)[:, None], masks.nonzero()[1][:, None]
    shap = np.zeros((count, values.shape[1], n))
    # unbuffered and in entry order: each element sums its games as a loop over them would
    np.add.at(shap, (owners, np.arange(values.shape[1]), columns), values)
    return shap


def exact_shap_matrix(model: Model, x: np.ndarray, bg: BackgroundSet) -> np.ndarray:
    """Exact attributions for every model output at once; (m, n).

    The one-row call of `exact_shap_stack`.
    """
    x = _check_inputs(x, bg)
    return exact_shap_stack(model, x[None, :], bg)[0]


def _kernel_weight(n: int, size: int) -> float:
    return (n - 1) / (math.comb(n, size) * size * (n - size))


def _sample_masks(
    n: int, num_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled proper-coalition masks with accumulated frequency weights.

    A draw picks its size from the kernel mass of the size strata, then a
    uniform subset of that size: the features whose rank in a row of
    uniform keys is below the size. Identical rows are merged, compared as
    their packed bytes, and their counts become the weights, so no integer
    key limits n. The draws are those of `rng.choice(sizes, p=...)` and a
    double argsort of the keys, with fewer passes: the size is looked up
    in the CDF `Generator.choice` builds, and the features in the first
    `size` places of the key order are the ones ranked below the size.
    """
    sizes = np.arange(1, n)
    size_mass = (n - 1) / (sizes * (n - sizes))  # kernel mass of each size stratum
    cdf = (size_mass / size_mass.sum()).cumsum()
    cdf /= cdf[-1]
    draws = sizes[cdf.searchsorted(rng.random(num_samples), side="right")]
    order = rng.random((num_samples, n)).argsort(axis=1)
    masks = np.empty((num_samples, n), dtype=bool)
    np.put_along_axis(masks, order, np.arange(n) < draws[:, None], axis=1)
    packed = np.packbits(masks, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return masks[first], counts.astype(np.float64)


def _enumerate_proper_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    masks = _all_masks(n)[1:-1]
    # one weight per coalition size 1 .. n-1, read by popcount
    per_size = np.array([_kernel_weight(n, size) for size in range(1, n)])
    return masks, per_size[masks.sum(axis=1) - 1]


def _kernel_solve(
    masks: np.ndarray, weights: np.ndarray, values: np.ndarray, v0: np.ndarray, v1: np.ndarray
) -> np.ndarray:
    """Constrained WLS with the efficiency constraint eliminated; (m, n).

    The last feature's coefficient is substituted out so the recovered
    attributions satisfy sum_j phi_j = v1 - v0 exactly.
    """
    n = masks.shape[1]
    z = masks.astype(np.float64)
    span = v1 - v0  # (m,)
    targets = values - v0[None, :] - z[:, -1:] * span[None, :]
    design = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)[:, None]
    a = sw * design
    b = sw * targets
    # rcond=None drops singular values below eps * max(M, N) * s_max, the
    # matrix_rank tolerance, so one factorisation gives both rank and fit
    coef, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)  # coef (n-1, m)
    if rank < n - 1:
        # fewer rows than unknowns leaves missing singular values, i.e. zeros
        full = sv.size == n - 1 and sv[-1] > 0
        cond = sv[0] / sv[-1] if full else np.inf
        raise NumericalError(
            f"kernel regression system is singular (rank {rank} < {n - 1}, "
            f"condition number {cond:.3e}); draw more coalition samples"
        )
    phi = np.empty((values.shape[1], n))
    phi[:, :-1] = coef.T
    phi[:, -1] = span - coef.sum(axis=0)
    return phi


def kernel_shap_stack(
    model: Model,
    x: np.ndarray,
    bg: BackgroundSet,
    num_coalition_samples: int,
    seeds: list[int],
) -> np.ndarray:
    """Kernel estimates of a stack of descriptors (N, n), one seed per row; (N, m, n).

    Each row's estimate is the one `kernel_shap_matrix` gives it alone,
    bit for bit: its masks come from its own seed's stream, and it is
    evaluated and solved on its own. The rows share the background output
    v0, and each step (sampling, evaluation, solving) runs over every row
    before the next starts.
    """
    x = _check_inputs(x, bg, stacked=True)
    count, n = x.shape
    if len(seeds) != count:
        raise ValidationError(f"need one seed per descriptor, got {len(seeds)} for {count}")
    if num_coalition_samples < 2 * n:
        raise ValidationError(
            f"need at least 2n = {2 * n} coalition samples, got {num_coalition_samples}"
        )
    v0 = np.asarray(model(bg.vectors), dtype=np.float64).mean(axis=0)
    # one row per call: a stacked product rounds differently
    v1 = np.stack([np.asarray(model(row[None, :]), dtype=np.float64)[0] for row in x])
    if n == 1:
        # Efficiency pins the single attribution; there are no proper coalitions.
        return (v1 - v0)[:, :, None]
    if n <= 30 and num_coalition_samples >= (1 << n) - 2:
        samples = [_enumerate_proper_masks(n)] * count
    else:
        samples = [
            _sample_masks(
                n,
                num_coalition_samples,
                np.random.default_rng(np.random.SeedSequence([seed, 0x5A])),
            )
            for seed in seeds
        ]
    # step by step over the stack: 30 rows (n = 14, bg 16, 256 draws) take
    # 15.5 ms this way against 18 ms row by row on a 2-core Xeon VM
    values = [_coalition_values(model, row, bg, masks) for row, (masks, _) in zip(x, samples)]
    return np.stack([
        _kernel_solve(masks, weights, row_values, v0, row_v1)
        for (masks, weights), row_values, row_v1 in zip(samples, values, v1)
    ])


def kernel_shap_matrix(
    model: Model,
    x: np.ndarray,
    bg: BackgroundSet,
    num_coalition_samples: int,
    seed: int,
) -> np.ndarray:
    """Kernel estimates for every model output at once; (m, n).

    The one-row call of `kernel_shap_stack`.
    """
    x = _check_inputs(x, bg)
    return kernel_shap_stack(model, x[None, :], bg, num_coalition_samples, [seed])[0]


def shap_matrix(
    model: Model,
    x: np.ndarray,
    bg: BackgroundSet,
    mode: str,
    num_coalition_samples: int,
    seed: int | list[int],
) -> np.ndarray:
    """Attributions of every output by the estimator `mode` names.

    One descriptor (n,) with an integer seed gives (m, n). A stack (N, n)
    with one seed per row gives (N, m, n) in either mode, each row's
    attributions as it would get them alone; the exact mode ignores the
    seeds. Non-finite attributions raise NumericalError. The estimators
    are looked up by name at each call, so one replaced in this module sees
    every call it serves: `exact_shap_stack` and `kernel_shap_stack` every
    call of their mode (the one-row calls go through them too),
    `exact_shap_matrix` and `kernel_shap_matrix` the calls of one
    descriptor.
    """
    stacked = np.ndim(x) == 2
    if mode == "exact":
        values = exact_shap_stack(model, x, bg) if stacked else exact_shap_matrix(model, x, bg)
    elif mode == "kernel":
        estimator = kernel_shap_stack if stacked else kernel_shap_matrix
        values = estimator(model, x, bg, num_coalition_samples, seed)
    else:
        raise ValidationError(f"unknown shap mode {mode!r}; expected one of {SHAP_MODES}")
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{mode} attributions are non-finite")
    return values
