"""Every random stream of the package: the Generator of `SeedSequence([seed, tag, *indices])`.

`Tag` names each role with the seed and indices it follows. The values
are arbitrary but frozen: a new one changes every run that draws from it.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

import numpy as np

__all__ = ["Tag", "rng", "child_seed", "scoring_seeds"]


@enum.unique
class Tag(enum.IntEnum):
    PART_MEANS = 0xA11  # dataset seed
    SCENES = 0xD47  # dataset seed
    BATCH = 1  # training seed, epoch
    CLASSIFIER = 2  # training seed, epoch: child seed
    BACKGROUND = 3  # training seed, epoch: child seed
    SHAP_TRAIN = 4  # training seed, epoch, training row: child seed
    SHAP_EVAL = 5  # training seed: child seed, the base of scoring
    INSTANCE = 0x6ED  # SHAP_EVAL base, row index in its split: child seed
    CLF_INIT = 0xC1F  # classifier seed
    CLF_BATCH = 0x5D6  # classifier seed
    BACKGROUND_ROWS = 0xB6  # background seed
    KERNEL_MASKS = 0x5A  # a row's attribution seed (SHAP_TRAIN or INSTANCE)


def rng(seed: int, *tags: int) -> np.random.Generator:
    """The stream `tags` (a role tag, then indices) names under `seed`."""
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def child_seed(seed: int, *tags: int) -> int:
    """The first word of `SeedSequence([seed, *tags])`: the parent seed of streams below it."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def scoring_seeds(seed: int, indices: Iterable[int]) -> list[int]:
    """Attribution seed of each row index of a split scored under training seed `seed`.

    The base is derived once, and a row's seed depends on its index alone,
    so `evaluate`'s stack and `explain`'s one row draw the same stream for it.
    """
    base = child_seed(seed, Tag.SHAP_EVAL)
    return [child_seed(base, Tag.INSTANCE, index) for index in indices]
