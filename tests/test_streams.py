"""Random streams: every stream's bits are pinned, and only `streams` makes one."""

import re
from pathlib import Path

import numpy as np
import pytest

from xnesyl import streams
from xnesyl.streams import Tag, child_seed, rng, scoring_seeds

SEED = 7

# child seeds under SEED, recorded before the streams moved into one module;
# each is the parent of the streams below it in the run's chain
CHILD_SEEDS = {
    "CLASSIFIER": (1060258595, (SEED, Tag.CLASSIFIER, 1)),
    "BACKGROUND": (1060801321, (SEED, Tag.BACKGROUND, 1)),
    "SHAP_TRAIN": (3210196619, (SEED, Tag.SHAP_TRAIN, 1, 0)),
    "SHAP_EVAL": (1002604896, (SEED, Tag.SHAP_EVAL)),
    "INSTANCE": (1966523353, (1002604896, Tag.INSTANCE, 3)),
}

# the first `random()` of each stream, under the seed it follows in the chain
FIRST_DRAWS = {
    "PART_MEANS": (0.628592294319854, (SEED, Tag.PART_MEANS)),
    "SCENES": (0.8040213772673325, (SEED, Tag.SCENES)),
    "BATCH": (0.7447983794990424, (SEED, Tag.BATCH, 1)),
    "CLF_INIT": (0.1680181894378232, (1060258595, Tag.CLF_INIT)),
    "CLF_BATCH": (0.19278165264698355, (1060258595, Tag.CLF_BATCH)),
    "BACKGROUND_ROWS": (0.6191253591494378, (1060801321, Tag.BACKGROUND_ROWS)),
    "KERNEL_MASKS": (0.41231990182849876, (1966523353, Tag.KERNEL_MASKS)),
    "KERNEL_MASKS_TRAIN": (0.8898254921944315, (3210196619, Tag.KERNEL_MASKS)),
}

# the tags drawn under each kind of parent seed
UNDER_PARENT = {
    "dataset seed": (Tag.PART_MEANS, Tag.SCENES),
    "training seed": (Tag.BATCH, Tag.CLASSIFIER, Tag.BACKGROUND, Tag.SHAP_TRAIN, Tag.SHAP_EVAL),
    "SHAP_EVAL base": (Tag.INSTANCE,),
    "classifier seed": (Tag.CLF_INIT, Tag.CLF_BATCH),
    "background seed": (Tag.BACKGROUND_ROWS,),
    "attribution seed": (Tag.KERNEL_MASKS,),
}


@pytest.mark.parametrize("name", CHILD_SEEDS)
def test_child_seed_is_pinned(name):
    expected, entropy = CHILD_SEEDS[name]
    assert child_seed(*entropy) == expected


@pytest.mark.parametrize("name", FIRST_DRAWS)
def test_first_draw_is_pinned(name):
    expected, entropy = FIRST_DRAWS[name]
    assert rng(*entropy).random() == expected


def test_every_tag_is_pinned():
    pinned = {entropy[1] for _, entropy in (*CHILD_SEEDS.values(), *FIRST_DRAWS.values())}
    assert pinned == set(Tag)


def test_tags_keep_their_values():
    assert {tag.name: int(tag) for tag in Tag} == {
        "PART_MEANS": 0xA11, "SCENES": 0xD47, "BATCH": 1, "CLASSIFIER": 2, "BACKGROUND": 3,
        "SHAP_TRAIN": 4, "SHAP_EVAL": 5, "INSTANCE": 0x6ED, "CLF_INIT": 0xC1F,
        "CLF_BATCH": 0x5D6, "BACKGROUND_ROWS": 0xB6, "KERNEL_MASKS": 0x5A,
    }


def test_tags_under_each_parent_are_distinct():
    grouped = [tag for tags in UNDER_PARENT.values() for tag in tags]
    assert sorted(grouped) == sorted(Tag)
    for tags in UNDER_PARENT.values():
        assert len({int(tag) for tag in tags}) == len(tags)


def test_scoring_seeds_follow_the_eval_base():
    # the base is SHAP_EVAL's child seed, and a row's seed is its index's alone
    seeds = scoring_seeds(SEED, range(5))
    assert seeds[3] == CHILD_SEEDS["INSTANCE"][0]
    assert seeds == [child_seed(CHILD_SEEDS["SHAP_EVAL"][0], Tag.INSTANCE, i) for i in range(5)]
    assert scoring_seeds(SEED, [3]) == [seeds[3]]


def test_a_tag_is_its_integer_in_the_entropy():
    np.testing.assert_array_equal(
        rng(SEED, Tag.KERNEL_MASKS).random(4),
        np.random.default_rng(np.random.SeedSequence([SEED, 0x5A])).random(4),
    )


def test_only_the_streams_module_makes_generators():
    package = Path(streams.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "streams.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"SeedSequence\(|default_rng\(", line)
    ]
    assert offenders == []
