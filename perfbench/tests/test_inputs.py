"""Seeded inputs: the same seed gives the same inputs, every seed the same mix."""

from collections import Counter
from itertools import islice

from perfbench.workloads import (
    BULK_BLOCK,
    NEMESIS_BLOCK,
    SMALL_BLOCK,
    bulk_copy_plan,
    bulk_pool,
    nemesis_plan,
    small_calls_plan,
)


def take(plan, n):
    return list(islice(plan, n))


def test_same_seed_same_inputs():
    assert take(small_calls_plan(7), 50) == take(small_calls_plan(7), 50)
    assert take(bulk_copy_plan(7), 60) == take(bulk_copy_plan(7), 60)
    assert take(nemesis_plan(7), 10) == take(nemesis_plan(7), 10)
    assert bulk_pool(7) == bulk_pool(7)


def test_other_seed_other_inputs():
    assert take(small_calls_plan(7), 50) != take(small_calls_plan(8), 50)
    assert take(bulk_copy_plan(7), 60) != take(bulk_copy_plan(8), 60)
    assert take(nemesis_plan(7), 10) != take(nemesis_plan(8), 10)
    assert bulk_pool(7)[:64] != bulk_pool(8)[:64]


def test_every_seed_runs_the_same_mix_per_block():
    for seed in range(5):
        plan = small_calls_plan(seed)
        for _ in range(4):
            assert Counter(take(plan, len(SMALL_BLOCK))) == Counter(SMALL_BLOCK)
        copies = bulk_copy_plan(seed)
        per_block = sum(BULK_BLOCK.values())
        for _ in range(3):
            assert Counter(size for size, _ in take(copies, per_block)) == Counter(BULK_BLOCK)
        sims = nemesis_plan(seed)
        for _ in range(2):
            assert sorted(take(sims, NEMESIS_BLOCK)) == list(range(NEMESIS_BLOCK))


def test_bulk_copies_never_repeat_the_previous_bytes_of_a_size():
    last = {}
    for size, offset in take(bulk_copy_plan(3), 500):
        assert last.get(size) != offset
        last[size] = offset
