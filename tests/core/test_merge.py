"""Tests for the generic merge executors."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    MergeError,
    ParameterError,
    merge_all,
    merge_chain,
    merge_random_tree,
    merge_tree,
)
from repro.frequency import ExactCounter


def _parts(groups):
    return [ExactCounter.from_items(g) for g in groups]


GROUPS = [[1, 1, 2], [2, 3], [3, 3, 3], [4], [1, 4]]
EXPECTED = Counter(sum(GROUPS, []))


class TestMergeChain:
    def test_result_covers_all_inputs(self):
        merged = merge_chain(_parts(GROUPS))
        assert merged.counters() == dict(EXPECTED)
        assert merged.n == sum(EXPECTED.values())

    def test_single_summary_passthrough(self):
        only = ExactCounter.from_items([5])
        assert merge_chain([only]) is only

    def test_empty_list_raises(self):
        with pytest.raises(MergeError, match="empty list"):
            merge_chain([])


class TestMergeTree:
    def test_result_covers_all_inputs(self):
        merged = merge_tree(_parts(GROUPS))
        assert merged.counters() == dict(EXPECTED)

    def test_odd_count_handled(self):
        merged = merge_tree(_parts([[1], [2], [3]]))
        assert merged.counters() == {1: 1, 2: 1, 3: 1}

    def test_empty_list_raises(self):
        with pytest.raises(MergeError):
            merge_tree([])


class TestMergeRandomTree:
    def test_result_covers_all_inputs(self):
        merged = merge_random_tree(_parts(GROUPS), rng=3)
        assert merged.counters() == dict(EXPECTED)

    def test_deterministic_under_seed(self):
        a = merge_random_tree(_parts(GROUPS), rng=9)
        b = merge_random_tree(_parts(GROUPS), rng=9)
        assert a.counters() == b.counters()

    def test_empty_list_raises(self):
        with pytest.raises(MergeError):
            merge_random_tree([], rng=1)


class TestMergeAll:
    @pytest.mark.parametrize("strategy", ["chain", "tree", "random", "kway"])
    def test_all_strategies_agree_on_exact_counts(self, strategy):
        rng = 5 if strategy == "random" else None
        merged = merge_all(_parts(GROUPS), strategy=strategy, rng=rng)
        assert merged.counters() == dict(EXPECTED)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ParameterError, match="unknown merge strategy"):
            merge_all(_parts(GROUPS), strategy="zigzag")

    def test_rng_rejected_by_deterministic_strategies(self):
        with pytest.raises(ParameterError, match="does not use rng"):
            merge_all(_parts(GROUPS), strategy="kway", rng=5)
        with pytest.raises(ParameterError, match="does not use rng"):
            merge_all(_parts(GROUPS), strategy="chain", rng=5)
