"""Tests for the dyadic hierarchy (range counts, hierarchical HH)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import MergeError, ParameterError, merge_all
from repro.frequency import DyadicHierarchy
from repro.workloads import zipf_stream

BITS = 10
K = 32


@pytest.fixture(scope="module")
def loaded():
    stream = zipf_stream(15_000, alpha=1.2, universe=1 << BITS, rng=1).tolist()
    truth = Counter(stream)
    hierarchy = DyadicHierarchy(K, BITS)
    for x in stream:
        hierarchy.update(x)
    return hierarchy, truth, stream


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            DyadicHierarchy(0, 8)
        with pytest.raises(ParameterError):
            DyadicHierarchy(8, 0)
        with pytest.raises(ParameterError):
            DyadicHierarchy(8, 64)

    def test_out_of_domain_item_rejected(self):
        h = DyadicHierarchy(4, 4)
        with pytest.raises(ParameterError, match="outside the domain"):
            h.update(16)
        with pytest.raises(ParameterError):
            h.update(-1)

    def test_space_bound(self, loaded):
        hierarchy, _, _ = loaded
        assert hierarchy.size() <= (BITS + 1) * K


class TestDyadicCover:
    def test_full_domain_is_one_block(self):
        h = DyadicHierarchy(4, 4)
        assert h._dyadic_cover(0, 15) == [(4, 0)]

    def test_single_point(self):
        h = DyadicHierarchy(4, 4)
        assert h._dyadic_cover(5, 5) == [(0, 5)]

    def test_cover_is_disjoint_and_complete(self):
        h = DyadicHierarchy(4, 6)
        for lo, hi in [(0, 63), (1, 62), (17, 43), (31, 32), (7, 7)]:
            covered = []
            for level, prefix in h._dyadic_cover(lo, hi):
                start = prefix << level
                covered.extend(range(start, start + (1 << level)))
            assert covered == list(range(lo, hi + 1))

    def test_cover_size_bounded(self):
        h = DyadicHierarchy(4, 10)
        rng = np.random.default_rng(2)
        for _ in range(50):
            lo, hi = sorted(rng.integers(0, 1 << 10, 2).tolist())
            assert len(h._dyadic_cover(lo, hi)) <= 2 * 10


class TestRangeCounts:
    def test_bounds_bracket_truth(self, loaded):
        hierarchy, truth, stream = loaded
        rng = np.random.default_rng(3)
        for _ in range(30):
            lo, hi = sorted(rng.integers(0, 1 << BITS, 2).tolist())
            true = sum(c for x, c in truth.items() if lo <= x <= hi)
            assert hierarchy.range_count(lo, hi) <= true
            assert hierarchy.range_count_upper(lo, hi) >= true

    def test_error_within_dyadic_bound(self, loaded):
        hierarchy, truth, stream = loaded
        n = len(stream)
        bound = 2 * BITS * n / (K + 1)
        rng = np.random.default_rng(4)
        for _ in range(30):
            lo, hi = sorted(rng.integers(0, 1 << BITS, 2).tolist())
            true = sum(c for x, c in truth.items() if lo <= x <= hi)
            assert true - hierarchy.range_count(lo, hi) <= bound

    def test_empty_range_rejected(self, loaded):
        hierarchy, _, _ = loaded
        with pytest.raises(ParameterError, match="empty range"):
            hierarchy.range_count(5, 4)

    def test_full_domain_equals_n_lowerish(self, loaded):
        hierarchy, _, stream = loaded
        # full domain is a single top-level block: exact (1 counter)
        assert hierarchy.range_count(0, (1 << BITS) - 1) <= len(stream)
        assert hierarchy.range_count_upper(0, (1 << BITS) - 1) >= len(stream)


class TestHierarchicalHeavyHitters:
    def test_no_false_negatives_at_any_level(self, loaded):
        hierarchy, truth, stream = loaded
        phi = 0.1
        n = len(stream)
        reported = hierarchy.hierarchical_heavy_hitters(phi)
        for level in range(BITS + 1):
            block_truth = Counter()
            for x, c in truth.items():
                block_truth[x >> level] += c
            for prefix, count in block_truth.items():
                if count >= phi * n:
                    assert (level, prefix) in reported

    def test_top_level_always_heavy(self, loaded):
        hierarchy, _, _ = loaded
        reported = hierarchy.hierarchical_heavy_hitters(0.5)
        assert (BITS, 0) in reported  # the whole domain holds all mass

    def test_invalid_phi(self, loaded):
        hierarchy, _, _ = loaded
        with pytest.raises(ParameterError):
            hierarchy.hierarchical_heavy_hitters(0)


class TestMerge:
    def test_levelwise_merge_preserves_bounds(self, loaded):
        _, truth, stream = loaded
        parts = [DyadicHierarchy(K, BITS) for _ in range(6)]
        for i, x in enumerate(stream):
            parts[i % 6].update(x)
        merged = merge_all(parts, strategy="random", rng=5)
        assert merged.n == len(stream)
        rng = np.random.default_rng(6)
        for _ in range(15):
            lo, hi = sorted(rng.integers(0, 1 << BITS, 2).tolist())
            true = sum(c for x, c in truth.items() if lo <= x <= hi)
            assert merged.range_count(lo, hi) <= true
            assert merged.range_count_upper(lo, hi) >= true

    def test_geometry_mismatch_refused(self):
        with pytest.raises(MergeError, match="hierarchy mismatch"):
            DyadicHierarchy(8, 8).merge(DyadicHierarchy(8, 9))

    def test_serialization_roundtrip(self, loaded):
        from repro.core import dumps, loads

        hierarchy, _, _ = loaded
        restored = loads(dumps(hierarchy))
        assert restored.range_count(10, 100) == hierarchy.range_count(10, 100)
        assert restored.size() == hierarchy.size()


class TestStoredForm:
    def test_levels_are_stored_as_counter_columns(self, loaded):
        hierarchy, _truth, _stream = loaded
        stored, logical = hierarchy.to_stored(), hierarchy.to_dict()
        assert [level["items"] for level in stored["levels"]] == [
            [item for item, _count in level["counters"]] for level in logical["levels"]
        ]
        restored = DyadicHierarchy.from_dict(stored)
        assert restored.to_dict() == logical
        assert restored.range_count(100, 400) == hierarchy.range_count(100, 400)
