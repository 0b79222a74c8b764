"""Unit tests for the Bloom filter and AMS F2 sketch."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import MergeError, ParameterError, merge_all
from repro.sketches import AmsF2Sketch, BloomFilter


class TestBloomFilter:
    def test_invalid_geometry(self):
        with pytest.raises(ParameterError):
            BloomFilter(4)
        with pytest.raises(ParameterError):
            BloomFilter(64, hashes=0)

    def test_for_capacity_sizing(self):
        bf = BloomFilter.for_capacity(1_000, 0.01)
        assert bf.bits >= 9_000  # ~9.6 bits/item at 1% fp
        assert 5 <= bf.hashes <= 10

    def test_for_capacity_validates(self):
        with pytest.raises(ParameterError):
            BloomFilter.for_capacity(0)
        with pytest.raises(ParameterError):
            BloomFilter.for_capacity(10, fp_rate=1.5)

    def test_no_false_negatives(self):
        bf = BloomFilter.for_capacity(500, 0.01, seed=1)
        bf.extend(range(500))
        assert all(i in bf for i in range(500))

    def test_false_positive_rate_near_design(self):
        bf = BloomFilter.for_capacity(1_000, 0.01, seed=2)
        bf.extend(range(1_000))
        fp = sum(1 for i in range(100_000, 110_000) if i in bf) / 10_000
        assert fp <= 0.03

    def test_merge_is_union(self):
        a = BloomFilter(1024, 4, seed=3).extend(range(100))
        b = BloomFilter(1024, 4, seed=3).extend(range(100, 200))
        a.merge(b)
        assert all(i in a for i in range(200))

    def test_merge_idempotent(self):
        from repro.core import dumps, loads

        bf = BloomFilter(256, 3, seed=4).extend(range(50))
        fill = bf.fill_fraction
        bf.merge(loads(dumps(bf)))
        assert bf.fill_fraction == fill

    def test_geometry_mismatch_refused(self):
        with pytest.raises(MergeError):
            BloomFilter(256, 3, seed=1).merge(BloomFilter(512, 3, seed=1))

    def test_string_items(self):
        bf = BloomFilter(512, 4, seed=5).extend(["alice", "bob"])
        assert "alice" in bf
        assert bf.might_contain("bob")


class TestAmsF2:
    def test_invalid_geometry(self):
        with pytest.raises(ParameterError):
            AmsF2Sketch(0, 3)

    def test_depth_made_odd(self):
        assert AmsF2Sketch(8, 4).depth == 5

    def test_single_item_exact(self):
        ams = AmsF2Sketch(16, 3, seed=1)
        ams.update("x", weight=10)
        # one item: every cell is (+-10); F2 estimate is exactly 100
        assert ams.f2() == 100.0

    def test_estimate_concentrates(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 300, size=30_000).tolist()
        truth = Counter(stream)
        f2_true = sum(c * c for c in truth.values())
        ams = AmsF2Sketch(128, 5, seed=3).extend(stream)
        assert abs(ams.f2() - f2_true) / f2_true <= 0.25

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 100, size=5_000).tolist()
        sequential = AmsF2Sketch(32, 3, seed=5).extend(stream)
        parts = [AmsF2Sketch(32, 3, seed=5).extend(stream[i::4]) for i in range(4)]
        merged = merge_all(parts, strategy="tree")
        assert (merged._table == sequential._table).all()

    def test_seed_mismatch_refused(self):
        with pytest.raises(MergeError):
            AmsF2Sketch(16, 3, seed=1).merge(AmsF2Sketch(16, 3, seed=2))

    def test_f2_grows_with_skew(self):
        flat = AmsF2Sketch(64, 5, seed=6).extend(list(range(1_000)))
        skewed = AmsF2Sketch(64, 5, seed=6).extend([1] * 1_000)
        assert skewed.f2() > 10 * flat.f2()
