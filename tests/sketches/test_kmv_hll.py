"""Unit tests for the distinct-count sketches (KMV, HyperLogLog)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import MergeError, ParameterError, merge_all
from repro.core.hashing import hash_batch
from repro.sketches import HyperLogLog, KMinValues
from repro.sketches.hyperloglog import _bit_length_u64


@pytest.fixture(scope="module")
def big_stream():
    rng = np.random.default_rng(1)
    items = rng.integers(0, 30_000, size=150_000).tolist()
    return items, len(set(items))


class TestKMinValues:
    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            KMinValues(1)

    def test_small_cardinality_exact(self):
        kmv = KMinValues(64, seed=1).extend([1, 2, 3, 2, 1])
        assert kmv.distinct() == 3
        assert kmv.n == 5

    def test_duplicates_dont_grow_the_sketch(self):
        kmv = KMinValues(64, seed=1).extend([7] * 1000)
        assert kmv.size() == 1
        assert kmv.distinct() == 1

    def test_estimate_within_relative_error(self, big_stream):
        items, true_d = big_stream
        kmv = KMinValues(1024, seed=2).extend(items)
        assert abs(kmv.distinct() - true_d) / true_d <= 5 * kmv.relative_error

    def test_merge_is_lossless(self, big_stream):
        """Merged KMV state equals the sequentially built state exactly."""
        items, _ = big_stream
        sequential = KMinValues(512, seed=3).extend(items)
        parts = [KMinValues(512, seed=3).extend(items[i::8]) for i in range(8)]
        merged = merge_all(parts, strategy="random", rng=4)
        assert merged.to_dict()["values"] == sequential.to_dict()["values"]
        assert merged.n == sequential.n

    def test_idempotent_merge(self):
        """Merging a sketch with a copy of itself changes nothing
        (distinct counting is a lattice, not a sum)."""
        from repro.core import dumps, loads

        kmv = KMinValues(64, seed=5).extend(range(1000))
        clone = loads(dumps(kmv))
        before = kmv.distinct()
        kmv.merge(clone)
        assert kmv.distinct() == before

    def test_seed_mismatch_refused(self):
        with pytest.raises(MergeError):
            KMinValues(64, seed=1).merge(KMinValues(64, seed=2))

    def test_k_mismatch_refused(self):
        with pytest.raises(MergeError):
            KMinValues(64).merge(KMinValues(128))

    def test_size_bounded_by_k(self):
        kmv = KMinValues(32, seed=1).extend(range(10_000))
        assert kmv.size() == 32


class TestHyperLogLog:
    def test_invalid_precision(self):
        for bad in (3, 19):
            with pytest.raises(ParameterError):
                HyperLogLog(p=bad)

    def test_small_range_linear_counting(self):
        hll = HyperLogLog(p=10, seed=1).extend(range(100))
        assert abs(hll.distinct() - 100) <= 10

    def test_estimate_within_relative_error(self, big_stream):
        items, true_d = big_stream
        hll = HyperLogLog(p=12, seed=2).extend(items)
        assert abs(hll.distinct() - true_d) / true_d <= 5 * hll.relative_error

    def test_merge_is_lossless(self, big_stream):
        items, _ = big_stream
        sequential = HyperLogLog(p=10, seed=3).extend(items)
        parts = [HyperLogLog(p=10, seed=3).extend(items[i::6]) for i in range(6)]
        merged = merge_all(parts, strategy="chain")
        assert (merged._registers == sequential._registers).all()

    def test_idempotent_merge(self):
        from repro.core import dumps, loads

        hll = HyperLogLog(p=8, seed=4).extend(range(5_000))
        before = hll.distinct()
        hll.merge(loads(dumps(hll)))
        assert hll.distinct() == before

    def test_precision_mismatch_refused(self):
        with pytest.raises(MergeError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=12, seed=1))

    def test_seed_mismatch_refused(self):
        with pytest.raises(MergeError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=10, seed=2))

    def test_size_is_register_count(self):
        assert HyperLogLog(p=8).size() == 256

    def test_weight_affects_n_not_distinct(self):
        hll = HyperLogLog(p=8, seed=5)
        hll.update("x", weight=100)
        assert hll.n == 100
        assert abs(hll.distinct() - 1) <= 1


class TestRankKernel:
    """The batch rank kernel is exact where float64 rounding would bite."""

    def test_bit_length_matches_int_at_the_edges(self):
        # float64 holds integers exactly only up to 2**53: converting the
        # whole word rounds 2**64 - 1 up to 2**64, one bit too long
        edges = [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1]
        lengths = _bit_length_u64(np.array(edges, dtype=np.uint64))
        assert lengths.tolist() == [v.bit_length() for v in edges]

    def test_bit_length_matches_int_at_every_width(self):
        rng = random.Random(13)
        values = [0] + [
            (1 << (width - 1)) | rng.getrandbits(width - 1)
            for width in range(1, 65)
            for _ in range(32)
        ]
        lengths = _bit_length_u64(np.array(values, dtype=np.uint64))
        assert lengths.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("p", [4, 18])
    @pytest.mark.parametrize("kind", ["ints", "negative-ints", "strings"])
    def test_batch_matches_per_item(self, p, kind):
        raw = np.random.default_rng(17).integers(0, 2**62, size=40_000).tolist()
        items = {
            "ints": raw,
            "negative-ints": [-v for v in raw],
            "strings": [f"user-{v}" for v in raw],  # the BLAKE2b path
        }[kind]
        if p == 18:  # some ranks come from the low 32-bit half
            assert (hash_batch(items, seed=9) >> np.uint64(p) < 2**32).any()
        batched = HyperLogLog(p=p, seed=9)
        batched.update_batch(items)
        looped = HyperLogLog(p=p, seed=9)
        for item in items:
            looped.update(item)
        assert np.array_equal(batched._registers, looped._registers)


def _per_register_estimate(hll: HyperLogLog) -> float:
    """The estimator summed register by register: the histogram's reference."""
    m = hll.m
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1.0 + 1.079 / m))
    estimate = alpha * m * m / np.sum(2.0 ** -hll._registers.astype(np.float64))
    zeros = int(np.count_nonzero(hll._registers == 0))
    if estimate <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return float(estimate)


class TestRankHistogramEstimate:
    """``distinct()`` from one rank histogram is bit-equal to the per-register sum."""

    @pytest.mark.parametrize("p", range(4, 19))
    def test_real_streams(self, p):
        rng = np.random.default_rng(100 + p)
        for size in (1, 50, 3_000, 200_000):
            hll = HyperLogLog(p=p, seed=p)
            hll.update_batch(rng.integers(0, 2**62, size=size).tolist())
            assert hll.distinct() == _per_register_estimate(hll)

    @pytest.mark.parametrize("p", range(4, 19))
    def test_all_zero_and_all_max_rank_registers(self, p):
        empty = HyperLogLog(p=p)
        assert empty.distinct() == _per_register_estimate(empty) == 0.0
        full = HyperLogLog(p=p)
        full._registers[:] = 65 - p  # the largest rank a register can hold
        assert full.distinct() == _per_register_estimate(full)
