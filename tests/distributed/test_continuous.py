"""Tests for the continuous (epoch-delta) aggregation harness."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import ParameterError, dumps
from repro.distributed import ContinuousAggregation, FaultModel, RetryPolicy
from repro.frequency import MisraGries
from repro.quantiles import KLLQuantiles, MergeableQuantiles
from repro.workloads import zipf_stream


def _epoch_shards(rng, nodes, size):
    return [rng.integers(0, 500, size=size) for _ in range(nodes)]


class TestContinuousAggregation:
    def test_invalid_nodes(self):
        with pytest.raises(ParameterError):
            ContinuousAggregation(lambda: MisraGries(8), nodes=0)

    def test_epoch_shard_count_checked(self):
        agg = ContinuousAggregation(lambda: MisraGries(8), nodes=3)
        with pytest.raises(ParameterError, match="expected data for 3 nodes"):
            agg.run_epoch([np.array([1])])

    def test_coordinator_accumulates_across_epochs(self):
        rng = np.random.default_rng(1)
        agg = ContinuousAggregation(lambda: MisraGries(64), nodes=4)
        total = 0
        for _ in range(5):
            shards = _epoch_shards(rng, 4, 200)
            report = agg.run_epoch(shards)
            total += sum(len(s) for s in shards)
            assert report.coordinator_n == total
        assert agg.epochs_completed == 5
        assert agg.totals()["records"] == total

    def test_guarantee_holds_after_many_epochs(self):
        """The coordinator is a deep merge tree; the MG bound must hold
        over everything observed across all epochs."""
        k = 32
        agg = ContinuousAggregation(lambda: MisraGries(k), nodes=8)
        everything = []
        for epoch in range(10):
            shards = [
                zipf_stream(300, alpha=1.2, universe=400, rng=epoch * 100 + i)
                for i in range(8)
            ]
            everything.extend(int(v) for s in shards for v in s)
            agg.run_epoch(shards)
        truth = Counter(everything)
        n = len(everything)
        assert agg.coordinator.n == n
        assert agg.coordinator.deduction <= n / (k + 1)
        for item, count in truth.most_common(30):
            estimate = agg.coordinator.estimate(item)
            assert estimate <= count
            assert count - estimate <= agg.coordinator.deduction

    def test_size_trajectory_stays_bounded(self):
        rng = np.random.default_rng(3)
        agg = ContinuousAggregation(lambda: MisraGries(16), nodes=4)
        for _ in range(8):
            agg.run_epoch(_epoch_shards(rng, 4, 500))
        assert max(agg.size_trajectory()) <= 16

    def test_bytes_shipped_per_epoch_flat(self):
        rng = np.random.default_rng(4)
        agg = ContinuousAggregation(lambda: MisraGries(32), nodes=4)
        for _ in range(6):
            agg.run_epoch(_epoch_shards(rng, 4, 1000))
        per_epoch = agg.bytes_per_epoch()
        assert all(b > 0 for b in per_epoch)
        assert max(per_epoch) <= 2 * min(per_epoch)

    def test_queryable_between_epochs(self):
        rng = np.random.default_rng(5)
        agg = ContinuousAggregation(
            lambda: MergeableQuantiles(64, rng=6), nodes=2, serialize=False
        )
        agg.run_epoch([rng.random(500), rng.random(500)])
        mid = agg.coordinator.median()
        assert 0.3 <= mid <= 0.7
        agg.run_epoch([rng.random(500) + 10, rng.random(500) + 10])
        assert agg.coordinator.quantile(0.9) > 1.0

    def test_serialize_false_ships_no_bytes(self):
        rng = np.random.default_rng(7)
        agg = ContinuousAggregation(
            lambda: MisraGries(8), nodes=2, serialize=False
        )
        report = agg.run_epoch(_epoch_shards(rng, 2, 50))
        assert report.bytes_shipped == 0

    def test_retransmissions_resend_first_bytes(self):
        # KLL draws a fresh RNG seed on every serialization, so only a
        # resend of the cached first payload ships equal-length attempts
        shard = np.random.default_rng(0).random(300)
        agg = ContinuousAggregation(
            lambda: KLLQuantiles(32, rng=5), nodes=1,
            fault_model=FaultModel(loss=0.5, rng=2),
            retry_policy=RetryPolicy(max_attempts=8),
        )
        report = agg.run_epoch([shard])
        twin = KLLQuantiles(32, rng=5)
        twin.extend(shard)
        assert agg.fault_stats.attempts > 1
        assert report.bytes_shipped == agg.fault_stats.attempts * len(dumps(twin))
