"""Unit tests for the SpaceSaving summary."""

from __future__ import annotations

import pytest

from repro.core import MergeError, ParameterError, merge_all
from repro.frequency import SpaceSaving
from repro.workloads import chunk_evenly, zipf_stream


class TestConstruction:
    def test_invalid_k_raises(self):
        for bad in (0, 1, -3, 2.5):
            with pytest.raises(ParameterError):
                SpaceSaving(bad)

    def test_from_epsilon(self):
        assert SpaceSaving.from_epsilon(0.1).k == 10
        assert SpaceSaving.from_epsilon(0.9).k == 2

    def test_from_epsilon_validates(self):
        with pytest.raises(ParameterError):
            SpaceSaving.from_epsilon(0.0)


class TestStreaming:
    def test_small_stream_exact(self):
        ss = SpaceSaving(10).extend([1, 1, 2, 3])
        assert ss.counters() == {1: 2, 2: 1, 3: 1}
        assert ss.deduction == 0

    def test_never_underestimates(self, zipf_items, zipf_truth):
        ss = SpaceSaving(16).extend(zipf_items)
        for item, count in zipf_truth.items():
            assert ss.estimate(item) >= count

    def test_overestimate_within_bound(self, zipf_items, zipf_truth):
        k = 16
        ss = SpaceSaving(k).extend(zipf_items)
        bound = len(zipf_items) / k
        for item, count in zipf_truth.items():
            assert ss.estimate(item) - count <= bound

    def test_unmonitored_estimate_is_deduction(self):
        ss = SpaceSaving(2).extend([1, 1, 1, 2, 2, 3, 4])
        assert ss.estimate("never seen") == ss.deduction

    def test_lower_bound_below_truth(self, zipf_items, zipf_truth):
        ss = SpaceSaving(16).extend(zipf_items)
        for item in list(zipf_truth)[:100]:
            assert ss.lower_bound(item) <= zipf_truth[item]

    def test_size_at_most_k_minus_one(self):
        # the MG-image representation stores at most k-1 counters
        ss = SpaceSaving(8).extend(range(200))
        assert ss.size() <= 7

    def test_deduction_bounded(self, zipf_items):
        k = 16
        ss = SpaceSaving(k).extend(zipf_items)
        assert ss.deduction <= len(zipf_items) / k


class TestMerge:
    def test_merged_error_bound_over_topologies(self):
        n, k = 20_000, 20
        stream = zipf_stream(n, alpha=1.1, universe=4_000, rng=5)
        from collections import Counter

        truth = Counter(stream.tolist())
        for strategy in ("chain", "tree", "random"):
            parts = [
                SpaceSaving(k).extend(s.tolist())
                for s in chunk_evenly(stream, 10)
            ]
            rng = 1 if strategy == "random" else None
            merged = merge_all(parts, strategy=strategy, rng=rng)
            assert merged.n == n
            assert merged.size() <= k - 1
            bound = n / k
            for item, count in truth.most_common(50):
                assert 0 <= merged.estimate(item) - count <= bound

    def test_k_mismatch_raises(self):
        with pytest.raises(MergeError, match="k mismatch"):
            SpaceSaving(4).merge(SpaceSaving(5))

    def test_prune_rule_mismatch_raises(self):
        with pytest.raises(MergeError, match="prune rule mismatch"):
            SpaceSaving(4).merge(SpaceSaving(4, prune_rule="cafaro"))

    def test_merge_accumulates_n(self):
        a = SpaceSaving(4).extend([1, 2])
        b = SpaceSaving(4).extend([3])
        assert a.merge(b).n == 3


class TestHeavyHitters:
    def test_no_false_negatives(self, zipf_items, zipf_truth):
        ss = SpaceSaving(32).extend(zipf_items)
        phi = 0.05
        threshold = phi * len(zipf_items)
        reported = ss.heavy_hitters(phi)
        for item, count in zipf_truth.items():
            if count >= threshold:
                assert item in reported

    def test_invalid_phi_raises(self):
        with pytest.raises(ParameterError):
            SpaceSaving(4).extend([1]).heavy_hitters(2.0)


class TestStoredForm:
    def test_core_is_stored_as_counter_columns(self):
        ss = SpaceSaving(8).extend(zipf_stream(2_000, rng=4).tolist())
        stored, logical = ss.to_stored(), ss.to_dict()
        assert stored["core"] == ss._core.to_stored()
        assert stored["core"]["items"] == list(ss.counters())
        restored = SpaceSaving.from_dict(stored)
        assert restored.to_dict() == logical
        assert restored.counters() == ss.counters()
