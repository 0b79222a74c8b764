"""Failure-injection tests: malformed inputs, corrupt payloads, abuse.

A production library must fail loudly and specifically, never corrupt
state silently.  These tests inject the failure modes a deployment
would actually see — truncated/garbled wire payloads, mismatched
configurations meeting at a merge point, hostile numeric inputs, and
(via the fault-tolerant runtime) lost messages, crashed nodes, and
duplicated deliveries — and assert that (a) the right library error
surfaces, (b) the receiving summary is left unharmed, and (c) the
retry + merge-ledger + checkpoint machinery recovers the paper's
guarantees over whatever data actually arrived.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro import (
    EpsKernel,
    KLLQuantiles,
    MergeableQuantiles,
    MisraGries,
    SpaceSaving,
)
from repro.core import (
    MergeError,
    ParameterError,
    SerializationError,
    dumps,
    loads,
)
from repro.distributed import (
    ContiguousPartitioner,
    ContinuousAggregation,
    CoordinatorCrash,
    FaultModel,
    InMemoryCheckpointStore,
    MergeLedger,
    Node,
    RetryPolicy,
    balanced_tree,
    run_aggregation,
)
from repro.workloads import zipf_stream


class TestCorruptPayloads:
    def test_truncated_payload(self):
        payload = dumps(MisraGries(8).extend([1, 2, 3]))
        with pytest.raises(SerializationError):
            loads(payload[: len(payload) // 2])

    def test_bitflipped_type_name(self):
        payload = dumps(MisraGries(8).extend([1, 2]))
        envelope = json.loads(payload)
        envelope["type"] = "misra_grief"
        with pytest.raises(SerializationError, match="unknown summary name"):
            loads(json.dumps(envelope))

    def test_state_for_wrong_type(self):
        """A valid envelope whose state belongs to another summary type
        must not silently produce a broken object."""
        payload = dumps(MisraGries(8).extend([1, 2]))
        envelope = json.loads(payload)
        envelope["type"] = "hyperloglog"
        with pytest.raises((SerializationError, KeyError, TypeError, ParameterError)):
            loads(json.dumps(envelope))

    def test_non_object_envelope(self):
        with pytest.raises(SerializationError):
            loads(json.dumps([1, 2, 3]))

    def test_receiver_unharmed_by_failed_merge(self):
        receiver = MisraGries(8).extend([1, 1, 2])
        before = receiver.counters()
        with pytest.raises(MergeError):
            receiver.merge(MisraGries(16).extend([3]))
        assert receiver.counters() == before
        assert receiver.n == 3


class TestConfigurationSkew:
    """Two sites drift in configuration; the merge point must catch it."""

    def test_mg_k_skew(self):
        with pytest.raises(MergeError, match="k mismatch"):
            MisraGries(64).merge(MisraGries(65))

    def test_ss_vs_mg_type_confusion(self):
        with pytest.raises(MergeError, match="identical summary types"):
            MisraGries(8).merge(SpaceSaving(8))

    def test_quantile_block_size_skew(self):
        with pytest.raises(MergeError):
            MergeableQuantiles(128).merge(MergeableQuantiles(127))

    def test_kernel_epsilon_skew(self):
        with pytest.raises(MergeError):
            EpsKernel(0.05).merge(EpsKernel(0.050001))

    def test_wire_roundtrip_preserves_merge_compatibility(self):
        a = KLLQuantiles(64, rng=1).extend([1.0, 2.0])
        b = loads(dumps(KLLQuantiles(64, rng=2).extend([3.0])))
        a.merge(b)  # must not raise
        assert a.n == 3


class TestHostileNumericInputs:
    def test_nan_values_are_storable_but_do_not_crash_rank(self):
        summary = MergeableQuantiles(16, rng=1)
        summary.extend([1.0, 2.0, float("nan")])
        # NaN compares false everywhere; rank must still answer finitely
        assert np.isfinite(summary.rank(1.5))

    def test_infinite_values_sort_to_extremes(self):
        summary = KLLQuantiles(16, rng=1).extend(
            [float("-inf"), 0.0, float("inf")]
        )
        assert summary.quantile(0.0) == float("-inf")
        assert summary.quantile(1.0) == float("inf")

    def test_huge_weights_do_not_overflow(self):
        mg = MisraGries(4)
        mg.update("x", weight=2**62)
        mg.update("y", weight=2**62)
        assert mg.estimate("x") == 2**62
        assert mg.n == 2**63

    def test_zero_and_negative_weights_rejected_everywhere(self):
        summaries = [
            MisraGries(4),
            SpaceSaving(4),
            MergeableQuantiles(16),
            KLLQuantiles(16),
        ]
        for summary in summaries:
            for bad in (0, -1):
                with pytest.raises(ParameterError):
                    summary.update(1, weight=bad)

    def test_mixed_item_types_coexist(self):
        mg = MisraGries(8).extend([1, "1", (1,), b"1", 1.5])
        assert mg.estimate(1) == 1
        assert mg.estimate("1") == 1
        assert mg.estimate((1,)) == 1


class TestAbusePatterns:
    def test_merging_a_summary_into_itself_is_rejected_or_sane(self):
        """Self-merge is a classic deployment bug (a node receives its
        own payload back).  Counts double — which is the correct multiset
        semantics — and the guarantee machinery must stay consistent."""
        mg = MisraGries(8).extend([1, 1, 2])
        clone = loads(dumps(mg))
        mg.merge(clone)
        assert mg.n == 6
        assert mg.estimate(1) == 4

    def test_thousandfold_merge_chain_stays_bounded(self):
        parts = [MisraGries(8).extend([i % 5]) for i in range(1000)]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc.merge(p)
        assert acc.n == 1000
        assert acc.size() <= 8
        assert acc.deduction <= 1000 / 9

    def test_empty_merges_in_bulk(self):
        acc = MergeableQuantiles(16, rng=1)
        for i in range(50):
            acc.merge(MergeableQuantiles(16, rng=2 + i))
        assert acc.n == 0
        assert acc.size() == 0


class TestExactlyOnceLedger:
    """At-least-once delivery + merge ledger = exactly-once merges."""

    def test_ledger_dedups_repeated_redelivery(self):
        parent = Node(node_id=0, shard=np.array([1, 1, 2]), ledger=MergeLedger())
        child = Node(node_id=1, shard=np.array([2, 3]))
        parent.build(lambda: MisraGries(8))
        child.build(lambda: MisraGries(8))
        payload = child.emit(serialize=True)
        assert parent.absorb(payload, delivery_id="d1") is True
        for _ in range(5):  # the transport keeps retransmitting
            assert parent.absorb(payload, delivery_id="d1") is False
        assert parent.summary.n == 5  # merged exactly once
        assert parent.merges_performed == 1
        assert parent.duplicates_ignored == 5

    def test_distinct_delivery_id_values_do_merge(self):
        parent = Node(node_id=0, shard=np.array([1]), ledger=MergeLedger())
        child = Node(node_id=1, shard=np.array([2]))
        parent.build(lambda: MisraGries(8))
        child.build(lambda: MisraGries(8))
        assert parent.absorb(child.emit(), delivery_id="a") is True
        assert parent.absorb(child.emit(), delivery_id="b") is True
        assert parent.summary.n == 3

    def test_corrupted_redelivery_rejected_before_ledger(self):
        """A garbled retransmission must NACK (SerializationError), not
        consume the delivery ID."""
        parent = Node(node_id=0, shard=np.array([1]), ledger=MergeLedger())
        child = Node(node_id=1, shard=np.array([2, 2]))
        parent.build(lambda: MisraGries(8))
        child.build(lambda: MisraGries(8))
        payload = child.emit(serialize=True)
        with pytest.raises(SerializationError):
            parent.absorb(payload[: len(payload) // 2], delivery_id="d1")
        assert "d1" not in parent.ledger
        assert parent.absorb(payload, delivery_id="d1") is True
        assert parent.summary.n == 3

    def test_duplicates_double_count_without_ledger(self):
        """Control: exactly_once=False reproduces the at-least-once drift."""
        data = zipf_stream(4_000, alpha=1.2, universe=500, rng=2)
        faulty = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8), fault_model=FaultModel(duplicate=1.0, rng=3),
            exactly_once=False,
        )
        assert faulty.summary.n > len(data)
        assert faulty.fault_stats.duplicates_merged == 7
        ledgered = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8), fault_model=FaultModel(duplicate=1.0, rng=3),
        )
        assert ledgered.summary.n == len(data)
        assert ledgered.fault_stats.duplicates_suppressed == 7


class TestLossCrashCorruption:
    def test_acceptance_mix_recovers_guarantee_over_delivered_data(self):
        """The headline scenario: loss=0.2, crash=0.05, duplicate=0.2.

        The retry+ledger path must produce a root summary that is
        *exactly* a fault-free aggregation of the delivered shards: n
        matches the delivered record count (no double counting) and MG
        honors its eps bound over the delivered ground truth.
        """
        data = zipf_stream(20_000, alpha=1.2, universe=5_000, rng=9)
        k = 64
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(k),
            balanced_tree(16), serialize=True,
            fault_model=FaultModel(loss=0.2, crash=0.05, duplicate=0.2, rng=7),
            retry_policy=RetryPolicy(max_attempts=6),
        )
        shards = ContiguousPartitioner().split(data, 16)
        delivered = np.concatenate([shards[i] for i in result.delivered_leaves])
        assert result.summary.n == len(delivered)
        assert result.delivered_records == len(delivered)
        truth = Counter(delivered.tolist())
        bound = len(delivered) / (k + 1)
        for item, count in truth.most_common(30):
            estimate = result.summary.estimate(item)
            assert estimate <= count
            assert count - estimate <= bound

    def test_retries_mask_heavy_loss(self):
        """loss=0.5 with a deep retry budget still delivers everything."""
        data = zipf_stream(4_000, rng=4)
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8),
            fault_model=FaultModel(loss=0.5, rng=5),
            retry_policy=RetryPolicy(max_attempts=40),
        )
        assert result.coverage == 1.0
        assert result.fault_stats.messages_lost > 0
        assert result.fault_stats.retries >= result.fault_stats.messages_lost

    def test_total_loss_degrades_to_root_shard_only(self):
        data = zipf_stream(4_000, rng=6)
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8),
            fault_model=FaultModel(loss=1.0, rng=7),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert result.delivered_leaves == [0]  # balanced_tree(8) roots at 0
        assert result.summary.n == result.delivered_records == len(data) // 8
        assert result.coverage == pytest.approx(1 / 8)
        assert result.fault_stats.deliveries_failed > 0

    def test_corruption_detected_and_retried(self):
        data = zipf_stream(4_000, rng=8)
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8), serialize=True,
            fault_model=FaultModel(corruption=0.5, rng=9),
            retry_policy=RetryPolicy(max_attempts=30),
        )
        stats = result.fault_stats
        assert stats.corrupted_payloads > 0
        # every injected corruption was caught by the envelope checksum
        assert stats.corruption_detected == stats.corrupted_payloads
        assert result.coverage == 1.0
        assert result.summary.n == len(data)

    def test_corruption_requires_serialization(self):
        data = zipf_stream(1_000, rng=1)
        with pytest.raises(ParameterError, match="serialize"):
            run_aggregation(
                data, ContiguousPartitioner(), lambda: MisraGries(8),
                balanced_tree(4), serialize=False,
                fault_model=FaultModel(corruption=0.5),
            )

    def test_coordinator_crash_rejected_by_one_shot_aggregation(self):
        # a continuous-only knob must not be silently ignored here
        data = zipf_stream(1_000, rng=1)
        with pytest.raises(ParameterError, match="coordinator_crash"):
            run_aggregation(
                data, ContiguousPartitioner(), lambda: MisraGries(8),
                balanced_tree(4), fault_model=FaultModel(coordinator_crash=0.5),
            )

    def test_degraded_coverage_reporting(self):
        from repro.analysis import degradation_report, degraded_frequency_bound

        data = zipf_stream(8_000, alpha=1.2, universe=1_000, rng=3)
        k = 32
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(k),
            balanced_tree(16),
            fault_model=FaultModel(crash=0.3, rng=12),
        )
        report = degradation_report(result)
        assert report.total_records == len(data)
        assert report.delivered_records == result.summary.n
        assert report.lost_records == len(data) - result.summary.n
        assert report.coverage == pytest.approx(result.summary.n / len(data))
        assert 0 < report.coverage < 1  # seeded: some but not all lost
        assert sorted(report.lost_leaves) == result.lost_leaves
        # the degraded bound really does cap the error vs FULL-data truth
        truth = Counter(data.tolist())
        bound = degraded_frequency_bound(k, report.delivered_records,
                                         report.lost_records)
        for item, count in truth.most_common(30):
            assert count - result.summary.estimate(item) <= bound


class TestCheckpointRecovery:
    @staticmethod
    def _epochs(seed: int = 3, epochs: int = 4, nodes: int = 6):
        rng = np.random.default_rng(seed)
        return [
            [rng.integers(0, 100, 500) for _ in range(nodes)]
            for _ in range(epochs)
        ]

    def test_crash_restore_equals_uninterrupted_run(self):
        """Kill the coordinator mid-run; after restoring from the last
        checkpoint and replaying, the serialized coordinator state must
        be byte-identical to a run that never crashed."""
        epochs = self._epochs()
        factory = lambda: MisraGries(32)  # noqa: E731
        clean = ContinuousAggregation(factory, nodes=6)
        for epoch_data in epochs:
            clean.run_epoch(epoch_data)

        store = InMemoryCheckpointStore()
        faulty = ContinuousAggregation(
            factory, nodes=6,
            fault_model=FaultModel(coordinator_crash=0.05, rng=11),
            checkpoint_store=store,
        )
        crashed = False
        for epoch_data in epochs:
            try:
                faulty.run_epoch(epoch_data)
            except CoordinatorCrash:
                crashed = True
                break
        assert crashed, "seeded run must crash; pick a new seed otherwise"
        with pytest.raises(RuntimeError, match="crashed"):
            faulty.run_epoch(epochs[0])  # dead coordinators stay dead

        restored = ContinuousAggregation.resume(
            store.latest(), factory, nodes=6, checkpoint_store=store
        )
        for epoch_data in epochs[restored.epochs_completed:]:
            restored.run_epoch(epoch_data)
        assert dumps(restored.coordinator) == dumps(clean.coordinator)
        assert restored.epochs_completed == clean.epochs_completed
        assert restored.coordinator.n == clean.coordinator.n

    def test_post_recovery_guarantee_holds(self):
        """After crash + restore + replay, MG still meets n/(k+1)."""
        epochs = self._epochs(seed=5)
        k = 32
        store = InMemoryCheckpointStore()
        agg = ContinuousAggregation(
            lambda: MisraGries(k), nodes=6,
            fault_model=FaultModel(coordinator_crash=0.1, rng=1),
            checkpoint_store=store,
        )
        replay_from = None
        for index, epoch_data in enumerate(epochs):
            try:
                agg.run_epoch(epoch_data)
            except CoordinatorCrash:
                replay_from = index
                break
        assert replay_from is not None
        agg = ContinuousAggregation.resume(
            store.latest(), lambda: MisraGries(k), nodes=6
        )
        for epoch_data in epochs[agg.epochs_completed:]:
            agg.run_epoch(epoch_data)
        truth = Counter()
        for epoch_data in epochs:
            for shard in epoch_data:
                truth.update(shard.tolist())
        n = sum(truth.values())
        assert agg.coordinator.n == n
        bound = n / (k + 1)
        for item, count in truth.most_common(30):
            estimate = agg.coordinator.estimate(item)
            assert estimate <= count
            assert count - estimate <= bound

    def test_restore_rejects_corrupted_checkpoint(self):
        from repro.distributed import Checkpoint

        agg = ContinuousAggregation(lambda: MisraGries(8), nodes=2)
        agg.run_epoch([np.array([1, 2]), np.array([3])])
        text = agg.checkpoint().to_json()
        blob = json.loads(text)
        blob["coordinator"] = blob["coordinator"].replace('"n":3', '"n":4')
        with pytest.raises(SerializationError, match="CRC"):
            Checkpoint.from_json(json.dumps(blob))
