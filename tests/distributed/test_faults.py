"""Unit tests for the fault model, retry policy, ledger, and corrupted wire."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParameterError, SerializationError, dumps, loads
from repro.distributed import (
    ContiguousPartitioner,
    FaultModel,
    MergeLedger,
    RetryPolicy,
    balanced_tree,
    chain,
    corrupt_payload,
    run_aggregation,
)
from repro.frequency import MisraGries
from repro.workloads import zipf_stream


class TestFaultModel:
    def test_probability_validation(self):
        for knob in ("loss", "crash", "duplicate", "corruption", "coordinator_crash"):
            with pytest.raises(ParameterError, match=knob):
                FaultModel(**{knob: 1.5})
            with pytest.raises(ParameterError, match=knob):
                FaultModel(**{knob: -0.1})

    def test_zero_probability_draws_nothing_and_no_rng(self):
        model = FaultModel(rng=1)
        for _ in range(100):
            assert not model.draw_loss()
            assert not model.draw_crash()
            assert not model.draw_duplicate()
            assert not model.draw_corruption()
            assert not model.draw_coordinator_crash()

    def test_seeded_draws_reproduce(self):
        a = FaultModel(loss=0.5, rng=7)
        b = FaultModel(loss=0.5, rng=7)
        assert [a.draw_loss() for _ in range(50)] == [
            b.draw_loss() for _ in range(50)
        ]

    def test_certain_faults_always_fire(self):
        model = FaultModel(loss=1.0, rng=1)
        assert all(model.draw_loss() for _ in range(20))


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, factor=2.0, max_delay=0.5)
        delays = [policy.delay_before(attempt) for attempt in policy.attempts()]
        assert delays == [0.0, 0.1, 0.2, 0.4, 0.5]  # capped at max_delay

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ParameterError):
            RetryPolicy(factor=0.5)


class TestMergeLedger:
    def test_witness_once(self):
        ledger = MergeLedger()
        assert ledger.witness("a") is True
        assert ledger.witness("a") is False
        assert "a" in ledger
        assert len(ledger) == 1

    def test_round_trip(self):
        ledger = MergeLedger(["x", "y"])
        restored = MergeLedger.from_list(ledger.to_list())
        assert "x" in restored and "y" in restored
        assert restored.witness("x") is False


class TestCorruptPayload:
    def test_corruption_always_detected(self):
        summary = MisraGries(16).extend([1, 1, 2, 3, 5, 8, 13] * 10)
        payload = dumps(summary)
        rng = np.random.default_rng(0)
        for _ in range(200):
            with pytest.raises(SerializationError):
                loads(corrupt_payload(payload, rng))

    def test_corruption_changes_payload(self):
        payload = dumps(MisraGries(4).extend([1, 2]))
        rng = np.random.default_rng(3)
        assert corrupt_payload(payload, rng) != payload


class TestScheduleValidation:
    def test_out_of_range_step_is_parameter_error(self):
        """A schedule referencing more nodes than the partitioner made
        must raise ParameterError, never a bare IndexError."""
        from repro.distributed import MergeSchedule

        with pytest.raises(ParameterError, match="outside"):
            MergeSchedule("bad", 3, [(0, 5), (0, 1)])
        with pytest.raises(ParameterError, match="outside"):
            MergeSchedule("bad", 3, [(0, -1), (0, 1)])

    def test_out_of_range_root_is_parameter_error(self):
        from repro.distributed import MergeSchedule

        with pytest.raises(ParameterError, match="root"):
            MergeSchedule("bad", 2, [(0, 1)], root=5)

    def test_run_aggregation_guards_schedule_indices(self):
        """Even a hand-built schedule object that bypasses validation
        (object.__new__-style corruption) fails loudly in the simulator."""
        from repro.distributed import MergeSchedule

        schedule = balanced_tree(4)
        hacked = object.__new__(MergeSchedule)
        object.__setattr__(hacked, "name", schedule.name)
        object.__setattr__(hacked, "leaves", schedule.leaves)
        object.__setattr__(hacked, "steps", [(0, 9), (2, 3), (0, 2)])
        object.__setattr__(hacked, "root", 0)
        with pytest.raises(ParameterError, match="partitioner produced"):
            run_aggregation(
                np.arange(100), ContiguousPartitioner(),
                lambda: MisraGries(8), hacked,
            )


class TestFaultRuntimeInvariants:
    def test_fault_model_excludes_legacy_duplicate_knob(self):
        # the fault model is the only duplicate injector: the bare
        # at-least-once knob is gone, and FaultModel without the ledger
        # reproduces it
        data = zipf_stream(500, rng=1)
        with pytest.raises(TypeError):
            run_aggregation(
                data, ContiguousPartitioner(), lambda: MisraGries(8),
                chain(4), duplicate_probability=0.5,
            )
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(8), chain(4),
            fault_model=FaultModel(duplicate=1.0, rng=4), exactly_once=False,
        )
        stats = result.fault_stats
        assert result.duplicated_deliveries == stats.duplicates_delivered == 3
        assert stats.duplicates_merged == 3
        assert result.summary.n > len(data)

    def test_fault_free_model_matches_plain_run(self):
        data = zipf_stream(4_000, alpha=1.2, rng=2)
        plain = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32), chain(8)
        )
        guarded = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32), chain(8),
            fault_model=FaultModel(rng=1),
        )
        assert guarded.summary.counters() == plain.summary.counters()
        assert guarded.coverage == 1.0
        assert guarded.delivered_leaves == list(range(8))
        assert guarded.lost_leaves == []
        assert guarded.fault_stats.attempts == 7

    def test_clean_result_carries_full_coverage_fields(self):
        data = zipf_stream(1_000, rng=3)
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(8), chain(4)
        )
        assert result.coverage == 1.0
        assert result.delivered_records == len(data)
        assert sum(result.shard_sizes) == len(data)
        assert result.fault_stats is None

    def test_retry_bytes_accounted_separately_from_payload(self):
        """Retransmissions reuse the cached generation payload: they
        inflate bytes_retransmitted, never bytes_shipped, so the
        payload figure stays comparable across fault levels."""
        data = zipf_stream(4_000, rng=4)
        clean = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8), serialize=True, fault_model=FaultModel(rng=1),
        )
        lossy = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(8), serialize=True,
            fault_model=FaultModel(loss=0.5, rng=2),
            retry_policy=RetryPolicy(max_attempts=20),
        )
        assert lossy.coverage == 1.0
        assert lossy.fault_stats.retries > 0
        assert clean.bytes_retransmitted == 0
        assert lossy.bytes_retransmitted > 0
        assert lossy.bytes_shipped == clean.bytes_shipped

    def test_crashed_subtree_is_excluded_not_zeroed(self):
        """A crash loses the node's subtree but the rest still merges;
        the root's n equals exactly the delivered shards' mass."""
        data = zipf_stream(8_000, rng=5)
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(32),
            balanced_tree(16), fault_model=FaultModel(crash=0.2, rng=6),
        )
        assert result.fault_stats.nodes_crashed > 0
        assert 0 < result.coverage < 1
        expected = sum(result.shard_sizes[i] for i in result.delivered_leaves)
        assert result.summary.n == expected
        assert set(result.lost_leaves).isdisjoint(result.delivered_leaves)
        assert len(result.delivered_leaves) + len(result.lost_leaves) == 16
