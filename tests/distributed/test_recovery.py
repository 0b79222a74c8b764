"""Unit tests for coordinator checkpointing and recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import SerializationError, dumps
from repro.distributed import (
    Checkpoint,
    ContinuousAggregation,
    CoordinatorCrash,
    FaultModel,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.frequency import MisraGries
from repro.quantiles import KLLQuantiles


def _factory():
    return MisraGries(16)


class TestCheckpoint:
    def test_json_round_trip(self):
        summary = MisraGries(16).extend([1, 1, 2, 3])
        checkpoint = Checkpoint(
            epoch=3,
            coordinator_payload=dumps(summary),
            ledger_ids=["a", "b"],
            history=[{"epoch": 1}],
        )
        restored = Checkpoint.from_json(checkpoint.to_json())
        assert restored.epoch == 3
        assert restored.ledger_ids == ["a", "b"]
        assert restored.history == [{"epoch": 1}]
        assert restored.restore_summary().counters() == summary.counters()

    def test_crc_rejects_tampering(self):
        checkpoint = Checkpoint(epoch=1, coordinator_payload=dumps(MisraGries(4)))
        blob = json.loads(checkpoint.to_json())
        blob["coordinator"] = blob["coordinator"][:-2] + "}}"
        if json.dumps(blob) != checkpoint.to_json():
            with pytest.raises(SerializationError, match="CRC"):
                Checkpoint.from_json(json.dumps(blob))

    def test_malformed_and_versioned(self):
        with pytest.raises(SerializationError, match="malformed"):
            Checkpoint.from_json("{}")
        with pytest.raises(SerializationError, match="malformed"):
            Checkpoint.from_json("not json at all")
        checkpoint = Checkpoint(epoch=1, coordinator_payload=dumps(MisraGries(4)))
        blob = json.loads(checkpoint.to_json())
        blob["format"] = 99
        with pytest.raises(SerializationError, match="unsupported checkpoint"):
            Checkpoint.from_json(json.dumps(blob))


class TestStores:
    def test_in_memory_latest_picks_highest_epoch(self):
        store = InMemoryCheckpointStore()
        assert store.latest() is None
        for epoch in (1, 3, 2):
            store.save(Checkpoint(epoch=epoch,
                                  coordinator_payload=dumps(MisraGries(4))))
        assert store.latest().epoch == 3
        assert len(store) == 3

    def test_file_store_round_trips(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        assert store.latest() is None
        summary = MisraGries(8).extend([5, 5, 6])
        store.save(Checkpoint(epoch=1, coordinator_payload=dumps(summary)))
        store.save(Checkpoint(epoch=2, coordinator_payload=dumps(summary),
                              ledger_ids=["x"]))
        latest = store.latest()
        assert latest.epoch == 2
        assert latest.ledger_ids == ["x"]
        assert latest.restore_summary().counters() == summary.counters()
        assert len(list((tmp_path / "ckpts").glob("checkpoint-*.json"))) == 2

    def test_file_store_leaves_no_tmp_droppings(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save(Checkpoint(epoch=1, coordinator_payload=dumps(MisraGries(4))))
        assert not list(tmp_path.glob("*.tmp"))

    def test_checkpoint_publish_survives_any_crash(self, tmp_path):
        """Kill the save at every syscall under every disk outcome: the
        store always restores either the old or the new checkpoint —
        never a torn file (the pre-fix bug: rename durable before the
        bytes, resurrecting an empty coordinator)."""
        from tests.store.crashfs import run_crash_sweep

        summary = MisraGries(8).extend([5, 5, 6])
        second = Checkpoint(
            epoch=2, coordinator_payload=dumps(summary), ledger_ids=["x"]
        )
        initial = tmp_path / "initial"
        FileCheckpointStore(initial).save(
            Checkpoint(epoch=1, coordinator_payload=dumps(summary))
        )

        def operation(fs, root):
            FileCheckpointStore(root, fs=fs).save(second)

        states = 0
        for kill, variant, crashed in run_crash_sweep(
            str(initial), operation, str(tmp_path / "sweep")
        ):
            states += 1
            latest = FileCheckpointStore(crashed).latest()
            assert latest.epoch in (1, 2), f"kill={kill} variant={variant}"
            assert latest.restore_summary().counters() == summary.counters()
            if latest.epoch == 2:
                assert latest.ledger_ids == ["x"]
        assert states >= 5 * 6  # 5 syscalls x 6 variants, all swept


class TestContinuousCheckpointing:
    def test_initial_checkpoint_at_epoch_zero(self):
        store = InMemoryCheckpointStore()
        ContinuousAggregation(_factory, nodes=2, checkpoint_store=store)
        assert store.latest().epoch == 0

    def test_checkpoint_after_every_epoch(self):
        store = InMemoryCheckpointStore()
        agg = ContinuousAggregation(_factory, nodes=2, checkpoint_store=store)
        for _ in range(3):
            agg.run_epoch([np.array([1, 2]), np.array([3])])
        assert store.latest().epoch == 3
        assert len(store) == 4  # epoch 0 + 3 epochs

    def test_resume_restores_history_and_ledger(self):
        store = InMemoryCheckpointStore()
        agg = ContinuousAggregation(_factory, nodes=2, checkpoint_store=store)
        agg.run_epoch([np.array([1, 1]), np.array([2])])
        agg.run_epoch([np.array([3]), np.array([4, 4])])
        restored = ContinuousAggregation.resume(store.latest(), _factory, nodes=2)
        assert restored.epochs_completed == 2
        assert restored.coordinator.n == 6
        assert dumps(restored.coordinator) == dumps(agg.coordinator)
        assert restored.totals() == agg.totals()
        # the restored ledger still suppresses already-merged deliveries
        assert restored.ledger is not None
        assert "node0@epoch1" in restored.ledger

    def test_resume_via_file_store(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        agg = ContinuousAggregation(_factory, nodes=2, checkpoint_store=store)
        agg.run_epoch([np.array([7, 7, 7]), np.array([8])])
        restored = ContinuousAggregation.resume(
            store.latest(), _factory, nodes=2, checkpoint_store=store
        )
        restored.run_epoch([np.array([9]), np.array([10])])
        assert restored.coordinator.n == 6
        assert store.latest().epoch == 2

    def test_kll_coordinator_checkpoints(self):
        """Randomized summaries checkpoint too (state round-trips)."""
        store = InMemoryCheckpointStore()
        agg = ContinuousAggregation(
            lambda: KLLQuantiles(32, rng=1), nodes=2, checkpoint_store=store
        )
        rng = np.random.default_rng(2)
        agg.run_epoch([rng.random(200), rng.random(200)])
        restored = ContinuousAggregation.resume(
            store.latest(), lambda: KLLQuantiles(32, rng=1), nodes=2
        )
        assert restored.coordinator.n == 400
        assert restored.coordinator.quantile(0.5) == agg.coordinator.quantile(0.5)


class TestContinuousFaultPath:
    def test_epoch_coverage_accounting(self):
        agg = ContinuousAggregation(
            _factory, nodes=4,
            fault_model=FaultModel(crash=0.5, rng=4),
        )
        rng = np.random.default_rng(5)
        lost_any = False
        for _ in range(5):
            report = agg.run_epoch([rng.integers(0, 50, 100) for _ in range(4)])
            assert report.records == 400
            assert report.delivered_records + report.lost_records == 400
            assert report.coverage == pytest.approx(report.delivered_records / 400)
            lost_any = lost_any or report.lost_records > 0
        assert lost_any
        assert agg.coordinator.n == sum(
            r.delivered_records for r in agg.history
        )
        assert 0 < agg.coverage() < 1

    def test_duplicates_suppressed_in_continuous_loop(self):
        agg = ContinuousAggregation(
            _factory, nodes=3,
            fault_model=FaultModel(duplicate=1.0, rng=6),
        )
        report = agg.run_epoch([np.array([1, 2]), np.array([3]), np.array([4])])
        assert report.duplicates_suppressed == 3
        assert agg.coordinator.n == 4  # every delta merged exactly once
        assert agg.fault_stats.duplicates_merged == 0

    def test_loss_with_retries_delivers_everything(self):
        agg = ContinuousAggregation(
            _factory, nodes=3,
            fault_model=FaultModel(loss=0.4, rng=7),
        )
        for _ in range(5):
            report = agg.run_epoch(
                [np.array([1, 1]), np.array([2]), np.array([3, 3, 3])]
            )
            assert report.coverage == 1.0
        assert agg.fault_stats.messages_lost > 0
        assert agg.fault_stats.retries >= agg.fault_stats.messages_lost

    def test_coordinator_crash_counts_deltas_merged_this_epoch(self):
        agg = ContinuousAggregation(
            lambda: MisraGries(8), nodes=4,
            fault_model=FaultModel(coordinator_crash=0.3, rng=1),
        )
        with pytest.raises(CoordinatorCrash) as crash:
            agg.run_epoch(
                [np.array([1, 2]), np.array([3]), np.array([4, 4, 4]), np.array([5])]
            )
        assert crash.value.epoch == 1
        assert crash.value.deltas_merged == 2
        assert agg.coordinator.n == 3
