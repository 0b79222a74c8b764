"""Continuous distributed monitoring: epoch deltas into a running merge.

One-shot aggregation (:func:`repro.distributed.run_aggregation`) covers
the batch/MapReduce story; the paper's sensor-network motivation is
*continuous*: nodes keep observing, and every epoch each node ships a
summary **delta** (a summary of only that epoch's data) to the
coordinator, which merges it into a running global summary.

Mergeability is what makes this correct: the coordinator's summary
after any number of epochs is a valid summary of everything observed so
far, with the full error guarantee — because it is just a deep merge
tree.  The :class:`ContinuousAggregation` harness simulates the loop
with instrumentation (per-epoch bytes, cumulative guarantee tracking)
and supports querying the coordinator *between* epochs, which is the
operational point of the pattern.

Mergeability also makes the coordinator *recoverable* almost for free:
its whole state is one small serializable summary plus the merge
ledger, checkpointed after every epoch (see
:mod:`repro.distributed.recovery`).  A coordinator killed mid-epoch
(:class:`~repro.distributed.recovery.CoordinatorCrash`) resumes from
the last checkpoint, and replaying the interrupted epoch's deltas
reconverges to exactly the state an uninterrupted run would hold —
the ledger suppresses redeliveries of anything already checkpointed,
and the rolled-back epoch merges fresh.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core import Summary, dumps
from ..core.exceptions import ParameterError
from ..engine.agents import SummarySlot
from ..engine.faults import FaultModel, FaultStats, MergeLedger, RetryPolicy, deliver
from .recovery import Checkpoint, CheckpointStore, CoordinatorCrash

__all__ = ["EpochReport", "ContinuousAggregation"]


@dataclass
class EpochReport:
    """Instrumentation for one completed epoch."""

    epoch: int
    records: int
    bytes_shipped: int
    coordinator_n: int
    coordinator_size: int
    #: records whose delta actually reached the coordinator this epoch
    delivered_records: int = -1
    #: records lost to crashed nodes or exhausted retries this epoch
    lost_records: int = 0
    #: delivered_records / records for this epoch (1.0 when fault-free)
    coverage: float = 1.0
    retries: int = 0
    duplicates_suppressed: int = 0
    crashed_nodes: int = 0

    def __post_init__(self) -> None:
        if self.delivered_records < 0:
            self.delivered_records = self.records


@dataclass
class ContinuousAggregation:
    """Epoch-driven delta aggregation across ``nodes`` sources.

    Parameters
    ----------
    summary_factory:
        Builds one identically parameterized summary; called once per
        node per epoch (the *delta*) — plus once for the coordinator.
    nodes:
        Number of reporting nodes.
    serialize:
        Ship deltas through the JSON wire format (default True: the
        realistic mode).
    fault_model:
        Optional :class:`~repro.engine.faults.FaultModel`; deltas
        then traverse a lossy fabric with retry + exponential backoff,
        the coordinator dedups redeliveries through its merge ledger,
        and each :class:`EpochReport` carries coverage accounting.
    retry_policy:
        Delivery retry loop used when ``fault_model`` is set (defaults
        to :class:`~repro.engine.faults.RetryPolicy`).
    exactly_once:
        Keep a merge ledger at the coordinator (default).  Disable to
        study what duplicate deliveries do to additive summaries.
    checkpoint_store:
        When given, the coordinator checkpoints its summary + ledger at
        construction (epoch 0) and after every completed epoch, and
        :meth:`resume` can rebuild a crashed coordinator from it.
    """

    summary_factory: Callable[[], Summary]
    nodes: int
    serialize: bool = True
    fault_model: Optional[FaultModel] = None
    retry_policy: Optional[RetryPolicy] = None
    exactly_once: bool = True
    checkpoint_store: Optional[CheckpointStore] = None
    coordinator: Summary = field(init=False)
    history: List[EpochReport] = field(default_factory=list)
    ledger: Optional[MergeLedger] = field(init=False, default=None)
    fault_stats: FaultStats = field(init=False, default_factory=FaultStats)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ParameterError(f"nodes must be >= 1, got {self.nodes!r}")
        if (
            self.fault_model is not None
            and self.fault_model.corruption
            and not self.serialize
        ):
            raise ParameterError(
                "corruption injection garbles wire payloads; it requires "
                "serialize=True"
            )
        self.coordinator = self.summary_factory()
        if self.exactly_once:
            self.ledger = MergeLedger()
        self._crashed = False
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(self.checkpoint())

    @property
    def epochs_completed(self) -> int:
        return len(self.history)

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the coordinator summary, merge ledger, and history."""
        return Checkpoint(
            epoch=len(self.history),
            coordinator_payload=dumps(self.coordinator),
            ledger_ids=self.ledger.to_list() if self.ledger is not None else [],
            history=[asdict(report) for report in self.history],
        )

    @classmethod
    def resume(
        cls,
        checkpoint: Checkpoint,
        summary_factory: Callable[[], Summary],
        nodes: int,
        **kwargs,
    ) -> "ContinuousAggregation":
        """Rebuild a coordinator from ``checkpoint`` (after a crash).

        ``kwargs`` are forwarded to the constructor (``serialize``,
        ``fault_model``, ``checkpoint_store``, ...).  Feed the epochs
        *after* ``checkpoint.epoch`` back through :meth:`run_epoch`;
        anything merged before the checkpoint is protected from
        re-merging by the restored ledger.
        """
        agg = cls(summary_factory, nodes, **kwargs)
        agg.coordinator = checkpoint.restore_summary()
        if agg.ledger is not None:
            agg.ledger = MergeLedger.from_list(checkpoint.ledger_ids)
        agg.history = [EpochReport(**entry) for entry in checkpoint.history]
        return agg

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------

    def run_epoch(self, per_node_data: Sequence[np.ndarray]) -> EpochReport:
        """One epoch: each node summarizes its new data and ships a delta.

        Deltas travel through :func:`~repro.engine.faults.deliver`, the
        engine's own delivery loop, from one
        :class:`~repro.engine.agents.SummarySlot` per delta into a slot
        holding the coordinator, so a retry resends the first attempt's
        bytes.
        """
        if self._crashed:
            raise RuntimeError(
                "coordinator has crashed; resume from a checkpoint with "
                "ContinuousAggregation.resume() before running more epochs"
            )
        if len(per_node_data) != self.nodes:
            raise ParameterError(
                f"expected data for {self.nodes} nodes, got {len(per_node_data)}"
            )
        epoch = len(self.history) + 1
        faults = self.fault_model
        stats = self.fault_stats
        retries_before = stats.retries
        suppressed_before = stats.duplicates_suppressed
        coordinator = SummarySlot(self.coordinator, ledger=self.ledger)
        bytes_shipped = 0
        records = 0
        delivered_records = 0
        deltas_merged = 0
        crashed_nodes = 0

        def coordinator_crash_draw() -> None:
            if faults.draw_coordinator_crash():
                self._crashed = True
                raise CoordinatorCrash(epoch, deltas_merged)

        for index, shard in enumerate(per_node_data):
            delta = SummarySlot(self.summary_factory())
            delta.summary.extend(shard)
            records += delta.summary.n
            if faults is not None and faults.draw_crash():
                # the node dies before reporting; its epoch data is gone
                # (it may come back next epoch — crash is drawn per report)
                stats.nodes_crashed += 1
                stats.crashed_nodes.append(index)
                crashed_nodes += 1
                continue
            delivery_id = f"node{index}@epoch{epoch}"
            fresh = self.ledger is None or delivery_id not in self.ledger
            emit = partial(delta.emit, self.serialize)
            land = partial(
                coordinator.absorb, serialized=self.serialize, delivery_id=delivery_id
            )
            if faults is None:
                landed = True
                if not land(emit()):
                    stats.duplicates_suppressed += 1
            else:
                landed = deliver(
                    emit,
                    land,
                    faults,
                    self.retry_policy or RetryPolicy(),
                    stats,
                    self.serialize,
                    on_arrival=coordinator_crash_draw,
                )
            bytes_shipped += delta.bytes_sent + delta.bytes_retransmitted
            if landed and fresh:
                deltas_merged += 1
                delivered_records += delta.summary.n
        report = EpochReport(
            epoch=epoch,
            records=records,
            bytes_shipped=bytes_shipped,
            coordinator_n=self.coordinator.n,
            coordinator_size=self.coordinator.size(),
            delivered_records=delivered_records,
            lost_records=records - delivered_records,
            coverage=delivered_records / records if records else 1.0,
            retries=stats.retries - retries_before,
            duplicates_suppressed=stats.duplicates_suppressed - suppressed_before,
            crashed_nodes=crashed_nodes,
        )
        self.history.append(report)
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(self.checkpoint())
        return report

    def size_trajectory(self) -> List[int]:
        """Coordinator size after each epoch (must stay bounded)."""
        return [report.coordinator_size for report in self.history]

    def bytes_per_epoch(self) -> List[int]:
        return [report.bytes_shipped for report in self.history]

    def totals(self) -> Dict[str, int]:
        """Cumulative records and bytes over all epochs."""
        return {
            "epochs": len(self.history),
            "records": sum(r.records for r in self.history),
            "bytes": sum(r.bytes_shipped for r in self.history),
        }

    def coverage(self) -> float:
        """Delivered fraction of all records observed across epochs."""
        records = sum(r.records for r in self.history)
        if not records:
            return 1.0
        return sum(r.delivered_records for r in self.history) / records
