"""End-to-end distributed aggregation simulator.

``run_aggregation`` wires the pieces together: partition the dataset,
compile the merge schedule into a :class:`~repro.engine.plan.MergePlan`
(one build step per node, one merge step per schedule edge — see
:func:`repro.engine.compilers.compile_aggregation`), and hand the plan
to :func:`repro.engine.execute_plan`, the same runner behind
``merge_all`` folds and the store's compaction.  The engine owns leaf
builds, the merge loop, the retry/ledger fault loop, and the per-run
counters; this module owns what is *simulation*: the partitioning, the
``Node`` fleet, and the aggregation-level result accounting.

The instrumentation captures what the paper's theorems speak about:
the merge count and tree depth (mergeable summaries must not degrade
with either) and the maximum summary size observed anywhere en route
(the size bound must hold at *every* intermediate node, not just the
root).

A :class:`~repro.engine.faults.FaultModel` turns the simulator into an
unreliable fabric: messages drop, payloads corrupt, nodes crash,
retransmissions duplicate.  Deliveries then run through a
retry-with-backoff loop, parents dedup via per-delivery merge ledgers
(exactly-once semantics), and the result carries *graceful degradation*
accounting — which leaves actually reached the root and what fraction
of the data the answer covers — instead of silently reporting a summary
of less data than asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..core import Summary
from ..core.exceptions import ParameterError
from ..engine import MergeLedger, execute_plan
from ..engine.compilers import compile_aggregation
from ..engine.faults import FaultModel, FaultStats, RetryPolicy
from .node import Node
from .partition import Partitioner
from .topology import MergeSchedule

__all__ = ["AggregationResult", "run_aggregation"]


@dataclass
class AggregationResult:
    """Root summary plus instrumentation from one simulated aggregation."""

    summary: Summary
    nodes: int
    merges: int
    depth: int
    #: largest summary size observed at any point during the run
    max_size_en_route: int
    #: total serialized bytes shipped (0 when serialization is off);
    #: counts each summary generation once — retransmissions of the
    #: same bytes land in :attr:`bytes_retransmitted`
    bytes_shipped: int
    build_seconds: float
    merge_seconds: float
    #: duplicate deliveries the fault model injected
    #: (:attr:`FaultStats.duplicates_delivered`; 0 without a fault model)
    duplicated_deliveries: int = 0
    #: leaf indices whose data is actually covered by the root summary
    delivered_leaves: List[int] = field(default_factory=list)
    #: records covered by the root summary (== n of the input when no loss)
    delivered_records: int = 0
    #: delivered_records / total records — 1.0 means nothing was lost
    coverage: float = 1.0
    #: leaf indices permanently lost to crashes or exhausted retries
    lost_leaves: List[int] = field(default_factory=list)
    #: per-leaf shard sizes (for recomputing delivered ground truth)
    shard_sizes: List[int] = field(default_factory=list)
    #: fault-injection accounting (None for fault-free runs)
    fault_stats: Optional[FaultStats] = None
    #: bytes re-sent for already-serialized generations (retry overhead)
    bytes_retransmitted: int = 0


def _validate_schedule_indices(schedule: MergeSchedule, node_count: int) -> None:
    """Schedules referencing nodes the partitioner never produced are a
    configuration error, not an IndexError."""
    referenced = {schedule.root}
    for dst, src in schedule.steps:
        referenced.add(dst)
        referenced.add(src)
    out_of_range = sorted(i for i in referenced if not 0 <= i < node_count)
    if out_of_range:
        raise ParameterError(
            f"merge schedule references node(s) {out_of_range} but the "
            f"partitioner produced only {node_count} node(s)"
        )


def run_aggregation(
    data: np.ndarray,
    partitioner: Partitioner,
    summary_factory: Callable[[], Summary],
    schedule: MergeSchedule,
    serialize: bool = False,
    fault_model: Optional[FaultModel] = None,
    retry_policy: Optional[RetryPolicy] = None,
    exactly_once: bool = True,
) -> AggregationResult:
    """Partition ``data``, build per-node summaries, merge per ``schedule``.

    ``summary_factory`` is called once per node and must return
    identically parameterized summaries (that is what makes them
    mergeable).  A factory taking one argument receives the node index
    (for per-node RNG streams).  With ``serialize=True`` every merge
    round-trips the child summary through the JSON wire format, as a
    real deployment would.

    ``fault_model`` enables the fault-tolerant runtime: message loss
    and corrupted payloads are retried per ``retry_policy`` (exponential
    backoff, accounted not slept), parents keep per-delivery merge
    ledgers so retransmissions merge exactly once, crashed nodes drop
    out permanently, and the result reports which leaves made it
    (``delivered_leaves``, ``coverage``) plus a full
    :class:`~repro.engine.faults.FaultStats`.  Corruption injection
    needs ``serialize=True`` (it garbles wire bytes that the envelope
    checksum then catches).  ``exactly_once=False`` drops the ledgers,
    so ``FaultModel(duplicate=p)`` injects bare *at-least-once
    delivery*: additive summaries (MG, CountMin, quantiles)
    double-count the duplicated subtree, while lattice summaries (KMV,
    HyperLogLog, Bloom, EpsKernel) are idempotent and absorb it.
    Benchmark E19 quantifies the difference.
    """
    shards = partitioner.split(np.asarray(data), schedule.leaves)
    if len(shards) != schedule.leaves:
        raise ParameterError(
            f"partitioner produced {len(shards)} shards for a schedule of "
            f"{schedule.leaves} leaves"
        )
    _validate_schedule_indices(schedule, len(shards))
    nodes: List[Node] = [
        Node(node_id=i, shard=shard) for i, shard in enumerate(shards)
    ]
    use_ledger = fault_model is not None and exactly_once

    plan = compile_aggregation(schedule, summary_factory)
    result = execute_plan(
        plan,
        {i: node for i, node in enumerate(nodes)},
        serialize=serialize,
        fault_model=fault_model,
        retry_policy=retry_policy,
        ledger_factory=MergeLedger if use_ledger else None,
    )
    report = result.report

    shard_sizes = [len(shard) for shard in shards]
    total_records = sum(shard_sizes)
    root = nodes[schedule.root].summary
    assert root is not None

    if fault_model is not None:
        delivered_leaves = sorted(report.covered[schedule.root])
        delivered_records = sum(shard_sizes[i] for i in delivered_leaves)
        stats = report.fault_stats
        return AggregationResult(
            summary=root,
            nodes=schedule.leaves,
            merges=report.merges,
            depth=schedule.depth,
            max_size_en_route=report.max_size,
            bytes_shipped=report.bytes_shipped,
            build_seconds=report.build_seconds,
            merge_seconds=report.merge_seconds,
            duplicated_deliveries=stats.duplicates_delivered,
            delivered_leaves=delivered_leaves,
            delivered_records=delivered_records,
            coverage=delivered_records / total_records if total_records else 1.0,
            lost_leaves=sorted(set(range(schedule.leaves)) - set(delivered_leaves)),
            shard_sizes=shard_sizes,
            fault_stats=stats,
            bytes_retransmitted=report.bytes_retransmitted,
        )

    return AggregationResult(
        summary=root,
        nodes=schedule.leaves,
        merges=report.merges,
        depth=schedule.depth,
        max_size_en_route=report.max_size,
        bytes_shipped=report.bytes_shipped,
        build_seconds=report.build_seconds,
        merge_seconds=report.merge_seconds,
        delivered_leaves=list(range(schedule.leaves)),
        delivered_records=total_records,
        coverage=1.0,
        lost_leaves=[],
        shard_sizes=shard_sizes,
        fault_stats=None,
        bytes_retransmitted=report.bytes_retransmitted,
    )
