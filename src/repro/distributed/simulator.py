"""End-to-end distributed aggregation simulator.

``run_aggregation`` is the whole run: partition the dataset, build one
:class:`~repro.distributed.node.Node` summary per shard, then replay the
:class:`~repro.core.topology.MergeSchedule` step by step, each step one
child shipped to its parent and absorbed there — the same schedules
``merge_all``'s folds replay in one process.

The instrumentation captures what the paper's theorems speak about:
the merge count and tree depth (mergeable summaries must not degrade
with either) and the maximum summary size observed anywhere en route
(the size bound must hold at *every* intermediate node, not just the
root).

A :class:`~repro.engine.faults.FaultModel` turns the simulator into an
unreliable fabric: messages drop, payloads corrupt, nodes crash,
retransmissions duplicate.  Each step's delivery then runs through
:func:`~repro.engine.faults.deliver`, the retry-with-backoff loop;
parents dedup via per-delivery merge ledgers (exactly-once semantics),
and the result carries *graceful degradation* accounting — which
leaves actually reached the root and what fraction of the data the
answer covers — instead of silently reporting a summary of less data
than asked for.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from ..core import Summary
from ..core.exceptions import ParameterError
from ..core.topology import MergeSchedule
from ..engine.faults import FaultModel, FaultStats, MergeLedger, RetryPolicy, deliver
from .node import Node
from .partition import Partitioner

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


def _factory_takes_node_index(factory: Callable[..., object]) -> bool:
    """True when ``factory`` wants the node index (one required arg).

    Factories may accept the node index to derive per-node RNG streams
    (``lambda i: KLLQuantiles(200, rng=1000 + i)``); zero-argument
    factories are called as before.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    required = [
        p
        for p in signature.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.default is p.empty
    ]
    return len(required) == 1


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
    if fault_model is not None and fault_model.corruption and not serialize:
        raise ParameterError(
            "corruption injection garbles wire payloads; it requires serialize=True"
        )
    if fault_model is not None and fault_model.coordinator_crash:
        raise ParameterError(
            "coordinator_crash applies to continuous aggregation only; a "
            "one-shot aggregation has no coordinator to crash (use crash= "
            "for nodes)"
        )
    use_ledger = fault_model is not None and exactly_once
    nodes: List[Node] = [
        Node(node_id=i, shard=shard, ledger=MergeLedger() if use_ledger else None)
        for i, shard in enumerate(shards)
    ]
    takes_index = _factory_takes_node_index(summary_factory)

    max_size = 0
    t0 = time.perf_counter()
    for node in nodes:
        if takes_index:
            node.build(partial(summary_factory, node.node_id))
        else:
            node.build(summary_factory)
        max_size = max(max_size, node.summary.size())
    build_seconds = time.perf_counter() - t0

    root = schedule.root
    merges = 0
    stats = None
    delivered_leaves = list(range(schedule.leaves))
    t0 = time.perf_counter()
    if fault_model is None:
        for dst, src in schedule.steps:
            nodes[dst].absorb(nodes[src].emit(serialize), serialized=serialize)
            max_size = max(max_size, nodes[dst].summary.size())
        merges = len(schedule.steps)
    else:
        stats = FaultStats()
        policy = retry_policy or RetryPolicy()
        crashed = set()
        # node -> leaves whose data that node's summary now covers
        covered = [{i} for i in range(schedule.leaves)]
        for index, (dst, src) in enumerate(schedule.steps):
            # crash draws: src before dst; the root is recovered
            # out-of-band (repro.distributed.recovery), so never drawn
            for node_id in (src, dst):
                if (
                    node_id != root
                    and node_id not in crashed
                    and fault_model.draw_crash()
                ):
                    crashed.add(node_id)
                    stats.nodes_crashed += 1
                    stats.crashed_nodes.append(node_id)
            if src in crashed or dst in crashed:
                continue
            landed = deliver(
                partial(nodes[src].emit, serialize),
                partial(
                    nodes[dst].absorb,
                    serialized=serialize,
                    delivery_id=f"step{index}:{src}->{dst}",
                ),
                fault_model,
                policy,
                stats,
                serialize,
            )
            if landed:
                covered[dst] |= covered[src]
                merges += 1
                max_size = max(max_size, nodes[dst].summary.size())
        delivered_leaves = sorted(covered[root])
    merge_seconds = time.perf_counter() - t0

    shard_sizes = [len(shard) for shard in shards]
    total_records = sum(shard_sizes)
    delivered_records = sum(shard_sizes[i] for i in delivered_leaves)
    return AggregationResult(
        summary=nodes[root].summary,
        nodes=schedule.leaves,
        merges=merges,
        depth=schedule.depth,
        max_size_en_route=max_size,
        bytes_shipped=sum(node.bytes_sent for node in nodes),
        build_seconds=build_seconds,
        merge_seconds=merge_seconds,
        duplicated_deliveries=stats.duplicates_delivered if stats else 0,
        delivered_leaves=delivered_leaves,
        delivered_records=delivered_records,
        coverage=delivered_records / total_records if total_records else 1.0,
        lost_leaves=sorted(set(range(schedule.leaves)) - set(delivered_leaves)),
        shard_sizes=shard_sizes,
        fault_stats=stats,
        bytes_retransmitted=sum(node.bytes_retransmitted for node in nodes),
    )
