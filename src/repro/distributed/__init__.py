"""Distributed-aggregation substrate: partitioners, topologies, simulator,
fault injection, and coordinator checkpoint/recovery."""

from ..engine.faults import (
    FaultModel,
    FaultStats,
    MergeLedger,
    RetryPolicy,
    corrupt_payload,
)
from .continuous import ContinuousAggregation, EpochReport
from .node import Node
from .recovery import (
    Checkpoint,
    CheckpointStore,
    CoordinatorCrash,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from .partition import (
    PARTITIONERS,
    ContiguousPartitioner,
    Partitioner,
    SkewedSizePartitioner,
    SortedPartitioner,
    UniformRandomPartitioner,
)
from .simulator import AggregationResult, run_aggregation
from ..core.topology import (
    TOPOLOGIES,
    MergeSchedule,
    balanced_tree,
    build_topology,
    chain,
    kary_tree,
    random_tree,
    star,
)

__all__ = [
    "Node",
    "Partitioner",
    "ContiguousPartitioner",
    "UniformRandomPartitioner",
    "SortedPartitioner",
    "SkewedSizePartitioner",
    "PARTITIONERS",
    "MergeSchedule",
    "balanced_tree",
    "chain",
    "star",
    "kary_tree",
    "random_tree",
    "build_topology",
    "TOPOLOGIES",
    "AggregationResult",
    "run_aggregation",
    "ContinuousAggregation",
    "EpochReport",
    "FaultModel",
    "FaultStats",
    "MergeLedger",
    "RetryPolicy",
    "corrupt_payload",
    "Checkpoint",
    "CheckpointStore",
    "CoordinatorCrash",
    "FileCheckpointStore",
    "InMemoryCheckpointStore",
]
