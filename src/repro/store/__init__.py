"""Segmented summary store: immutable segments, roll-ups, query planner.

The serving layer built on mergeability: :class:`SegmentStore`
partitions a stream into immutable per-epoch segments,
:meth:`~SegmentStore.compact` pre-merges them into a dyadic roll-up
tree, and the planner answers ``[lo, hi)`` range queries from
``O(log S)`` pre-merged nodes with the same guarantees as a full scan.
:class:`CubeStore` generalizes the store to (dimension-value x epoch)
cells for ``where``/``group_by`` sub-population queries served from a
workload-chosen lattice of pre-merged dimension roll-ups.

Both kinds are layerings of one storage kernel: the
:class:`~repro.store.chain.EpochChain` (the flat store is one chain, a
cube is many), the shared scaffolding of
:class:`~repro.store.common.StoreBase`, and one kind-tagged persistence
format (:func:`save`/:func:`load`, with kind-generic
:func:`recover_store`/:func:`verify_store` behind the CLI).
"""

from .chain import EpochChain, merged_segment
from .common import StoreBase
from .cube import CubePlan, CubeResult, CubeStore
from .persistence import RecoveryReport, load, recover_store, save, verify_store
from .planner import QueryPlan, fan_in_bound, plan_range
from .segment import MemberSpec, Segment, build_members, copy_summary
from .store import QueryResult, SegmentStore
from .views import ViewCache
from .wal import WalRecord, WalScan, WriteAheadLog, scan_wal, wal_files

__all__ = [
    "SegmentStore",
    "QueryResult",
    "CubeStore",
    "CubePlan",
    "CubeResult",
    "EpochChain",
    "StoreBase",
    "save",
    "load",
    "build_members",
    "QueryPlan",
    "plan_range",
    "fan_in_bound",
    "MemberSpec",
    "Segment",
    "copy_summary",
    "merged_segment",
    "ViewCache",
    "WriteAheadLog",
    "WalRecord",
    "WalScan",
    "scan_wal",
    "wal_files",
    "RecoveryReport",
    "recover_store",
    "verify_store",
]
