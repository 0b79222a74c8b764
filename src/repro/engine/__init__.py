"""The merge engine: the slot agent and the fault fabric merges run on.

The paper proves that mergeable summaries survive *arbitrary* merge
sequences, and a sequence is plain data: a
:class:`~repro.core.topology.MergeSchedule` of ``(dst, src)`` pairs.
``merge_all``'s folds replay one in process, and the distributed
simulator (:func:`~repro.distributed.run_aggregation`) replays one
over its nodes.  This package holds what a replay that ships summaries
needs:

- :class:`SummarySlot` — the agent holding one merge operand, which
  emits it (optionally through the wire codec, caching each
  generation's bytes) and absorbs children, deduplicating through an
  optional :class:`MergeLedger`;
- the fault primitives (:class:`FaultModel`, :class:`RetryPolicy`,
  :class:`MergeLedger`, :class:`FaultStats`) and :func:`deliver`, the
  one retry/ledger loop that both the simulator and the continuous
  coordinator run; :mod:`repro.distributed` exports them as well.

The store builds its roll-ups and cube cells directly with
:func:`repro.store.merged_segment`, a local ``merge_many`` per block.
"""

from .agents import SummarySlot
from .faults import (
    FaultModel,
    FaultStats,
    MergeLedger,
    RetryPolicy,
    corrupt_payload,
    deliver,
)

__all__ = [
    "SummarySlot",
    "FaultModel",
    "FaultStats",
    "MergeLedger",
    "RetryPolicy",
    "corrupt_payload",
    "deliver",
]
