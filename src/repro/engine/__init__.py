"""The merge engine: one plan IR and one executor for every merge DAG.

The paper proves that mergeable summaries survive *arbitrary* merge
sequences; this package makes the sequence a first-class value.  A
:class:`MergePlan` (of :class:`MergeStep` build/merge/emit ops over
named slots) says *what* to merge; :func:`execute_plan` is the single
runner that decides *how* — scalar step-by-step, or through the
retry/ledger fault runtime — and reports what happened
(:class:`ExecutionReport`).

Call sites compile to the IR instead of hand-rolling loops:
``repro.core.merge`` compiles its fold strategies
(:data:`MERGE_STRATEGIES`), the distributed simulator compiles its
:class:`~repro.distributed.topology.MergeSchedule` objects
(:func:`compile_aggregation`), and
:meth:`repro.store.store.SegmentStore.compact` compiles its dyadic
roll-up, whose merge steps hand their sources to the store's roll-up
builder.

Fault primitives (:class:`FaultModel`, :class:`RetryPolicy`,
:class:`MergeLedger`, :class:`FaultStats`) live here too, with
:func:`deliver`, the one retry/ledger loop that both the executor and
the continuous coordinator run; :mod:`repro.distributed` exports them
as well.
"""

from .agents import SummarySlot, wrap_slot
from .compilers import (
    MERGE_STRATEGIES,
    MergeStrategy,
    compile_aggregation,
    compile_fold,
    fold_slots,
)
from .executor import ExecutionReport, ExecutionResult, execute_plan
from .faults import (
    FaultModel,
    FaultStats,
    MergeLedger,
    RetryPolicy,
    corrupt_payload,
    deliver,
)
from .plan import MergePlan, MergeStep

__all__ = [
    "MergePlan",
    "MergeStep",
    "execute_plan",
    "ExecutionReport",
    "ExecutionResult",
    "MergeStrategy",
    "MERGE_STRATEGIES",
    "compile_fold",
    "compile_aggregation",
    "fold_slots",
    "SummarySlot",
    "wrap_slot",
    "FaultModel",
    "FaultStats",
    "MergeLedger",
    "RetryPolicy",
    "corrupt_payload",
    "deliver",
]
