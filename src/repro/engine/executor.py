"""``execute_plan``: the one runner for merge plans.

The paper's mergeability guarantee is about *what* gets merged; this
module owns *how*, once, for every plan: ``merge_all`` folds and the
distributed simulator's schedules compile to
:class:`~repro.engine.plan.MergePlan` and run here, in the calling
process.  Build and emit steps run one by one; runs of merge steps
take one of two regimes:

- **scalar** — steps run one by one in plan order, each source emitted
  and absorbed in place by its destination (the legacy step-by-step
  semantics);
- **fault** — with a :class:`~repro.engine.faults.FaultModel`, slots
  may crash, every delivery runs :func:`~repro.engine.faults.deliver`
  (the retry-with-backoff loop against injected loss, corruption and
  duplicates), parents dedup via per-slot
  :class:`~repro.engine.faults.MergeLedger` (exactly-once merges), and
  the report carries coverage/degradation accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ..core.exceptions import ParameterError
from .agents import SummarySlot, wrap_slot
from .faults import FaultModel, FaultStats, RetryPolicy, deliver
from .plan import MergePlan, MergeStep

__all__ = ["ExecutionReport", "ExecutionResult", "execute_plan"]

#: per-merge-step outcomes recorded in :attr:`ExecutionReport.step_status`
STEP_DONE = "done"
STEP_FAILED = "failed"
STEP_SKIPPED = "skipped"


@dataclass
class ExecutionReport:
    """What one :func:`execute_plan` run actually did."""

    plan: str
    #: fan-in actually delivered (source slots merged into destinations)
    merges: int = 0
    #: build steps executed
    builds: int = 0
    #: largest summary size observed at any slot during the run
    max_size: int = 0
    #: serialized payload bytes shipped (each generation counted once)
    bytes_shipped: int = 0
    #: bytes re-sent for already-serialized generations (retry overhead)
    bytes_retransmitted: int = 0
    build_seconds: float = 0.0
    merge_seconds: float = 0.0
    #: merge-step index -> "done" | "failed" | "skipped"
    step_status: Dict[int, str] = field(default_factory=dict)
    #: slot -> set of slots whose data that slot's value now covers
    covered: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    #: slots lost to crash injection
    crashed: Set[Hashable] = field(default_factory=set)
    #: fault-injection accounting (None for fault-free runs)
    fault_stats: Optional[FaultStats] = None

    @property
    def steps_done(self) -> int:
        return sum(1 for s in self.step_status.values() if s == STEP_DONE)

    @property
    def steps_failed(self) -> int:
        return sum(1 for s in self.step_status.values() if s == STEP_FAILED)

    @property
    def steps_skipped(self) -> int:
        return sum(1 for s in self.step_status.values() if s == STEP_SKIPPED)


@dataclass
class ExecutionResult:
    """Outputs plus report of one plan execution.

    ``outputs`` maps every emitted slot to its final value.
    """

    outputs: Dict[Hashable, Any]
    report: ExecutionReport

    @property
    def value(self) -> Any:
        """The single output of a one-output plan."""
        if len(self.outputs) != 1:
            raise ParameterError(
                f"plan produced {len(self.outputs)} outputs; use .outputs"
            )
        return next(iter(self.outputs.values()))


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class _Run:
    """Mutable state of one plan execution."""

    def __init__(
        self,
        plan: MergePlan,
        inputs: Mapping[Hashable, Any],
        serialize: bool,
        fault_model: Optional[FaultModel],
        retry_policy: Optional[RetryPolicy],
        ledger_factory: Optional[Callable[[], Any]],
        accounting: bool,
    ) -> None:
        self.plan = plan
        self.serialize = serialize
        self.faults = fault_model
        self.policy = retry_policy or RetryPolicy()
        self.ledger_factory = ledger_factory
        # the fault runtime's skip/coverage logic reads these structures
        self.accounting = accounting or fault_model is not None
        self.report = ExecutionReport(plan=plan.name)
        if fault_model is not None:
            self.report.fault_stats = FaultStats()
        self.slots: Dict[Hashable, SummarySlot] = {}
        self.outputs: Dict[Hashable, Any] = {}
        for slot, value in inputs.items():
            self._install(slot, wrap_slot(value))

    # -- bookkeeping ------------------------------------------------------

    def _install(self, slot: Hashable, agent: SummarySlot) -> None:
        if (
            self.faults is not None
            and self.ledger_factory is not None
            and agent.ledger is None
        ):
            agent.ledger = self.ledger_factory()
        self.slots[slot] = agent
        if self.accounting:
            self.report.covered.setdefault(slot, {slot})
            self._observe_size(agent)

    def _observe_size(self, agent: SummarySlot) -> None:
        value = agent.summary  # None for a node not built yet
        if value is not None:
            self.report.max_size = max(self.report.max_size, value.size())

    # -- build phase ------------------------------------------------------

    def run_builds(self, steps: List[MergeStep]) -> None:
        t0 = time.perf_counter()
        for step in steps:
            agent = self.slots.get(step.slot)
            value = step.builder(agent) if agent is not None else step.builder()
            if agent is None:
                self._install(step.slot, wrap_slot(value))
            else:
                agent.summary = value
                if self.accounting:
                    self.report.covered.setdefault(step.slot, {step.slot})
                    self._observe_size(agent)
        self.report.builds += len(steps)
        self.report.build_seconds += time.perf_counter() - t0

    # -- scalar merge path ------------------------------------------------

    def run_scalar(self, steps: List[MergeStep], first_index: int) -> None:
        # hot path: merge_all runs every step through this loop, so
        # frequently-read attributes are hoisted to locals
        slots = self.slots
        serialize = self.serialize
        accounting = self.accounting
        report = self.report
        status = report.step_status
        for offset, step in enumerate(steps):
            index = first_index + offset
            srcs = step.srcs
            agent = slots[step.slot]
            if len(srcs) == 1:
                agent.absorb(
                    slots[srcs[0]].emit(serialize=serialize),
                    serialized=serialize,
                )
            else:
                agent.absorb_many(
                    [slots[src].emit(serialize=serialize) for src in srcs],
                    serialized=serialize,
                )
            if accounting:
                for src in srcs:
                    report.covered[step.slot] |= report.covered[src]
                self._observe_size(agent)
            report.merges += len(srcs)
            status[index] = STEP_DONE

    # -- fault merge path -------------------------------------------------

    def _draw_crashes(self, candidates: Tuple[Hashable, ...]) -> None:
        stats = self.report.fault_stats
        for slot in candidates:
            if (
                slot in self.slots
                and slot not in self.report.crashed
                and slot not in self.plan.protected
                and self.faults.draw_crash()
            ):
                self.report.crashed.add(slot)
                stats.nodes_crashed += 1
                stats.crashed_nodes.append(slot)

    def run_faulty(self, steps: List[MergeStep], first_index: int) -> None:
        serialize = self.serialize
        report = self.report
        for offset, step in enumerate(steps):
            index = first_index + offset
            dst = step.slot
            agent = self.slots[dst]
            delivered = 0
            attempted = False
            for src in step.srcs:
                self._draw_crashes((src, dst))
                if src in report.crashed or dst in report.crashed:
                    continue
                attempted = True
                landed = deliver(
                    partial(self.slots[src].emit, serialize),
                    partial(
                        agent.absorb,
                        serialized=serialize,
                        delivery_id=f"step{index}:{src}->{dst}",
                    ),
                    self.faults,
                    self.policy,
                    report.fault_stats,
                    serialize,
                )
                if landed:
                    delivered += 1
                    report.covered[dst] |= report.covered[src]
                    report.merges += 1
                    self._observe_size(agent)
            if delivered == len(step.srcs):
                report.step_status[index] = STEP_DONE
            else:
                report.step_status[index] = STEP_FAILED if attempted else STEP_SKIPPED

    # -- driver -----------------------------------------------------------

    def execute(self) -> ExecutionResult:
        steps = self.plan.steps
        merge_index = 0
        i = 0
        while i < len(steps):
            op = steps[i].op
            j = i
            while j < len(steps) and steps[j].op == op:
                j += 1
            run = list(steps[i:j])
            if op == "build":
                self.run_builds(run)
            elif op == "merge":
                t0 = time.perf_counter()
                if self.faults is not None:
                    self.run_faulty(run, merge_index)
                else:
                    self.run_scalar(run, merge_index)
                merge_index += len(run)
                self.report.merge_seconds += time.perf_counter() - t0
            else:
                for step in run:
                    self.outputs[step.slot] = self.slots[step.slot].summary
            i = j
        if self.accounting:
            self.report.bytes_shipped = sum(a.bytes_sent for a in self.slots.values())
            self.report.bytes_retransmitted = sum(
                a.bytes_retransmitted for a in self.slots.values()
            )
        return ExecutionResult(outputs=self.outputs, report=self.report)


def execute_plan(
    plan: MergePlan,
    inputs: Mapping[Hashable, Any],
    *,
    serialize: bool = False,
    fault_model: Optional[FaultModel] = None,
    retry_policy: Optional[RetryPolicy] = None,
    ledger_factory: Optional[Callable[[], Any]] = None,
    accounting: bool = True,
) -> ExecutionResult:
    """Execute ``plan`` over ``inputs`` and return outputs plus report.

    ``inputs`` maps slot names to summaries or ready-made
    :class:`~repro.engine.agents.SummarySlot` agents (the simulator's
    ``Node`` objects).  ``serialize`` round-trips every emitted summary
    through the wire codec.  A merge step absorbs its sources in place
    into its destination's value.

    ``fault_model`` switches the merge phase to the retry runtime:
    deliveries retry per ``retry_policy`` against injected loss,
    corruption, crashes and duplicates; when ``ledger_factory`` is also
    given, every destination gets a merge ledger and redeliveries merge
    exactly once (without it, injected duplicates merge twice: bare
    at-least-once delivery).  The report's ``covered``/``crashed``/
    ``fault_stats`` then carry the degradation accounting.  A plan has
    no coordinator, so ``coordinator_crash`` raises
    :class:`~repro.core.exceptions.ParameterError`.

    ``accounting=False`` skips the per-step size and coverage tracking
    (``report.max_size`` stays 0, ``report.covered`` stays empty) for
    hot paths that discard the report — ``merge_all`` folds.  It is
    forced back on whenever ``fault_model`` is given, because the fault
    runtime's degradation accounting *is* the product there.
    """
    if fault_model is not None and fault_model.corruption and not serialize:
        raise ParameterError(
            "corruption injection garbles wire payloads; it requires serialize=True"
        )
    if fault_model is not None and fault_model.coordinator_crash:
        raise ParameterError(
            "coordinator_crash applies to continuous aggregation only; a plan "
            "has no coordinator to crash (use crash= for slots)"
        )
    plan.validate(inputs.keys())
    run = _Run(
        plan,
        inputs,
        serialize,
        fault_model,
        retry_policy,
        ledger_factory,
        accounting,
    )
    return run.execute()
