"""``execute_plan``: the one runner every merge in the library goes through.

The paper's mergeability guarantee is about *what* gets merged; this
module owns *how*, once, for every call site: ``merge_all`` folds, the
distributed simulator's schedules, and the store's dyadic compactions
all compile to :class:`~repro.engine.plan.MergePlan` and run here.
Three execution regimes cover the plan space:

- **scalar** — steps run one by one in plan order, each source emitted
  and absorbed by its destination (the legacy step-by-step semantics);
- **wave** — with an executor and a ``groupable`` plan, consecutive
  merges are grouped into k-way fan-ins and packed into slot-disjoint
  waves (:mod:`repro.engine.waves`).  A parallel executor runs each
  wave on the persistent :class:`~repro.core.parallel.WorkerRuntime`
  in one IPC round-trip; otherwise (``serialize=True``, a serial or
  degraded executor, or once every worker has crashed) the same groups
  run in the calling process, one by one;
- **fault** — with a :class:`~repro.engine.faults.FaultModel`, every
  delivery runs a retry-with-backoff loop against injected loss,
  corruption, crashes and duplicates, parents dedup via per-slot
  :class:`~repro.engine.faults.MergeLedger` (exactly-once merges), and
  the report carries coverage/degradation accounting.

Whenever the executor is parallel, the runtime runs the build steps in
all three regimes (leaf ingestion is embarrassingly parallel even on an
unreliable fabric).  Before a merge run the runtime cannot serve — a
fault model, ``serialize=True`` or an ungroupable plan — the coordinator
drains it: every worker-held value is materialized locally and the
workers exit, because retries, wire-byte accounting and the step-by-step
loop are inherently sequential.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ..core.codecs import decode_summary
from ..core.exceptions import ParameterError, SerializationError
from ..core.parallel import (
    ExecutorLike,
    ParallelExecutor,
    RuntimeUnavailable,
    resolve_executor,
)
from ..core.shared_state import export_value
from .agents import (
    is_segment,
    merge_segment_into,
    set_slot_value,
    slot_size,
    slot_value,
    wrap_slot,
)
from .faults import FaultModel, FaultStats, RetryPolicy
from .plan import MergePlan, MergeStep
from .waves import StepGroup, assign_groups, plan_step_waves

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
    #: parallel rounds: consecutive builds dispatched together
    build_waves: int = 0
    #: merge waves dispatched on the wave path (0 on scalar/fault paths)
    waves: int = 0
    #: k-way groups executed on the wave path
    groups: int = 0
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
    #: True when parallelism was *requested* (executor with >1 workers)
    #: but some or all of the run actually executed serially — platform
    #: without fork, runtime start failures, runtime worker crashes.
    #: Callers must surface this instead of reporting serial numbers as
    #: parallel.
    degraded_to_serial: bool = False
    #: human-readable record of every degradation the executor saw
    degradation_events: List[str] = field(default_factory=list)
    #: persistent-runtime dispatch accounting (None when the resident
    #: runtime was not used): workers, dispatch_rounds, messages_sent,
    #: cmd_bytes/ack_bytes on the pipes, synced_slots, sync_shm_bytes,
    #: exported_bytes through shared memory, worker_crashes
    runtime_stats: Optional[Dict[str, Any]] = None

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
    """Outputs plus report plus the live agents of one plan execution.

    ``outputs`` maps every *reachable* emitted slot to its final value;
    slots lost to faults (a roll-up whose every retry failed) are
    absent, so callers can distinguish "empty" from "gone".
    """

    outputs: Dict[Hashable, Any]
    report: ExecutionReport
    agents: Dict[Hashable, Any]

    @property
    def value(self) -> Any:
        """The single output of a one-output plan."""
        if len(self.outputs) != 1:
            raise ParameterError(
                f"plan produced {len(self.outputs)} outputs; use .outputs"
            )
        return next(iter(self.outputs.values()))


# ---------------------------------------------------------------------------
# Value-level work shared by the coordinator and the runtime workers (must
# not touch agent counters, which live in the calling process)
# ---------------------------------------------------------------------------


def _run_build(builder: Callable[..., Any], agent: Any) -> Any:
    return builder(agent) if agent is not None else builder()


def _combine_values(target: Any, children: List[Any]) -> Any:
    if is_segment(target):
        return merge_segment_into(target, children)
    if not children:
        return target
    if len(children) == 1:
        return target.merge(children[0])
    return target.merge_many(children)


def _execute_group(
    target: Any, payloads: List[Any], serialized: bool, fresh: bool
) -> Any:
    """One k-way group: decode children, then merge (or seed-and-merge)."""
    children = [decode_summary(p) if serialized else p for p in payloads]
    if fresh:
        seed = target(children[0])
        if is_segment(seed):
            # merged_segment semantics: one member-wise merge_many over
            # the remaining parts, issued even when the group had one part
            return merge_segment_into(seed, children[1:])
        return _combine_values(seed, children[1:])
    return _combine_values(target, children)


def _value_size(value: Any) -> int:
    if value is None:
        return 0
    if is_segment(value):
        return sum(member.size() for member in value.members.values())
    return value.size()


class _ResidentSession:
    """Worker-resident half of the persistent runtime.

    Instantiated *inside* each forked worker by
    :class:`~repro.core.parallel.WorkerRuntime`; the payload is the
    plan plus the coordinator's agent dict, both inherited copy-on-write
    at fork time — builder closures, slot values and shard arrays all
    arrive without a single pickle.  From then on the coordinator ships
    only ids: builds as slot names, merge groups as
    ``(dst, srcs, builder_ordinal)``.  Every produced value is exported
    into this worker's append-only shared-memory arena so the
    coordinator (or another worker, via sync) can import it later —
    including after this worker crashes, which is what makes the
    engine's exactly-once recovery work.
    """

    def __init__(self, worker_id: int, payload: Any, arena: Any) -> None:
        plan, slots = payload
        self.worker_id = worker_id
        self.arena = arena
        self.slots = slots
        self.merge_steps = plan.merge_steps
        self.builders = {step.slot: step.builder for step in plan.build_steps}

    def install(self, slot: Hashable, value: Any) -> None:
        agent = self.slots.get(slot)
        if agent is None:
            self.slots[slot] = wrap_slot(value)
        else:
            set_slot_value(agent, value)

    def execute(self, kind: str, item: Any) -> Tuple[Hashable, Dict[str, Any], int]:
        if kind == "build":
            slot = item
            agent = self.slots.get(slot)
            value = _run_build(self.builders[slot], agent)
            self.install(slot, value)
            return slot, export_value(value, self.arena), _value_size(value)
        dst, srcs, ordinal = item
        payloads = [slot_value(self.slots[src]) for src in srcs]
        if ordinal is not None:
            # copy-on-write destination: seed through the plan's builder
            builder = self.merge_steps[ordinal].builder
            value = _execute_group(builder, payloads, False, True)
            agent = wrap_slot(value)
            self.slots[dst] = agent
        else:
            agent = self.slots[dst]
            value = _execute_group(slot_value(agent), payloads, False, False)
            set_slot_value(agent, value)
        if hasattr(agent, "merges_performed"):
            agent.merges_performed += len(srcs)
        return dst, export_value(value, self.arena), _value_size(value)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class _Run:
    """Mutable state of one plan execution."""

    def __init__(
        self,
        plan: MergePlan,
        inputs: Mapping[Hashable, Any],
        pool: Optional[ParallelExecutor],
        serialize: bool,
        fault_model: Optional[FaultModel],
        retry_policy: Optional[RetryPolicy],
        ledger_factory: Optional[Callable[[], Any]],
        instrument: Optional[Callable[[str, Dict[str, Any]], None]],
        accounting: bool,
    ) -> None:
        self.plan = plan
        self.pool = pool
        self.serialize = serialize
        self.faults = fault_model
        self.policy = retry_policy or RetryPolicy()
        self.ledger_factory = ledger_factory
        self.instrument = instrument
        # the fault runtime's skip/coverage logic reads these structures
        self.accounting = accounting or fault_model is not None
        self.report = ExecutionReport(plan=plan.name)
        if fault_model is not None:
            self.report.fault_stats = FaultStats()
        self.slots: Dict[Hashable, Any] = {}
        self.outputs: Dict[Hashable, Any] = {}
        for slot, value in inputs.items():
            self._install(slot, wrap_slot(value))
        #: wave path applies only to fault-free groupable runs
        self.use_waves = (
            pool is not None and plan.groupable and fault_model is None
        )
        #: merge waves may additionally run on the runtime only when
        #: serialize=False: wire-format byte accounting must run in the
        #: coordinator
        self.resident_merges = self.use_waves and not serialize
        self._runtime = None
        #: the pool refused or failed this plan's runtime start
        self._start_refused = False
        #: slot -> worker ids holding its latest value; missing key means
        #: everyone does (the fork-time snapshot, or no runtime at all)
        self._fresh: Dict[Hashable, Set[int]] = {}
        #: slot -> shared-memory descriptor of its latest worker export
        self._desc: Dict[Hashable, Dict[str, Any]] = {}
        #: slots whose coordinator agent also holds the latest value
        self._coord_fresh: Set[Hashable] = set()
        self._events_baseline = (
            len(pool.degradation_events) if pool is not None else 0
        )

    # -- bookkeeping ------------------------------------------------------

    def _install(self, slot: Hashable, agent: Any) -> None:
        if (
            self.faults is not None
            and self.ledger_factory is not None
            and getattr(agent, "ledger", None) is None
        ):
            agent.ledger = self.ledger_factory()
        self.slots[slot] = agent
        if self.accounting:
            self.report.covered.setdefault(slot, {slot})
            self._observe_size(agent)

    def _observe_size(self, agent: Any) -> None:
        self.report.max_size = max(self.report.max_size, slot_size(agent))

    def _emit_event(self, event: str, **info: Any) -> None:
        if self.instrument is not None:
            self.instrument(event, info)

    # -- persistent (resident) runtime ------------------------------------

    def _maybe_start_runtime(self) -> None:
        """Fork the persistent workers for this plan, if work can use them.

        Builds always can; merges only when :attr:`resident_merges`.  A
        refused or failed start (recorded on the pool) leaves
        ``self._runtime`` unset, and the plan runs in the calling
        process with identical results.
        """
        if self.pool is None or self.pool.max_workers <= 1:
            return
        work = len(self.plan.build_steps)
        if self.resident_merges:
            work += len(self.plan.merge_steps)
        if work < 2:
            return  # nothing to overlap; forking workers is pure overhead
        try:
            self._runtime = self.pool.start_runtime(
                _ResidentSession, (self.plan, self.slots)
            )
        except RuntimeUnavailable:
            self._start_refused = True

    def _freshness(self, slot: Hashable) -> Optional[Set[int]]:
        return self._fresh.get(slot)

    def _pack_sync(
        self, worker_id: int, slot: Hashable, sync: List[Any], synced: Set[Hashable]
    ) -> None:
        """Queue ``slot``'s latest value for ``worker_id`` if it is stale
        there — by shared-memory descriptor when a worker produced it,
        inline only for coordinator-recovered values (post-crash)."""
        fresh = self._fresh.get(slot)
        if fresh is None or worker_id in fresh or slot in synced:
            return
        synced.add(slot)
        descriptor = self._desc.get(slot)
        if descriptor is not None:
            sync.append((slot, ("desc", descriptor)))
        else:
            sync.append((slot, ("val", slot_value(self.slots[slot]))))
        fresh.add(worker_id)

    def _materialize(self, slot: Hashable) -> Any:
        """Bring the coordinator's agent for ``slot`` up to date and
        return the value (imports from shared memory at most once)."""
        agent = self.slots.get(slot)
        if slot in self._coord_fresh or slot not in self._fresh:
            return slot_value(agent) if agent is not None else None
        descriptor = self._desc.get(slot)
        if descriptor is None:  # pragma: no cover - coordinator is latest
            self._coord_fresh.add(slot)
            return slot_value(agent) if agent is not None else None
        value = self._runtime.fetch(descriptor)
        if agent is None:
            self._install(slot, wrap_slot(value))
        else:
            set_slot_value(agent, value)
        self._coord_fresh.add(slot)
        return value

    def _coordinator_owns(self, slot: Hashable) -> None:
        """Record that the coordinator's value for ``slot`` is now the
        only fresh copy (after a serial re-execution while the runtime
        is live)."""
        if self._runtime is None:
            return
        self._fresh[slot] = set()
        self._desc.pop(slot, None)
        self._coord_fresh.add(slot)

    def _handle_crash(self, worker_id: int) -> None:
        for fresh in self._fresh.values():
            fresh.discard(worker_id)
        self.pool.fallbacks += 1
        self.pool.degradation_events.append(
            f"runtime worker {worker_id} crashed mid-wave; its "
            f"unacknowledged groups were re-executed serially (exactly-once)"
        )

    def _deactivate_runtime(self) -> None:
        """Materialize every pending worker value, then drop the runtime.

        Called at normal completion, before a merge run the runtime
        cannot serve, and mid-plan when the last worker dies — after
        it, coordinator state is fully current and the in-process paths
        continue the plan seamlessly.
        """
        for slot in list(self._desc):
            self._materialize(slot)
        self.report.runtime_stats = dict(self._runtime.stats)
        self._runtime.close()
        self._runtime = None
        self._fresh.clear()
        self._desc.clear()
        self._coord_fresh.clear()

    def _dispatch(
        self,
        kind: str,
        per_worker: Dict[int, List[Any]],
        item: Callable[[Any], Any],
        needed: Callable[[Any], List[Hashable]],
    ) -> Tuple[Dict[int, List[Any]], List[int]]:
        """One IPC round-trip: each worker gets the ``item(work)`` ids of
        its assigned work plus a sync of every ``needed(work)`` slot that
        is stale there; crashed workers are recorded as degradations."""
        assignments: Dict[int, Tuple[str, List[Any], List[Any]]] = {}
        for worker_id, assigned in per_worker.items():
            if not assigned:
                continue
            sync: List[Any] = []
            synced: Set[Hashable] = set()
            for work in assigned:
                for slot in needed(work):
                    self._pack_sync(worker_id, slot, sync, synced)
            assignments[worker_id] = (kind, [item(work) for work in assigned], sync)
        results, crashed = self._runtime.dispatch(assignments)
        for worker_id in crashed:
            self._handle_crash(worker_id)
        return results, crashed

    def _publish(self, slot: Hashable, worker_id: int, descriptor: Dict[str, Any]) -> None:
        self._fresh[slot] = {worker_id}
        self._desc[slot] = descriptor
        self._coord_fresh.discard(slot)

    # -- build phase ------------------------------------------------------

    def run_builds(self, steps: List[MergeStep]) -> None:
        t0 = time.perf_counter()
        if self._runtime is not None:
            self._builds_resident(steps)
        else:
            for step in steps:
                self._local_build(step)
        self.report.builds += len(steps)
        self.report.build_waves += 1
        self.report.build_seconds += time.perf_counter() - t0
        self._emit_event("build_wave", builds=len(steps))

    def _local_build(self, step: MergeStep) -> None:
        """Run one build in the calling process: every build when no
        runtime is live, and exactly the builds of a worker that died
        before acking — its partial work was never published anywhere,
        so the build runs once from the coordinator's (fork-equal)
        state."""
        agent = self.slots.get(step.slot)
        value = _run_build(step.builder, agent)
        if agent is None:
            self._install(step.slot, wrap_slot(value))
        else:
            set_slot_value(agent, value)
            if self.accounting:
                self.report.covered.setdefault(step.slot, {step.slot})
                self._observe_size(agent)
        self._coordinator_owns(step.slot)

    def _builds_resident(self, steps: List[MergeStep]) -> None:
        """One IPC round-trip builds every leaf: workers get contiguous
        slot ranges (so later merge waves stay worker-local as long as
        possible) and ship back only descriptors and sizes."""
        workers = sorted(self._runtime.live)
        per_worker: Dict[int, List[MergeStep]] = {w: [] for w in workers}
        for index, step in enumerate(steps):
            per_worker[workers[index * len(workers) // len(steps)]].append(step)
        results, crashed = self._dispatch(
            "build", per_worker, lambda step: step.slot, lambda step: [step.slot]
        )
        for worker_id, rows in results.items():
            for (slot, descriptor, size) in rows:
                self._publish(slot, worker_id, descriptor)
                if self.accounting:
                    self.report.covered.setdefault(slot, {slot})
                    self.report.max_size = max(self.report.max_size, size)
        for worker_id in crashed:
            for step in per_worker[worker_id]:
                self._local_build(step)
        if not self._runtime.live:
            self._deactivate_runtime()

    # -- wave merge path --------------------------------------------------

    def run_waves(self, steps: List[MergeStep], first_index: int) -> None:
        waves = plan_step_waves(steps, first_index, fuse=self.plan.fuse_fanin)
        for wave in waves:
            # a runtime can die mid-run (all workers crashed); remaining
            # waves continue in the calling process transparently
            if self._runtime is not None:
                self._wave_resident(wave)
            else:
                for group in wave:
                    self._local_group(group)
            self.report.waves += 1
            self.report.groups += len(wave)
            self._emit_event("wave", groups=len(wave))

    def _account_group(self, group: StepGroup, size: int) -> None:
        if self.accounting:
            self.report.covered.setdefault(group.dst, {group.dst})
            for src in group.srcs:
                self.report.covered[group.dst] |= self.report.covered[src]
            self.report.max_size = max(self.report.max_size, size)
        for index in group.indices:
            self.report.step_status[index] = STEP_DONE
        self.report.merges += len(group.srcs)

    def _local_group(self, group: StepGroup) -> None:
        """Run one merge group in the calling process: every group when
        no runtime is live, and exactly the groups of a worker that died
        before acking.  Operand state is recovered from acked exports
        (append-only arenas survive their producer), so the group runs
        exactly once — never zero times, never one-and-a-half."""
        serialize = self.serialize  # True only when no runtime is live
        if serialize:
            payloads = [self.slots[src].emit(serialize=True) for src in group.srcs]
        else:
            payloads = [self._materialize(src) for src in group.srcs]
        if group.builder is not None:
            value = _execute_group(group.builder, payloads, serialize, True)
            agent = self.slots.get(group.dst)
            if agent is None:
                self._install(group.dst, wrap_slot(value))
                agent = self.slots[group.dst]
            else:
                set_slot_value(agent, value)
        else:
            target = self._materialize(group.dst)
            value = _execute_group(target, payloads, serialize, False)
            agent = self.slots[group.dst]
            set_slot_value(agent, value)
        if hasattr(agent, "merges_performed"):
            agent.merges_performed += len(group.srcs)
        self._coordinator_owns(group.dst)
        self._account_group(group, _value_size(value) if self.accounting else 0)

    def _wave_resident(self, wave: List[StepGroup]) -> None:
        """One merge wave, one IPC round-trip: groups are assigned to the
        workers already holding their operands, stale operands sync via
        shared-memory descriptors, and only (dst, srcs, ordinal) ids
        travel on the pipes."""
        workers = sorted(self._runtime.live)
        by_worker = assign_groups(wave, workers, self._freshness)
        results, crashed = self._dispatch(
            "merge",
            by_worker,
            lambda group: (
                group.dst,
                list(group.srcs),
                group.indices[0] if group.builder is not None else None,
            ),
            lambda group: (
                list(group.srcs)
                if group.builder is not None
                else [group.dst, *group.srcs]
            ),
        )
        for worker_id, rows in results.items():
            for group, (slot, descriptor, size) in zip(by_worker[worker_id], rows):
                self._publish(group.dst, worker_id, descriptor)
                agent = self.slots.get(group.dst)
                if agent is not None and hasattr(agent, "merges_performed"):
                    agent.merges_performed += len(group.srcs)
                self._account_group(group, size)
        for worker_id in crashed:
            for group in by_worker[worker_id]:
                self._local_group(group)
        if not self._runtime.live:
            self._deactivate_runtime()

    # -- scalar merge path ------------------------------------------------

    def run_scalar(self, steps: List[MergeStep], first_index: int) -> None:
        # hot path: merge_all and compaction run every step through this
        # loop, so frequently-read attributes are hoisted to locals
        slots = self.slots
        serialize = self.serialize
        accounting = self.accounting
        report = self.report
        status = report.step_status
        instrument = self.instrument
        for offset, step in enumerate(steps):
            index = first_index + offset
            srcs = step.srcs
            missing = False
            for src in srcs:
                if src not in slots:
                    missing = True
                    break
            if missing:
                status[index] = STEP_SKIPPED
                continue
            if step.builder is None:
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
            else:
                payloads = [slots[src].emit(serialize=serialize) for src in srcs]
                first = decode_summary(payloads[0]) if serialize else payloads[0]
                agent = wrap_slot(step.builder(first))
                agent.absorb_many(payloads[1:], serialized=serialize)
                self._install(step.slot, agent)
            if accounting:
                for src in srcs:
                    report.covered[step.slot] |= report.covered[src]
                self._observe_size(agent)
            report.merges += len(srcs)
            status[index] = STEP_DONE
            if instrument is not None:
                self._emit_event(
                    "step", index=index, dst=step.slot, fan_in=len(srcs)
                )

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

    def _deliver_with_retries(
        self,
        src: Hashable,
        dst_agent: Optional[Any],
        builder: Optional[Callable[..., Any]],
        delivery_id: str,
    ) -> Tuple[bool, Optional[Any]]:
        """One delivery through the lossy fabric.

        Returns ``(landed, agent)`` — ``agent`` is the freshly seeded
        destination when ``builder`` consumed this delivery, else
        ``dst_agent`` unchanged.
        """
        stats = self.report.fault_stats
        src_agent = self.slots[src]
        for attempt in self.policy.attempts():
            stats.attempts += 1
            if attempt > 1:
                stats.retries += 1
                stats.backoff_seconds += self.policy.delay_before(attempt)
            payload = src_agent.emit(serialize=self.serialize)
            if self.faults.draw_loss():
                stats.messages_lost += 1
                continue
            if self.serialize and self.faults.draw_corruption():
                payload = self.faults.corrupt(payload)
                stats.corrupted_payloads += 1
            try:
                if dst_agent is None:
                    child = decode_summary(payload) if self.serialize else payload
                    dst_agent = wrap_slot(builder(child))
                    if self.ledger_factory is not None:
                        dst_agent.ledger = self.ledger_factory()
                        dst_agent.ledger.witness(delivery_id)
                else:
                    dst_agent.absorb(
                        payload, serialized=self.serialize, delivery_id=delivery_id
                    )
            except SerializationError:
                stats.corruption_detected += 1
                continue
            # a late retransmission can still arrive after the ACKed original
            if self.faults.draw_duplicate():
                stats.duplicates_delivered += 1
                dup = src_agent.emit(serialize=self.serialize)
                if dst_agent.absorb(
                    dup, serialized=self.serialize, delivery_id=delivery_id
                ):
                    stats.duplicates_merged += 1
                else:
                    stats.duplicates_suppressed += 1
            return True, dst_agent
        stats.deliveries_failed += 1
        return False, dst_agent

    def run_faulty(self, steps: List[MergeStep], first_index: int) -> None:
        for offset, step in enumerate(steps):
            index = first_index + offset
            dst = step.slot
            fresh = step.builder is not None
            agent = None if fresh else self.slots.get(dst)
            delivered: List[Hashable] = []
            attempted = False
            for src in step.srcs:
                if src not in self.slots:
                    continue  # lost upstream: no surviving route
                self._draw_crashes((src, dst))
                if src in self.report.crashed or dst in self.report.crashed:
                    continue
                attempted = True
                delivery_id = f"step{index}:{src}->{dst}"
                landed, agent = self._deliver_with_retries(
                    src, agent, step.builder, delivery_id
                )
                if landed:
                    delivered.append(src)
                    if not fresh:
                        self.report.covered[dst] |= self.report.covered[src]
                        self.report.merges += 1
                        self._observe_size(agent)
            if fresh:
                if agent is not None and len(delivered) == len(step.srcs):
                    # exactly-once or nothing: a partially delivered
                    # roll-up is discarded so dependents fall back to
                    # the children instead of serving partial data
                    self._install(dst, agent)
                    for src in delivered:
                        self.report.covered[dst] |= self.report.covered[src]
                    self.report.merges += len(delivered)
                    self._observe_size(agent)
                    self.report.step_status[index] = STEP_DONE
                else:
                    self.report.step_status[index] = (
                        STEP_FAILED if attempted else STEP_SKIPPED
                    )
            elif len(delivered) == len(step.srcs):
                self.report.step_status[index] = STEP_DONE
            else:
                self.report.step_status[index] = (
                    STEP_FAILED if attempted else STEP_SKIPPED
                )
            self._emit_event(
                "step", index=index, dst=dst, fan_in=len(step.srcs),
                delivered=len(delivered),
            )

    # -- driver -----------------------------------------------------------

    def execute(self) -> ExecutionResult:
        steps = self.plan.steps
        merge_index = 0
        self._maybe_start_runtime()
        try:
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
                    if self._runtime is not None and not self.resident_merges:
                        self._deactivate_runtime()
                    t0 = time.perf_counter()
                    if self.faults is not None:
                        self.run_faulty(run, merge_index)
                    elif self.use_waves:
                        self.run_waves(run, merge_index)
                    else:
                        self.run_scalar(run, merge_index)
                    merge_index += len(run)
                    self.report.merge_seconds += time.perf_counter() - t0
                else:
                    for step in run:
                        if self._runtime is not None:
                            self._materialize(step.slot)
                        if step.slot in self.slots:
                            self.outputs[step.slot] = slot_value(
                                self.slots[step.slot]
                            )
                i = j
            if self._runtime is not None:
                self._deactivate_runtime()
        finally:
            if self._runtime is not None:  # exception path: just release
                self.report.runtime_stats = dict(self._runtime.stats)
                self._runtime.close()
                self._runtime = None
        if self.pool is not None:
            events = self.pool.degradation_events
            self.report.degradation_events = list(events)
            self.report.degraded_to_serial = self.pool.max_workers > 1 and (
                self._start_refused
                or len(events) > self._events_baseline
                or self.pool.degraded
            )
        if self.accounting:
            self.report.bytes_shipped = sum(
                getattr(a, "bytes_sent", 0) for a in self.slots.values()
            )
            self.report.bytes_retransmitted = sum(
                getattr(a, "bytes_retransmitted", 0) for a in self.slots.values()
            )
        self._emit_event(
            "done", merges=self.report.merges, waves=self.report.waves,
            max_size=self.report.max_size,
        )
        return ExecutionResult(
            outputs=self.outputs, report=self.report, agents=self.slots
        )


def execute_plan(
    plan: MergePlan,
    inputs: Mapping[Hashable, Any],
    *,
    executor: ExecutorLike = None,
    serialize: bool = False,
    fault_model: Optional[FaultModel] = None,
    retry_policy: Optional[RetryPolicy] = None,
    ledger_factory: Optional[Callable[[], Any]] = None,
    instrument: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    accounting: bool = True,
) -> ExecutionResult:
    """Execute ``plan`` over ``inputs`` and return outputs plus report.

    ``inputs`` maps slot names to values (summaries, store segments) or
    ready-made agents (the simulator's ``Node`` objects).  ``executor``
    opts into parallel dispatch on the persistent worker runtime
    (builds always; merges only for ``groupable`` fault-free plans with
    ``serialize=False``).  ``serialize`` round-trips every emitted
    summary through the wire codec.

    ``fault_model`` switches the merge phase to the retry runtime:
    deliveries retry per ``retry_policy`` against injected loss,
    corruption, crashes and duplicates; when ``ledger_factory`` is also
    given, every destination gets a merge ledger and redeliveries merge
    exactly once (without it, injected duplicates merge twice: bare
    at-least-once delivery).  The report's ``covered``/``crashed``/
    ``fault_stats`` then carry the degradation accounting.

    ``instrument`` is called as ``instrument(event, info)`` at build
    waves, merge waves or steps, and completion — a hook for benchmarks
    and progress displays, never for semantics.

    ``accounting=False`` skips the per-step size and coverage tracking
    (``report.max_size`` stays 0, ``report.covered`` stays empty) for
    hot paths that discard the report — ``merge_all`` folds, fault-free
    compactions.  It is forced back on whenever ``fault_model`` is
    given, because the fault runtime's degradation accounting *is* the
    product there.
    """
    if fault_model is not None and fault_model.corruption and not serialize:
        raise ParameterError(
            "corruption injection garbles wire payloads; it requires serialize=True"
        )
    plan.validate(inputs.keys())
    run = _Run(
        plan,
        inputs,
        resolve_executor(executor),
        serialize,
        fault_model,
        retry_policy,
        ledger_factory,
        instrument,
        accounting,
    )
    return run.execute()
