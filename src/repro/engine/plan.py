"""The merge-plan IR: what to merge, decoupled from how it runs.

The paper's central claim is that mergeability makes aggregation
*composable*: any merge tree over any partition of the data yields the
same ``eps`` guarantee.  The execution shape is therefore a *plan* —
data, not control flow — and this module is its intermediate
representation.  A :class:`MergePlan` is an ordered list of
:class:`MergeStep` ops over named slots:

``build``
    Materialize a slot's value by calling the step's ``builder`` (a
    leaf node ingesting its shard, for the simulator).
``merge``
    Combine the values of ``srcs`` into ``slot``.  Without a
    ``builder`` the merge is *in place* into the value ``slot`` already
    holds (the simulator's "absorb the child" semantics, mutating the
    first operand exactly like the classic fold executors).  With one,
    the builder receives the list of every source's value, in order,
    and returns the fresh slot's value — the store's immutable roll-up
    semantics, which leave the sources untouched.
``emit``
    Mark ``slot`` as an output of the plan.

Slots are arbitrary hashable names: the fold compilers use ``"s0"``,
``"s1"``, ...; the simulator uses the node indices themselves; the
store uses ``(level, start)`` block coordinates.

Plans are compiled by :mod:`repro.engine.compilers` from merge
strategies, :class:`~repro.distributed.topology.MergeSchedule` objects,
and store roll-up states, and executed — step by step, or through a
fault-injected retry loop — by :func:`repro.engine.execute_plan`.  The IR itself never executes
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, List, Optional, Set, Tuple

from ..core.exceptions import ParameterError

__all__ = ["MergeStep", "MergePlan", "OPS"]

#: the three plan ops, in the order a step lifecycle runs them
OPS = ("build", "merge", "emit")


@dataclass(frozen=True)
class MergeStep:
    """One op of a merge plan.

    ``op`` is one of :data:`OPS`.  ``slot`` is the destination (the
    built slot, the merge target, or the emitted output).  ``srcs``
    names the merge operands, in order.  ``builder`` is the leaf
    factory for ``build`` steps, or — for a ``merge`` into a fresh
    slot — a callable receiving the list of every source's value and
    returning the new slot value.
    """

    op: str
    slot: Hashable
    srcs: Tuple[Hashable, ...] = ()
    builder: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ParameterError(
                f"unknown plan op {self.op!r}; choose from {OPS}"
            )
        if self.op == "merge":
            if not self.srcs:
                raise ParameterError("a merge step needs at least one source slot")
            if self.slot in self.srcs:
                raise ParameterError(
                    f"merge step destination {self.slot!r} appears in its own sources"
                )
        elif self.srcs:
            raise ParameterError(f"{self.op} steps take no source slots")
        if self.op == "build" and self.builder is None:
            raise ParameterError("a build step needs a builder callable")

    def describe(self) -> str:
        """One human-readable line for :meth:`MergePlan.describe`."""
        if self.op == "build":
            return f"build {self.slot!r}"
        if self.op == "merge":
            srcs = ", ".join(repr(s) for s in self.srcs)
            arrow = "<-" if self.builder is None else "<=(copy)"
            return f"merge {self.slot!r} {arrow} [{srcs}]"
        return f"emit  {self.slot!r}"


@dataclass(frozen=True)
class MergePlan:
    """An ordered program of :class:`MergeStep` ops over named slots.

    ``protected`` names slots immune to crash injection (the
    simulator's coordinator, recovered out-of-band).
    """

    name: str
    steps: Tuple[MergeStep, ...]
    protected: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "protected", frozenset(self.protected))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    # cached_property works on a frozen dataclass (it writes straight
    # into __dict__); plans are immutable, so each view is computed once
    @cached_property
    def merge_steps(self) -> Tuple[MergeStep, ...]:
        return tuple(s for s in self.steps if s.op == "merge")

    @cached_property
    def build_steps(self) -> Tuple[MergeStep, ...]:
        return tuple(s for s in self.steps if s.op == "build")

    @cached_property
    def outputs(self) -> Tuple[Hashable, ...]:
        """Slots emitted by the plan, in emit order."""
        return tuple(s.slot for s in self.steps if s.op == "emit")

    @cached_property
    def num_merges(self) -> int:
        """Total merge fan-in (source slots consumed across merge steps)."""
        return sum(len(s.srcs) for s in self.merge_steps)

    def slots(self) -> Set[Hashable]:
        """Every slot the plan names anywhere."""
        named: Set[Hashable] = set()
        for step in self.steps:
            named.add(step.slot)
            named.update(step.srcs)
        return named

    def validate(self, inputs: Iterable[Hashable] = ()) -> None:
        """Check the plan is executable given the caller's input slots.

        Raises :class:`~repro.core.exceptions.ParameterError` when a
        step reads a slot that is neither an input, nor built, nor the
        fresh destination of an earlier merge, or when an emit names an
        unknown slot.
        """
        known: Set[Hashable] = set(inputs)
        # plans are immutable, so a (plan, input-set) pair that passed
        # once passes forever — cached fold plans skip the re-walk
        witnessed = self.__dict__.setdefault("_validated_input_sets", set())
        key = frozenset(known)
        if key in witnessed:
            return
        for index, step in enumerate(self.steps):
            if step.op == "build":
                known.add(step.slot)
                continue
            if step.op == "merge":
                missing = [s for s in step.srcs if s not in known]
                if missing:
                    raise ParameterError(
                        f"plan {self.name!r} step {index}: merge into "
                        f"{step.slot!r} reads unknown slot(s) {missing!r}"
                    )
                known.add(step.slot)
                continue
            if step.slot not in known:
                raise ParameterError(
                    f"plan {self.name!r} step {index}: emit of unknown "
                    f"slot {step.slot!r}"
                )
        if not self.outputs:
            raise ParameterError(f"plan {self.name!r} emits nothing")
        witnessed.add(key)

    def describe(self) -> str:
        """Multi-line rendering for the ``repro plan`` CLI command."""
        header = (
            f"plan {self.name!r}: {len(self.build_steps)} build(s), "
            f"{len(self.merge_steps)} merge step(s) "
            f"({self.num_merges} fan-in), "
            f"{len(self.outputs)} output(s)"
        )
        lines: List[str] = [header]
        for index, step in enumerate(self.steps):
            lines.append(f"  {index:>3}. {step.describe()}")
        return "\n".join(lines)
