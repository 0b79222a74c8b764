"""Wave planning: pack independent merges into concurrent rounds.

Given an ordered list of merge operations, two transformations prepare
them for parallel dispatch:

1. **Grouping** — consecutive operations sharing a destination collapse
   into one ``(dst, [srcs])`` group, a single k-way ``merge_many``
   fan-in (one combine/compaction pass for the whole group).
2. **Wave packing** — groups are packed greedily, in order, into
   *waves*: a wave takes groups until one touches a slot an earlier
   group in the wave already used, at which point the wave is flushed.
   Groups within a wave touch disjoint slot sets, so they commute and
   may run concurrently; groups in later waves see every earlier wave's
   effects, preserving the sequential semantics of the input order.

:func:`plan_step_waves` does both over runs of
:class:`~repro.engine.plan.MergeStep` (a distributed schedule's
``(dst, src)`` pairs arrive as the merge steps of
:func:`~repro.engine.compilers.compile_aggregation`), and additionally
understands multi-source steps, copy-on-write destinations, and plans
that forbid fan-in fusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set

from .plan import MergeStep

__all__ = ["plan_step_waves", "assign_groups", "StepGroup"]


@dataclass
class StepGroup:
    """One k-way fan-in of the wave runtime: ``srcs`` merged into ``dst``.

    ``indices`` are the plan-wide merge-step indices fused into the
    group (one per source, aligned), so the executor can report per-step
    status even after fusion.  ``builder`` is non-None for copy-on-write
    destinations (the first source is copied through it).
    """

    dst: Hashable
    srcs: List[Hashable] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    builder: object = None

    @property
    def touched(self) -> Set[Hashable]:
        return {self.dst, *self.srcs}


def plan_step_waves(
    steps: Sequence[MergeStep],
    first_index: int = 0,
    fuse: bool = True,
) -> List[List[StepGroup]]:
    """Pack a run of merge steps into waves of disjoint :class:`StepGroup`.

    ``first_index`` is the plan-wide index of ``steps[0]`` (used to
    label groups for status reporting).  With ``fuse=True`` consecutive
    in-place single-source steps sharing a destination collapse into one
    k-way group; ``fuse=False``
    keeps every step its own group — required by plans whose
    step-by-step merge shape is the contract (the balanced-tree fold
    merges pairwise per level, never k-way).  Copy-on-write steps
    (``builder`` set) and multi-source steps never fuse with neighbours.
    """
    groups: List[StepGroup] = []
    for offset, step in enumerate(steps):
        index = first_index + offset
        fusable = (
            fuse
            and step.builder is None
            and len(step.srcs) == 1
            and groups
            and groups[-1].builder is None
            and groups[-1].dst == step.slot
        )
        if fusable:
            groups[-1].srcs.append(step.srcs[0])
            groups[-1].indices.append(index)
        else:
            groups.append(
                StepGroup(
                    dst=step.slot,
                    srcs=list(step.srcs),
                    indices=[index] * len(step.srcs) or [index],
                    builder=step.builder,
                )
            )
    waves: List[List[StepGroup]] = []
    wave: List[StepGroup] = []
    used: Set[Hashable] = set()
    for group in groups:
        if wave and (group.touched & used):
            waves.append(wave)
            wave, used = [], set()
        wave.append(group)
        used |= group.touched
    if wave:
        waves.append(wave)
    return waves


def assign_groups(
    groups: Sequence[StepGroup],
    workers: Sequence[int],
    freshness: Callable[[Hashable], Optional[Set[int]]],
) -> Dict[int, List[StepGroup]]:
    """Assign one wave's groups to persistent workers, by slot affinity.

    ``freshness(slot)`` returns the set of worker ids currently holding
    the slot's latest value, or ``None`` when every worker does (the
    fork-time snapshot).  Each group goes to the worker already holding
    the most of the group's touched slots — those need no state sync at
    all — with ties broken toward the least-loaded, then lowest-id,
    worker.  The result is deterministic for a given wave and fleet,
    which keeps runs reproducible (assignment never affects *values*,
    only where they are computed, but determinism keeps the dispatch
    accounting stable too).
    """
    assignments: Dict[int, List[StepGroup]] = {w: [] for w in workers}
    loads: Dict[int, int] = {w: 0 for w in workers}
    for group in groups:
        best = None
        best_key = None
        for w in workers:
            overlap = 0
            for slot in group.touched:
                fresh = freshness(slot)
                if fresh is None or w in fresh:
                    overlap += 1
            key = (overlap, -loads[w], -w)
            if best_key is None or key > best_key:
                best, best_key = w, key
        assignments[best].append(group)
        loads[best] += max(1, len(group.srcs))
    return assignments
