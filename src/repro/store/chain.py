"""The storage kernel: one epoch chain, shared by both store kinds.

The paper's thesis is that one merge operation composes everywhere;
this module is where the repo's storage layer finally says it once.  An
:class:`EpochChain` owns the per-epoch level-0 segments of *one* series
plus their incremental dyadic roll-up tree — exactly the structure
:class:`~repro.store.store.SegmentStore` keeps for its single time
axis, and :class:`~repro.store.cube.CubeStore` keeps per
(dimension-value x epoch) cell chain.  Storyboard (Gan et al.,
PAPERS.md) treats segment summaries and cube cells as the same
precomputed-summary object; here they literally are:

- the flat store is **one** chain;
- a cube is **many** chains (one per full dimension key, plus one per
  materialized coarse cell), planned and compacted with the same code.

Everything layered on top — query planning
(:func:`~repro.store.planner.plan_range` via :meth:`EpochChain.plan`,
including the ``window=``/``window_eps`` slack rule resolved by
:func:`resolve_window`), invalidation
(:meth:`EpochChain.drop_covering_rollups`), the one roll-up builder
(:func:`merged_segment`: ingest replacements, time roll-ups and cube
cells alike), and time roll-up compaction of any set of chains as one
in-process plan (:func:`compact_chains` over
:func:`compile_rollup_steps`) — lives here exactly once, so every
future store feature lands once instead of twice.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.base import Summary
from ..core.exceptions import ParameterError, QueryError
from ..engine import MergePlan, MergeStep, execute_plan
from .planner import QueryPlan, plan_range
from .segment import Segment, copy_summary

__all__ = [
    "EpochChain",
    "merged_segment",
    "compile_rollup_steps",
    "compact_chains",
    "dyadic_levels",
    "resolve_window",
]

#: a dyadic tree coordinate: (level, start), ``start`` aligned to ``2**level``
Block = Tuple[int, int]


class EpochChain:
    """One series of immutable per-epoch segments + dyadic roll-ups.

    ``base`` maps epoch -> level-0 segment; ``rollups`` maps
    ``(level, start)`` -> pre-merged segment covering the aligned block
    of ``2**level`` epochs; ``max_level`` records the tallest tree ever
    compiled (the planner's recursion depth).
    """

    __slots__ = ("base", "rollups", "max_level")

    def __init__(self) -> None:
        self.base: Dict[int, Segment] = {}
        self.rollups: Dict[Block, Segment] = {}
        self.max_level = 0

    def node(self, level: int, start: int) -> Optional[Segment]:
        """The materialized node covering block ``(level, start)``, if any."""
        if level == 0:
            return self.base.get(start)
        return self.rollups.get((level, start))

    def plan(
        self,
        lo_epoch: int,
        hi_epoch: int,
        *,
        use_rollups: bool = True,
        slack_lo: int = 0,
    ) -> QueryPlan:
        """Minimal dyadic cover of ``[lo_epoch, hi_epoch)`` over this chain.

        Delegates to :func:`~repro.store.planner.plan_range`;
        ``slack_lo`` is the window-query left-edge relaxation (the
        exponential-histogram oldest-bucket rule — see
        :func:`resolve_window`, its single resolution site).
        """
        return plan_range(
            lo_epoch,
            hi_epoch,
            self.base,
            self.rollups,
            max_level=max(self.max_level, 1),
            use_rollups=use_rollups,
            slack_lo=slack_lo,
        )

    def drop_covering_rollups(self, epoch: int) -> int:
        """Drop every roll-up whose block contains ``epoch``; returns count."""
        dropped = 0
        for level in range(1, self.max_level + 1):
            start = (epoch >> level) << level
            if self.rollups.pop((level, start), None) is not None:
                dropped += 1
        return dropped

    def segments(self) -> List[Segment]:
        """Live segments: base in epoch order, then roll-ups by block."""
        base = [self.base[e] for e in sorted(self.base)]
        ups = [self.rollups[k] for k in sorted(self.rollups)]
        return base + ups


def dyadic_levels(chain: EpochChain) -> int:
    """Roll-up tree height for the chain's current epoch span."""
    lo, hi = min(chain.base), max(chain.base)
    span = hi - lo + 1
    return max(1, math.ceil(math.log2(span))) if span > 1 else 1


def merged_segment(
    segment_id: str,
    level: int,
    start: int,
    parts: Sequence[Segment],
) -> Segment:
    """The one roll-up builder: a new segment merging ``parts`` k-way.

    Builds every segment the store derives from others — an ingest
    replacement, a dyadic time roll-up, a cube cell.  ``parts`` are
    left untouched: each member starts as a copy of the first part's
    summary and folds in the rest with one ``merge_many`` call (made
    even when there is no rest), so one combine/compaction pass covers
    the whole group.
    """
    if not parts:
        raise ParameterError("cannot roll up an empty segment group")
    members: Dict[str, Summary] = {}
    for name in parts[0].members:
        first = copy_summary(parts[0].members[name])
        members[name] = first.merge_many([p.members[name] for p in parts[1:]])
    return Segment(
        segment_id=segment_id,
        level=level,
        start=start,
        count=sum(p.count for p in parts),
        members=members,
    )


def compile_rollup_steps(
    chain: EpochChain,
    levels: int,
    *,
    slot_of: Callable[[Block], Any],
    new_segment_id: Callable[[int, int], str],
    steps: List[MergeStep],
    inputs: Dict[Any, Segment],
) -> Set[Block]:
    """Compile one chain's incremental dyadic roll-up into merge steps.

    Jobs are discovered level by level exactly like the historical loop
    — same block iteration, same skip of materialized roll-ups, same
    segment-id allocation order — but a job may reference a *planned*
    sibling from the level below as a source slot, which is what lets
    the whole tree execute as one plan.

    ``slot_of`` maps a ``(level, start)`` block to the caller's plan
    slot (:func:`compact_chains` prefixes the chain id so many chains
    share one plan).  Merge steps are appended to ``steps`` and their
    source segments to ``inputs``; the caller appends the ``emit``
    steps so it controls their ordering.  Returns the set of planned
    blocks.
    """
    lo, hi = min(chain.base), max(chain.base)
    planned: Set[Block] = set()
    for level in range(1, levels + 1):
        block = 1 << level
        half = block >> 1
        first = (lo // block) * block
        for start in range(first, hi + 1, block):
            if (level, start) in chain.rollups:
                continue
            srcs: List[Any] = []
            for child_start in (start, start + half):
                child = (level - 1, child_start)
                if level - 1 >= 1 and child in planned:
                    srcs.append(slot_of(child))
                    continue
                node = chain.node(level - 1, child_start)
                if node is not None:
                    child_slot = slot_of(child)
                    inputs[child_slot] = node
                    srcs.append(child_slot)
            if not srcs:
                continue
            steps.append(
                MergeStep(
                    "merge",
                    slot_of((level, start)),
                    tuple(srcs),
                    builder=partial(
                        merged_segment, new_segment_id(level, start), level, start
                    ),
                )
            )
            planned.add((level, start))
    return planned


def resolve_window(
    window: float,
    end: Optional[float],
    eps: float,
    *,
    width: float,
    span: Optional[Tuple[float, float]],
    noun: str = "store",
) -> Tuple[int, int, int]:
    """Resolve a trailing window to epoch coordinates and its slack.

    The single implementation of the window rule shared by both store
    kinds: ``end`` defaults to the end of the ingested key span (the
    store's "now"), the window is rounded outward to whole epochs, and
    ``eps`` buys the planner ``floor(eps * window_epochs)`` epochs of
    left-edge slack — the exponential histogram's oldest-bucket budget,
    spent by :func:`~repro.store.planner.plan_range` when a
    materialized roll-up straddles the window start.  Returns
    ``(lo_epoch, hi_epoch, slack_lo)``.
    """
    if not window > 0:
        raise ParameterError(f"window must be positive, got {window!r}")
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"window_eps must be in [0, 1], got {eps!r}")
    if end is None:
        if span is None:
            raise QueryError(
                f"window query on an empty {noun}: no key span to anchor "
                "the window end (pass hi= explicitly)"
            )
        end = span[1]
    hi_epoch = int(math.ceil(float(end) / width))
    window_epochs = max(1, int(math.ceil(float(window) / width)))
    slack_lo = int(math.floor(eps * window_epochs))
    return hi_epoch - window_epochs, hi_epoch, slack_lo


def compact_chains(
    chains: Sequence[Tuple[Tuple[Any, ...], EpochChain]],
    new_segment_id: Callable[[int, int], str],
    *,
    name: str,
) -> Dict[str, int]:
    """Build the missing dyadic roll-ups of every chain as one merge plan.

    The time-axis compaction of both store kinds.  Each non-empty
    chain's incremental tree is compiled by :func:`compile_rollup_steps`
    under slots ``chain_id + (level, start)`` — the flat store's one
    chain has id ``()``, so its slots are bare blocks — and the whole
    plan runs once, in process, through
    :func:`repro.engine.execute_plan`; every roll-up it builds is
    installed and each chain's ``max_level`` rises to the compiled
    height.

    Returns ``levels`` (the tallest tree compiled), ``built`` and
    ``merge_inputs`` (summaries consumed by the new roll-ups).
    """
    steps: List[MergeStep] = []
    inputs: Dict[Any, Segment] = {}
    heights: Dict[Tuple[Any, ...], Tuple[EpochChain, int]] = {}
    for chain_id, chain in chains:
        if not chain.base:
            continue
        levels = dyadic_levels(chain)
        heights[chain_id] = (chain, levels)
        planned = compile_rollup_steps(
            chain,
            levels,
            slot_of=lambda block, chain_id=chain_id: chain_id + block,
            new_segment_id=new_segment_id,
            steps=steps,
            inputs=inputs,
        )
        steps.extend(MergeStep("emit", chain_id + block) for block in sorted(planned))
    counters = {
        "levels": max((levels for _chain, levels in heights.values()), default=0),
        "built": 0,
        "merge_inputs": 0,
    }
    if steps:
        plan = MergePlan(name=name, steps=steps)
        result = execute_plan(plan, inputs, accounting=False)
        for slot, segment in result.outputs.items():
            heights[slot[:-2]][0].rollups[slot[-2:]] = segment
        counters["built"] = len(result.outputs)
        counters["merge_inputs"] = plan.num_merges
    for chain, levels in heights.values():
        chain.max_level = max(chain.max_level, levels)
    return counters
