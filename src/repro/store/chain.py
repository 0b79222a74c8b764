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
cells alike), and time roll-up compaction of any set of chains
(:func:`compact_chains`, a plain loop over :func:`merged_segment`) —
lives here exactly once, so every future store feature lands once
instead of twice.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.base import Summary
from ..core.exceptions import ParameterError, QueryError
from .planner import QueryPlan, plan_range
from .segment import Segment, copy_summary

__all__ = [
    "EpochChain",
    "merged_segment",
    "compact_chains",
    "resolve_window",
]

#: a dyadic tree coordinate: (level, start), ``start`` aligned to ``2**level``
Block = Tuple[int, int]

# Never called: benchmarks/e2e/tracing.py still wraps this name by
# ``getattr``, so it must resolve.  It goes with the ``engine.*``
# trace metrics in the next change to the benchmark (ROADMAP item 8).
execute_plan = None


class EpochChain:
    """One series of immutable per-epoch segments + dyadic roll-ups.

    ``base`` maps epoch -> level-0 segment; ``rollups`` maps
    ``(level, start)`` -> pre-merged segment covering the aligned block
    of ``2**level`` epochs; ``max_level`` records the tallest tree ever
    built (the planner's recursion depth).
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
    the whole group.  A merge that moves ``n`` drops the answer state
    the copy inherited from the first part (see
    :meth:`~repro.core.base.Summary._share_answer`).
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
    chains: Sequence[EpochChain],
    new_segment_id: Callable[[int, int], str],
) -> Dict[str, int]:
    """Build the missing dyadic roll-ups of every chain, in process.

    The time-axis compaction of both store kinds.  Chains are visited
    in the given order and each non-empty chain's tree level by level;
    a block whose roll-up is materialized is skipped, and each missing
    one is built by :func:`merged_segment` from its (at most two)
    children, materialized or built earlier in this call.  Nothing is
    installed until every roll-up is built, so a failed build leaves
    every chain as it was.  Each chain's ``max_level`` then rises to
    its tree height.

    Returns ``levels`` (the tallest tree), ``built`` and
    ``merge_inputs`` (summaries consumed by the new roll-ups).
    """
    counters = {"levels": 0, "built": 0, "merge_inputs": 0}
    trees: List[Tuple[EpochChain, int, Dict[Block, Segment]]] = []
    for chain in chains:
        if not chain.base:
            continue
        lo, hi = min(chain.base), max(chain.base)
        levels = max(1, math.ceil(math.log2(hi - lo + 1)))
        built: Dict[Block, Segment] = {}
        for level in range(1, levels + 1):
            block = 1 << level
            for start in range((lo // block) * block, hi + 1, block):
                if (level, start) in chain.rollups:
                    continue
                parts = []
                for child in ((level - 1, start), (level - 1, start + block // 2)):
                    node = built.get(child) or chain.node(*child)
                    if node is not None:
                        parts.append(node)
                if not parts:
                    continue
                built[level, start] = merged_segment(
                    new_segment_id(level, start), level, start, parts
                )
                counters["merge_inputs"] += len(parts)
        trees.append((chain, levels, built))
    for chain, levels, built in trees:
        chain.rollups.update(built)
        chain.max_level = max(chain.max_level, levels)
        counters["levels"] = max(counters["levels"], levels)
        counters["built"] += len(built)
    return counters
