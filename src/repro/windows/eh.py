"""Exponential-histogram bucket machinery for :class:`WindowedSummary`.

Datar et al.'s exponential histogram keeps dyadic *buckets* over a
stream suffix: level-``L`` buckets carry roughly ``2**L`` granules of
mass, at most ``cap`` buckets live per level, and when a level
overflows its two oldest buckets merge into one bucket one level up.
Total space is ``O(cap * log(W))`` buckets for a window of mass ``W``,
and the only uncertainty in a window count is the single straddling
oldest bucket — at most a ``1/(cap - 1)`` fraction of the window, so
``cap = ceil(1/eps) + 1`` yields the ``(1 + eps)`` envelope.

Here every bucket carries a mergeable *sub-summary* instead of a bare
counter, so the same cascade lifts any summary type to sliding-window
semantics: bucket merges are summary merges, and mergeability
guarantees the merged bucket keeps the summary's own error bound.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

__all__ = ["Bucket", "canonicalize", "sorted_union"]


class Bucket:
    """One EH bucket: a sub-summary plus its mass and stream span.

    ``count`` is the bucket's window *mass* (total update weight routed
    into it — distinct from the sub-summary's own ``n``, whose
    semantics belong to the base type).  ``start``/``end`` delimit the
    bucket's span: clock positions ``(start, end]`` in count mode,
    event timestamps in time mode.  ``level`` is the EH level assigned
    at seal time (0) and incremented by each cascade merge.
    """

    __slots__ = ("summary", "count", "level", "start", "end")

    def __init__(self, summary: Any, count, level: int, start, end) -> None:
        self.summary = summary
        self.count = count
        self.level = level
        self.start = start
        self.end = end

    def clone(self, offset=0) -> "Bucket":
        """Deep, side-effect-free copy (optionally shifted by ``offset``).

        ``copy.deepcopy`` preserves the sub-summary's RNG state exactly,
        so cloning never perturbs determinism the way a
        ``to_dict``/``from_dict`` round trip (which draws a re-seed)
        would.
        """
        return Bucket(
            copy.deepcopy(self.summary),
            self.count,
            self.level,
            self.start + offset,
            self.end + offset,
        )

    def absorb(self, other: "Bucket") -> None:
        """Cascade-merge ``other`` into this bucket, one level up."""
        self.summary.merge(other.summary)
        self.count += other.count
        self.level += 1
        self.start = min(self.start, other.start)
        self.end = max(self.end, other.end)

    def to_dict(self) -> Dict[str, Any]:
        return self._row(self.summary.to_dict())

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict` holding the sub-summary's stored form."""
        return self._row(self.summary.to_stored())

    def _row(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "level": self.level,
            "count": self.count,
            "start": self.start,
            "end": self.end,
            "state": state,
        }


def canonicalize(buckets: List[Bucket], cap: int) -> None:
    """Restore the k-per-level invariant in place.

    Processes levels from 0 upward: while a level holds more than
    ``cap`` buckets, its two oldest (list order is oldest -> newest)
    merge into one bucket a level up, cascading overflow toward coarser
    levels.  Deterministic: the merge order is a pure function of the
    bucket list.  Only occupied levels are visited, so the cost does not
    grow with the level numbers themselves.
    """
    levels = {b.level for b in buckets}
    while levels:
        level = min(levels)
        levels.remove(level)
        positions = [i for i, b in enumerate(buckets) if b.level == level]
        while len(positions) > cap:
            first, second = positions[0], positions[1]
            buckets[first].absorb(buckets[second])
            del buckets[second]
            levels.add(level + 1)
            positions = [i for i, b in enumerate(buckets) if b.level == level]


def sorted_union(mine: List[Bucket], theirs: List[Bucket]) -> List[Bucket]:
    """Stable merge of two span-ordered bucket lists by ``(start, end)``.

    Both inputs are already internally ordered; ties break toward
    ``mine`` (stable), so the union is deterministic.
    """
    out: List[Bucket] = []
    i = j = 0
    while i < len(mine) and j < len(theirs):
        a, b = mine[i], theirs[j]
        if (b.start, b.end) < (a.start, a.end):
            out.append(b)
            j += 1
        else:
            out.append(a)
            i += 1
    out.extend(mine[i:])
    out.extend(theirs[j:])
    return out
