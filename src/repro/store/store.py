"""The segmented summary store.

:class:`SegmentStore` is the serving layer the ROADMAP's production
north-star asks for, built directly on the paper's mergeability
guarantee: records are partitioned by a numeric key (a timestamp,
usually) into ``width``-wide *epochs*, each epoch's records are folded
into an immutable level-0 :class:`~repro.store.segment.Segment`
holding one summary per configured member, and :meth:`compact` rolls
adjacent segments up into a dyadic tree of pre-merged segments, each
the local ``merge_many`` of its children.  A
range query is then compiled by :mod:`repro.store.planner` into
``O(log S)`` pre-merged nodes instead of an ``O(S)`` scan — and because
every summary is mergeable, the roll-up answers carry exactly the same
guarantees as the naive scan would.

Structurally the store is *one* :class:`~repro.store.chain.EpochChain`
— the shared storage kernel a :class:`~repro.store.cube.CubeStore`
instantiates once per cell — layered with the scaffolding of
:class:`~repro.store.common.StoreBase` (schema, WAL ingest,
persistence, stats).

The store's persistence (:mod:`repro.store.persistence`) and the
distributed wire format share one serialization layer
(:mod:`repro.core.codecs`), so a segment written with the compact
binary codec is byte-compatible with what a node would ship upstream.

Durability: snapshots commit atomically (stage, fsync, one manifest
rename — see :mod:`repro.store.persistence`), and with a write-ahead
log attached (:meth:`SegmentStore.enable_wal`) every ingest batch is
logged durably *before* it mutates the in-memory state, so
:meth:`SegmentStore.recover` reconverges a crashed store to the exact
pre-crash answers by replaying the WAL tail over the last snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.base import Summary
from ..core.codecs import DEFAULT_CODEC
from ..core.exceptions import ParameterError, QueryError
from .chain import EpochChain, compact_chains
from .common import StoreBase
from .planner import QueryPlan
from .segment import Segment, copy_summary

__all__ = ["SegmentStore", "QueryResult"]


class QueryResult:
    """The merged answer to one range query.

    Holds one merged summary per store member (``result["latency"]``),
    plus the :class:`~repro.store.planner.QueryPlan` that produced it
    and the actual (epoch-aligned) key range covered.  Results may be
    served from the store's view cache — treat the summaries as
    read-only query views.
    """

    def __init__(
        self,
        members: Dict[str, Summary],
        plan: QueryPlan,
        key_range: Tuple[float, float],
    ) -> None:
        self._members = members
        #: the segment cover that answered the query
        self.plan = plan
        #: actual half-open key span covered (query rounded out to epochs)
        self.key_range = key_range

    def __getitem__(self, name: str) -> Summary:
        try:
            return self._members[name]
        except KeyError:
            raise ParameterError(
                f"no store member named {name!r}; members: {sorted(self._members)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def members(self) -> Dict[str, Summary]:
        """Snapshot of the member name -> merged summary mapping."""
        return dict(self._members)

    @property
    def n(self) -> int:
        """Records covered by the answer."""
        return self.plan.records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryResult n={self.n} fan_in={self.plan.fan_in} "
            f"range={self.key_range}>"
        )


class SegmentStore(StoreBase):
    """A segmented summary store with dyadic roll-ups and a query planner.

    Parameters
    ----------
    width:
        Key-axis width of one epoch (one base segment).
    codec:
        :mod:`repro.core.codecs` name used by persistence
        (``json.v2`` default; ``binary.v1`` for compact storage).
    view_capacity:
        Size of the merged-query-view LRU (0 disables caching).
    """

    kind = "store"
    kind_noun = "store"
    unit_noun = "segments"
    _id_prefix = "s"

    def __init__(
        self,
        width: float,
        codec: str = DEFAULT_CODEC,
        view_capacity: int = 8,
    ) -> None:
        super().__init__(width, codec=codec, view_capacity=view_capacity)
        self._chain = EpochChain()

    @property
    def num_segments(self) -> int:
        """Live level-0 segments."""
        return len(self._chain.base)

    @property
    def num_rollups(self) -> int:
        """Materialized roll-up segments."""
        return len(self._chain.rollups)

    def _epoch_span(self) -> Optional[Tuple[int, int]]:
        if not self._chain.base:
            return None
        return (min(self._chain.base), max(self._chain.base))

    def _chain_for(self, key: Any) -> EpochChain:
        return self._chain

    # ------------------------------------------------------------------
    # Compaction: the dyadic roll-up tree
    # ------------------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Materialize the dyadic roll-up tree over the base segments.

        Level ``ℓ`` holds one pre-merged segment per aligned block of
        ``2**ℓ`` epochs that contains data; each is the k-way
        ``merge_many`` of its (at most two) children from the level
        below.  Blocks whose roll-up is already materialized are
        skipped, so repeated compactions are incremental.  The roll-ups
        are built in process by the shared
        :func:`~repro.store.chain.compact_chains`.

        Returns counters: ``levels``, ``rollups_built``,
        ``merge_inputs`` (summaries consumed by the new roll-ups).
        """
        result = compact_chains([self._chain], self._new_segment_id)
        if result["built"]:
            self._generation += 1
        return {
            "levels": result["levels"],
            "rollups_built": result["built"],
            "merge_inputs": result["merge_inputs"],
        }

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def _plan_epochs(
        self,
        epochs: Tuple[int, int, int],
        use_rollups: bool,
        window: Optional[float],
    ) -> QueryPlan:
        lo_epoch, hi_epoch, slack_lo = epochs
        plan = self._chain.plan(
            lo_epoch, hi_epoch, use_rollups=use_rollups, slack_lo=slack_lo
        )
        self._count_plan(plan, window)
        return plan

    def plan(self, lo: float, hi: float, use_rollups: bool = True) -> QueryPlan:
        """Compile key range ``[lo, hi)`` into a segment cover.

        The range is rounded outward to whole epochs (segments are the
        store's resolution); see :mod:`repro.store.planner` for the
        O(log S) decomposition.
        """
        epochs = self._query_epochs(lo, hi, None, 0.0)
        return self._plan_epochs(epochs, use_rollups, None)

    def plan_window(
        self,
        window: float,
        end: Optional[float] = None,
        eps: float = 0.0,
        use_rollups: bool = True,
    ) -> QueryPlan:
        """Compile the trailing window ``[end - window, end)`` into a cover.

        This is the exponential-histogram view of the roll-up tree: a
        trailing window's dyadic cover uses at most two blocks per level
        (the EH per-level invariant), and with ``eps > 0`` the one
        roll-up straddling the window start may be absorbed whole —
        covering at most ``floor(eps * window_epochs)`` extra epochs, so
        the answer's mass is within a ``(1 + eps)`` factor of the exact
        window while reusing the largest materialized blocks available.
        """
        epochs = self._query_epochs(None, end, window, eps)
        return self._plan_epochs(epochs, use_rollups, window)

    def query(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        use_rollups: bool = True,
        *,
        window: Optional[float] = None,
        window_eps: float = 0.0,
    ) -> QueryResult:
        """Answer a ``[lo, hi)`` range query from pre-merged segments.

        Plans the minimal cover, merges each member across the cover
        (one k-way ``merge_many`` per member), and caches the merged
        view in the store's LRU — repeated queries for the same range
        at the same store generation are served without re-merging.
        ``use_rollups=False`` forces the naive full scan over base
        segments (the benchmark baseline; answers are equivalent).

        ``window=W`` asks for the trailing window instead: the last
        ``W`` key units ending at ``hi`` (default: the end of the
        ingested span).  ``window_eps`` relaxes the window start so the
        planner may absorb one straddling materialized roll-up whole —
        the exponential-histogram rule — trading at most a
        ``(1 + window_eps)`` mass overshoot for strictly fewer merges
        (see :meth:`plan_window`).
        """
        if not self._schema:
            raise QueryError("store has no members; add_member() first")
        epochs = self._query_epochs(lo, hi, window, window_eps)
        cache_key = (self._generation, epochs[0], epochs[1], use_rollups)
        if window is not None:
            cache_key += ("window", float(window_eps))
        cached = self._views.get(cache_key)
        if cached is not None:
            return cached
        plan = self._plan_epochs(epochs, use_rollups, window)
        members: Dict[str, Summary] = {}
        for name, spec in self._schema.items():
            parts = [segment.members[name] for segment in plan.segments]
            if not parts:
                members[name] = spec.build()
                continue
            merged = copy_summary(parts[0])
            merged.merge_many(parts[1:])
            members[name] = merged
        result = QueryResult(
            members,
            plan,
            key_range=(
                plan.covered_lo_epoch * self.width,
                plan.hi_epoch * self.width,
            ),
        )
        self._views.put(cache_key, result)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def segments(self) -> List[Segment]:
        """All live segments (base in epoch order, then roll-ups by level)."""
        return self._chain.segments()

    def _stats_extra(self) -> Dict[str, Any]:
        per_level: Dict[int, int] = {}
        for level, _start in self._chain.rollups:
            per_level[level] = per_level.get(level, 0) + 1
        return {
            "base_segments": len(self._chain.base),
            "rollups": len(self._chain.rollups),
            "rollups_per_level": {str(k): per_level[k] for k in sorted(per_level)},
        }

    # ------------------------------------------------------------------
    # Persistence hooks (entry points live on StoreBase)
    # ------------------------------------------------------------------

    def _chain_index(self) -> List[Tuple[Tuple[Any, ...], EpochChain]]:
        return [(("flat",), self._chain)]

    def _attach_chain(
        self, chain_id: Tuple[Any, ...], chain: EpochChain
    ) -> None:
        self._chain = chain
