"""Dimension cube: pre-aggregated sketch cells for sub-population queries.

:class:`CubeStore` generalizes :class:`~repro.store.store.SegmentStore`
from a single time axis to (dimension-value x epoch) *cells*: records
carry dimension tags (``dims=("country", "version")``), every distinct
tag combination owns its own per-epoch segment chain, and a query names
a sub-population (``where={"country": "DE"}``) and/or a grouping
(``group_by=["version"]``).  This is the killer app the paper's
mergeability theorem enables — and the one Storyboard and the
moments-sketch paper (PAPERS.md) both build: "p99 latency for
country=X, version=Y, last 6h" answered by merging a handful of
pre-aggregated cells instead of rescanning raw data, with the merged
answer carrying exactly the guarantees of a from-scratch build.

Structurally the cube is *many* instances of the same storage kernel
the flat store is one of: every cell chain — full-key or materialized
coarse — is an :class:`~repro.store.chain.EpochChain`, so per-chain
planning, invalidation, and roll-up compaction are literally the flat
store's code.  The cube planner covers a query along two axes:

- **time** — each contributing cell chain is covered dyadically by
  :meth:`~repro.store.chain.EpochChain.plan`, the same O(log S)
  segment-tree decomposition the flat store proves;
- **dimensions** — the lattice of *roll-up masks*.  A mask is the
  subset of dimensions kept (the rest summed out); a materialized mask
  ``M`` answers any query whose needed dimensions (``where`` keys +
  ``group_by``) are a subset of ``M`` from its pre-merged cells.  The
  planner picks the cheapest materialized superset, falling back to the
  base cells when none exists.  The empty mask is the grand total: one
  cell chain, so a full-population query touches O(log E) cells no
  matter how many distinct keys exist — query cost scales with the
  *answer*, not the *data*.

Freshness is per (mask, coarse-key, epoch): ingest marks every covering
roll-up cell *stale* and the planner transparently re-reads the base
cells for exactly those epochs (counted in
:attr:`CubePlan.degraded_blocks`), so roll-ups never serve stale data.

All cube maintenance — building roll-up cells across the dimension
lattice, then the dyadic time tree within every chain through the same
:func:`~repro.store.chain.compact_chains` the flat store calls — runs
in process, and every cell is built by the store's one roll-up
builder, :func:`~repro.store.chain.merged_segment`.

Which masks to materialize is the Storyboard question:
:meth:`CubeStore.compact` takes a cell ``budget`` and a ``workload``
(query-shape log; the store also records one) and greedily picks the
masks with the best saved-merges-per-cell ratio under the budget.

Durability rides :class:`~repro.store.common.StoreBase` unchanged:
:meth:`CubeStore.enable_wal`/:meth:`CubeStore.open_durable` log every
ingest batch — dimension tags and all, since they are ordinary record
fields — before it mutates the cube, and recovery replays the tail
over the last atomic snapshot exactly as the flat store does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.base import Summary
from ..core.codecs import DEFAULT_CODEC
from ..core.exceptions import ParameterError, QueryError
from .chain import EpochChain, compact_chains, merged_segment
from .common import StoreBase
from .segment import Segment, copy_summary

__all__ = ["CubeStore", "CubePlan", "CubeResult"]

#: a full dimension-value tuple (one value per cube dimension, in order)
Key = Tuple[Any, ...]
#: a roll-up mask: the subset of dimensions kept, in cube dimension order
Mask = Tuple[str, ...]


def _check_scalar(dim: str, value: Any) -> None:
    """Dimension values, ingested or filtered on, are JSON scalars."""
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise ParameterError(
            f"dimension {dim!r} must be a JSON scalar, got {type(value).__name__}"
        )


@dataclass
class CubePlan:
    """Accounting for one cube query: which cells, at what cost.

    ``cells_merged`` is the number of segments merged per member — the
    cube's headline metric against ``base_cells_total`` cells a naive
    per-key scan would touch.  ``serving_mask`` names the dimension
    roll-up that served the query (``None`` = base cells).
    ``stale_epochs`` counts epochs transparently re-read from base cells
    because ingest invalidated the roll-up; ``degraded_blocks`` adds the
    time-axis blocks whose dyadic roll-up was missing (see
    :class:`~repro.store.planner.QueryPlan`).
    """

    lo_epoch: int
    hi_epoch: int
    where: Tuple[Tuple[str, Any], ...] = ()
    group_by: Mask = ()
    serving_mask: Optional[Mask] = None
    groups: int = 0
    cells_merged: int = 0
    rollup_nodes: int = 0
    stale_epochs: int = 0
    degraded_blocks: int = 0
    #: largest per-chain epoch overhang absorbed under window slack
    #: (window queries with ``window_eps`` only)
    window_slack_used: int = 0

    def describe(self) -> str:
        """One-line human-readable plan summary."""
        mask = (
            "base cells"
            if self.serving_mask is None
            else f"mask ({','.join(self.serving_mask) or 'total'})"
        )
        clauses = []
        if self.where:
            clauses.append(
                "where " + ",".join(f"{d}={v!r}" for d, v in self.where)
            )
        if self.group_by:
            clauses.append("group by " + ",".join(self.group_by))
        degraded = (
            f", degraded={self.degraded_blocks} blocks"
            f"/{self.stale_epochs} stale epochs"
            if self.degraded_blocks or self.stale_epochs
            else ""
        )
        return (
            f"epochs [{self.lo_epoch},{self.hi_epoch})"
            f"{' ' + ' '.join(clauses) if clauses else ''}: "
            f"{self.groups} group(s) from {mask}, "
            f"cells_merged={self.cells_merged} "
            f"({self.rollup_nodes} time roll-ups{degraded})"
        )


class CubeResult:
    """The merged answer to one cube query.

    Maps each output group key (the ``group_by`` projection; ``()`` for
    an ungrouped query) to its merged members.  ``result[key]`` accepts
    a bare value for single-dimension groupings.
    """

    def __init__(
        self,
        groups: Dict[Key, Dict[str, Summary]],
        plan: CubePlan,
        key_range: Tuple[float, float],
    ) -> None:
        self.groups = groups
        self.plan = plan
        self.key_range = key_range

    def _norm(self, key: Any) -> Key:
        return key if isinstance(key, tuple) else (key,)

    def __getitem__(self, key: Any) -> Dict[str, Summary]:
        return self.groups[self._norm(key)]

    def __contains__(self, key: Any) -> bool:
        return self._norm(key) in self.groups

    def __len__(self) -> int:
        return len(self.groups)

    def keys(self):
        return self.groups.keys()

    @property
    def members(self) -> Dict[str, Summary]:
        """The single group of an ungrouped query."""
        if len(self.groups) != 1:
            raise QueryError(
                f"query produced {len(self.groups)} groups; index by group key"
            )
        return next(iter(self.groups.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CubeResult groups={len(self.groups)} plan={self.plan.describe()!r}>"


def _mask_label(mask: Mask) -> str:
    return ",".join(mask) or "()"


class CubeStore(StoreBase):
    """Multi-dimensional sketch cube over (dimension-value x epoch) cells.

    Parameters
    ----------
    width:
        Epoch width on the numeric partition key (as in
        :class:`~repro.store.store.SegmentStore`).
    dims:
        Ordered dimension field names; every ingested record must carry
        all of them, with JSON-scalar values (str/int/float/bool/None).
    codec:
        Serialization codec for persistence.
    view_capacity:
        Size of the merged-query-view LRU (0 disables caching).
    """

    kind = "cube"
    kind_noun = "cube"
    unit_noun = "cells"
    _id_prefix = "c"

    def __init__(
        self,
        width: float,
        dims: Sequence[str],
        codec: str = DEFAULT_CODEC,
        view_capacity: int = 8,
    ) -> None:
        super().__init__(width, codec=codec, view_capacity=view_capacity)
        dims = tuple(dims)
        if not dims:
            raise ParameterError("a cube needs at least one dimension")
        if len(set(dims)) != len(dims):
            raise ParameterError(f"duplicate dimension names in {dims!r}")
        for dim in dims:
            if not isinstance(dim, str) or not dim:
                raise ParameterError(
                    f"dimension names must be non-empty strings, got {dim!r}"
                )
        self.dims: Mask = dims
        self._dim_pos = {dim: i for i, dim in enumerate(dims)}
        #: full-key cell chains — the ground truth
        self._groups: Dict[Key, EpochChain] = {}
        #: materialized dimension roll-ups: mask -> coarse key -> chain
        self._masks: Dict[Mask, Dict[Key, EpochChain]] = {}
        #: per (mask, coarse key): epochs whose roll-up cell is missing
        #: or invalidated — served from base cells until recompacted
        self._stale: Dict[Mask, Dict[Key, Set[int]]] = {}
        #: epoch -> full keys with a base cell there (stale-fallback index)
        self._epoch_keys: Dict[int, Set[Key]] = {}
        #: query-shape log for workload-aware compaction
        self._query_log: Dict[Mask, int] = {}
        #: per source mask (``None`` = base cells): how many of its chains
        #: are indexed, and (position, value) -> chain keys in chain order
        self._posting_index: Dict[
            Optional[Mask], Tuple[int, Dict[Tuple[int, Any], List[Key]]]
        ] = {}
        #: needed dimensions -> the mask that serves them (``None`` = base
        #: cells); emptied by every change to ``_masks`` or ``_stale``
        self._serving: Dict[Mask, Optional[Mask]] = {}

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def _check_member_field(self, field: Optional[str]) -> None:
        if field in self._dim_pos:
            raise ParameterError(
                f"member field {field!r} is a cube dimension; members "
                "summarize measure fields, dimensions partition them"
            )

    @property
    def num_groups(self) -> int:
        """Distinct dimension-value combinations seen."""
        return len(self._groups)

    @property
    def num_cells(self) -> int:
        """Live base cells (group x epoch)."""
        return sum(len(g.base) for g in self._groups.values())

    def materialized_masks(self) -> List[Mask]:
        return sorted(self._masks)

    def _epoch_span(self) -> Optional[Tuple[int, int]]:
        if not self._epoch_keys:
            return None
        return (min(self._epoch_keys), max(self._epoch_keys))

    def _project(self, key: Key, mask: Mask) -> Key:
        return tuple(key[self._dim_pos[dim]] for dim in mask)

    def _as_mask(self, dims: Iterable[str]) -> Mask:
        wanted = set(dims)
        unknown = wanted - set(self.dims)
        if unknown:
            raise ParameterError(
                f"unknown dimension(s) {sorted(unknown)}; "
                f"cube dimensions are {list(self.dims)}"
            )
        return tuple(d for d in self.dims if d in wanted)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _dim_key(self, record: Mapping[str, Any], index: int) -> Key:
        key = []
        for dim in self.dims:
            if dim not in record:
                raise ParameterError(
                    f"record {index} is missing dimension field {dim!r}"
                )
            value = record[dim]
            _check_scalar(dim, value)
            key.append(value)
        return tuple(key)

    def _chain_keys(self, records: List[Mapping[str, Any]]) -> List[Key]:
        return [self._dim_key(record, index) for index, record in enumerate(records)]

    def _chain_for(self, key: Key) -> EpochChain:
        return self._groups.setdefault(key, EpochChain())

    def _after_put(self, key: Key, epoch: int) -> int:
        """Index the new base cell; drop and mark stale every mask cell over it."""
        self._epoch_keys.setdefault(epoch, set()).add(key)
        self._serving.clear()
        dropped = 0
        for mask, chains in self._masks.items():
            coarse = self._project(key, mask)
            chain = chains.get(coarse)
            if chain is not None:
                if chain.base.pop(epoch, None) is not None:
                    dropped += 1
                dropped += chain.drop_covering_rollups(epoch)
            self._stale.setdefault(mask, {}).setdefault(coarse, set()).add(epoch)
        return dropped

    # ------------------------------------------------------------------
    # Compaction: dimension lattice + dyadic time tree
    # ------------------------------------------------------------------

    def _normalize_workload(
        self, workload: Optional[Iterable[Any]]
    ) -> List[Tuple[Mask, float]]:
        """Workload entries -> ``(needed mask, weight)`` pairs.

        Accepts explicit entries (dicts with ``where`` dimension names
        or mapping, ``group_by`` list, optional ``weight``), falls back
        to the store's own query log, and defaults to the grand-total
        query so a plain ``compact()`` always materializes something
        useful.
        """
        if workload is not None:
            entries: List[Tuple[Mask, float]] = []
            for entry in workload:
                if isinstance(entry, Mapping):
                    where = entry.get("where", ())
                    where_dims = (
                        where.keys() if isinstance(where, Mapping) else where
                    )
                    needed = set(where_dims) | set(entry.get("group_by", ()))
                    weight = float(entry.get("weight", 1.0))
                else:  # bare iterable of dimension names
                    needed = set(entry)
                    weight = 1.0
                entries.append((self._as_mask(needed), weight))
            return entries
        if self._query_log:
            return [(mask, float(n)) for mask, n in self._query_log.items()]
        return [((), 1.0)]

    def _choose_masks(
        self,
        workload: Optional[Iterable[Any]],
        budget: Optional[int],
    ) -> Tuple[Set[Mask], Dict[str, int]]:
        """Greedy Storyboard-style mask selection under a cell budget.

        Candidates are the proper sub-masks of the dimension set; the
        cost of a mask is the number of cells it materializes (distinct
        projected (key, epoch) pairs), the benefit of adding it is the
        workload-weighted drop in cells each query shape must merge
        (serving cost = cells of its cheapest covering mask, the full
        base cube by default).  Masks are added best
        benefit-per-cell first while the total materialized cell count
        stays within ``budget`` (``None`` = unbounded).  Already
        materialized masks are kept (and count against the budget).
        """
        entries = self._normalize_workload(workload)
        if len(self.dims) <= 10:
            candidates = [
                tuple(mask)
                for r in range(len(self.dims))
                for mask in combinations(self.dims, r)
            ]
        else:  # lattice too wide to enumerate: only query-shaped masks
            candidates = sorted(
                {mask for mask, _ in entries if len(mask) < len(self.dims)}
            )
        # a candidate is only worth costing if some query shape fits it
        needed_sets = [set(mask) for mask, _ in entries]
        candidates = [
            m
            for m in candidates
            if any(n <= set(m) for n in needed_sets) or m in self._masks
        ]
        cost: Dict[Mask, int] = {m: 0 for m in candidates}
        seen: Dict[Mask, Set[Tuple[Key, int]]] = {m: set() for m in candidates}
        for key, group in self._groups.items():
            for mask in candidates:
                coarse = self._project(key, mask)
                cells = seen[mask]
                for epoch in group.base:
                    cells.add((coarse, epoch))
        for mask in candidates:
            cost[mask] = len(seen[mask])
        total_base = self.num_cells

        def serve_cost(needed: Set[str], chosen: Set[Mask]) -> int:
            best = total_base
            for mask in chosen:
                if needed <= set(mask):
                    best = min(best, cost.get(mask, total_base))
            return best

        chosen: Set[Mask] = set(self._masks)
        spent = sum(cost.get(mask, 0) for mask in chosen)
        while True:
            best_mask, best_score, best_saving = None, 0.0, 0.0
            for mask in candidates:
                if mask in chosen:
                    continue
                if budget is not None and spent + cost[mask] > budget:
                    continue
                saving = sum(
                    weight
                    * (
                        serve_cost(set(need), chosen)
                        - serve_cost(set(need), chosen | {mask})
                    )
                    for need, weight in entries
                )
                score = saving / max(cost[mask], 1)
                if saving > 0 and score > best_score:
                    best_mask, best_score, best_saving = mask, score, saving
            if best_mask is None:
                break
            chosen.add(best_mask)
            spent += cost[best_mask]
        return chosen, {
            "candidate_masks": len(candidates),
            "materialized_cells": spent,
        }

    def compact(
        self,
        *,
        budget: Optional[int] = None,
        workload: Optional[Iterable[Any]] = None,
    ) -> Dict[str, int]:
        """Materialize dimension roll-ups and time roll-up trees.

        Two phases, each of which builds every cell before it
        installs any, so a failed build leaves that phase's cells as
        they were:

        1. **dimension cells** — for every chosen mask, each missing or
           stale (coarse key, epoch) cell is rebuilt by
           :func:`~repro.store.chain.merged_segment` as the k-way merge
           of its matching base cells, in ``repr`` order of the cells;
        2. **time roll-ups** — every non-empty chain (base and roll-up)
           gets its incremental dyadic tree from the same
           :func:`~repro.store.chain.compact_chains` the flat store
           uses.

        Mask choice is workload-aware (see :meth:`_choose_masks`):
        ``budget`` caps total materialized roll-up cells, ``workload``
        overrides the store's own query log.

        Returns counters: ``masks``, ``dim_cells_built``,
        ``time_rollups_built``, ``merge_inputs``.
        """
        if budget is not None and budget < 0:
            raise ParameterError(
                f"budget must be a non-negative cell count, got {budget}"
            )
        counters = {
            "masks": 0,
            "dim_cells_built": 0,
            "time_rollups_built": 0,
            "merge_inputs": 0,
        }
        if not self._groups:
            return counters

        chosen, choice_stats = self._choose_masks(workload, budget)
        counters["masks"] = len(chosen)
        counters.update(choice_stats)

        # phase 1: dimension roll-up cells across the lattice
        pending: Dict[Tuple[Mask, Key, int], List[Segment]] = {}
        for key, group in self._groups.items():
            for mask in chosen:
                coarse = self._project(key, mask)
                mask_groups = self._masks.get(mask, {})
                cell_chain = mask_groups.get(coarse)
                stale = self._stale.get(mask, {}).get(coarse, set())
                for epoch, segment in group.base.items():
                    exists = cell_chain is not None and epoch in cell_chain.base
                    if exists and epoch not in stale:
                        continue
                    pending.setdefault((mask, coarse, epoch), []).append(segment)
        cells = []
        for mask, coarse, epoch in sorted(pending, key=repr):
            parts = pending[mask, coarse, epoch]
            segment = merged_segment(self._new_segment_id(0, epoch), 0, epoch, parts)
            cells.append((mask, coarse, epoch, segment))
        for mask, coarse, epoch, segment in cells:
            chain = self._masks.setdefault(mask, {}).setdefault(coarse, EpochChain())
            chain.base[epoch] = segment
            chain.drop_covering_rollups(epoch)
            stale_epochs = self._stale.get(mask, {}).get(coarse)
            if stale_epochs is not None:
                stale_epochs.discard(epoch)
                if not stale_epochs:
                    del self._stale[mask][coarse]
        if not cells:
            for mask in chosen:
                self._masks.setdefault(mask, {})
        self._serving.clear()
        counters["dim_cells_built"] = len(cells)
        counters["merge_inputs"] = sum(len(parts) for parts in pending.values())

        # phase 2: dyadic time trees inside every chain
        trees = compact_chains(
            [chain for _key, chain in self._chain_index()], self._new_segment_id
        )
        counters["time_rollups_built"] = trees["built"]
        counters["merge_inputs"] += trees["merge_inputs"]

        if counters["dim_cells_built"] or counters["time_rollups_built"]:
            self._generation += 1
        return counters

    # ------------------------------------------------------------------
    # Query: lattice mask choice x dyadic time cover
    # ------------------------------------------------------------------

    def _check_where(
        self, where: Optional[Mapping[str, Any]]
    ) -> Tuple[Tuple[str, Any], ...]:
        if not where:
            return ()
        self._as_mask(where)  # validates dimension names
        for dim, value in where.items():
            _check_scalar(dim, value)
        return tuple(
            (dim, where[dim]) for dim in self.dims if dim in where
        )

    def _postings(self, mask: Optional[Mask]) -> Dict[Tuple[int, Any], List[Key]]:
        """Posting index of one source mask (``None`` = base cells).

        Maps ``(position, value)`` to the keys of the chains holding
        that value, in chain insertion order.  Chains are never removed,
        so the chains added since the last call are the tail of the
        mask's chain dict: the index only ever appends them.
        """
        chains = self._groups if mask is None else self._masks[mask]
        indexed, postings = self._posting_index.get(mask, (0, {}))
        if indexed < len(chains):
            for key in islice(chains, indexed, None):
                for item in enumerate(key):
                    postings.setdefault(item, []).append(key)
            self._posting_index[mask] = (len(chains), postings)
        return postings

    def _select_chains(
        self, mask: Optional[Mask], where_items: Tuple[Tuple[str, Any], ...]
    ) -> Iterable[Tuple[Key, EpochChain]]:
        """The ``(key, chain)`` pairs of a source mask that ``where`` keeps.

        Returns them in chain insertion order, as a scan of the mask's
        chains with an ``==`` filter would.  A filter walks the shortest
        posting list among its items, and a filter on more than one
        dimension tests each key it finds on every item, so it costs the
        chains it keeps, not the chains there are.
        """
        chains = self._groups if mask is None else self._masks[mask]
        if not where_items:
            return chains.items()
        if any(value != value for _dim, value in where_items):
            return ()  # NaN == NaN is false: no key matches, not even its own NaN
        source = self.dims if mask is None else mask
        where_idx = [(source.index(dim), value) for dim, value in where_items]
        postings = self._postings(mask)
        keys = min((postings.get(item, ()) for item in where_idx), key=len)
        if len(where_idx) > 1:
            keys = [
                key for key in keys
                if all(key[i] == value for i, value in where_idx)
            ]
        return [(key, chains[key]) for key in keys]

    def _serving_mask(self, needed: Mask) -> Optional[Mask]:
        """The materialized mask covering ``needed`` with the fewest cells.

        A mask's cells are its live cells plus its stale epochs (read
        from base cells); ``None`` when no mask covers ``needed``.  The
        choice is kept per ``needed`` until ``_masks`` or ``_stale``
        change, so a query does not walk every chain of every mask.
        """
        if needed in self._serving:
            return self._serving[needed]
        serving, best_cells = None, None
        for mask, groups in self._masks.items():
            if not set(needed) <= set(mask):
                continue
            cells = sum(len(g.base) for g in groups.values())
            cells += sum(
                len(epochs) for epochs in self._stale.get(mask, {}).values()
            )
            if best_cells is None or cells < best_cells:
                serving, best_cells = mask, cells
        self._serving[needed] = serving
        return serving

    def query(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        *,
        where: Optional[Mapping[str, Any]] = None,
        group_by: Optional[Sequence[str]] = None,
        use_rollups: bool = True,
        window: Optional[float] = None,
        window_eps: float = 0.0,
    ) -> CubeResult:
        """Answer a sub-population range query from the covering cells.

        ``where`` filters dimensions to exact values, ``group_by``
        produces one merged answer per distinct value combination of the
        named dimensions.  The planner serves the query from the
        cheapest materialized mask covering the needed dimensions
        (falling back to base cells), covers each contributing chain
        dyadically over time, and merges each output group with one
        k-way ``merge_many`` per member.  ``use_rollups=False`` is the
        naive full scan over base cells — the benchmark baseline; the
        answers are equivalent.

        Epochs whose roll-up cells were invalidated by later ingest are
        transparently served from base cells (never stale data), counted
        in ``plan.stale_epochs``.

        ``window=W`` asks for the trailing window — the last ``W`` key
        units ending at ``hi`` (default: the end of the ingested span).
        ``window_eps`` lets each contributing cell chain absorb one
        materialized time roll-up straddling the window start (the
        exponential-histogram rule, resolved once for both store kinds
        by :func:`~repro.store.chain.resolve_window`), so every group's
        answer covers at most a ``(1 + window_eps)`` factor more than
        the exact window while reusing the largest pre-merged cells
        available.
        """
        if not self._schema:
            raise QueryError("cube has no members; add_member() first")
        lo_epoch, hi_epoch, slack_lo = self._query_epochs(lo, hi, window, window_eps)
        where_items = self._check_where(where)
        group_mask = self._as_mask(group_by or ())
        overlap = {d for d, _ in where_items} & set(group_mask)
        if overlap:
            raise ParameterError(
                f"dimension(s) {sorted(overlap)} appear in both where and "
                "group_by; a filtered dimension has a single value"
            )
        needed = self._as_mask({d for d, _ in where_items} | set(group_mask))
        self._query_log[needed] = self._query_log.get(needed, 0) + 1

        cache_key = (
            self._generation,
            lo_epoch,
            hi_epoch,
            slack_lo,
            where_items,
            group_mask,
            use_rollups,
        )
        cached = self._views.get(cache_key)
        if cached is not None:
            return cached

        plan = CubePlan(
            lo_epoch=lo_epoch,
            hi_epoch=hi_epoch,
            where=where_items,
            group_by=group_mask,
        )
        serving = (
            self._serving_mask(needed)
            if use_rollups and needed != self.dims
            else None
        )
        plan.serving_mask = serving

        source_mask = serving if serving is not None else self.dims
        pos = {dim: i for i, dim in enumerate(source_mask)}
        where_idx = [(pos[dim], value) for dim, value in where_items]
        group_idx = [pos[dim] for dim in group_mask]

        def matches(key: Key) -> bool:
            return all(key[i] == value for i, value in where_idx)

        def out_key_of(key: Key) -> Key:
            return tuple(key[i] for i in group_idx)

        chosen: Dict[Key, List[Segment]] = {}
        for key, chain in self._select_chains(serving, where_items):
            if not chain.base:
                continue
            sub = chain.plan(
                lo_epoch, hi_epoch, use_rollups=use_rollups, slack_lo=slack_lo
            )
            if not sub.segments:
                continue
            chosen.setdefault(out_key_of(key), []).extend(sub.segments)
            plan.rollup_nodes += sub.rollup_nodes
            plan.degraded_blocks += sub.degraded_blocks
            plan.window_slack_used = max(
                plan.window_slack_used, sub.window_slack_used
            )
        if serving is not None:
            # stale epochs: transparently re-read the base cells
            for coarse, epochs in self._stale.get(serving, {}).items():
                if not matches(coarse):
                    continue
                in_range = sorted(
                    e for e in epochs if lo_epoch <= e < hi_epoch
                )
                for epoch in in_range:
                    out = None
                    # sorted: patch-segment merge order must not depend on
                    # set iteration order, or bounded-type states drift
                    # across processes
                    for key in sorted(self._epoch_keys.get(epoch, ()), key=repr):
                        if self._project(key, serving) != coarse:
                            continue
                        segment = self._groups[key].base.get(epoch)
                        if segment is None:
                            continue
                        if out is None:
                            out = chosen.setdefault(out_key_of(coarse), [])
                        out.append(segment)
                    if out is not None:
                        plan.stale_epochs += 1
                        plan.degraded_blocks += 1

        groups: Dict[Key, Dict[str, Summary]] = {}
        for out_key in sorted(chosen, key=repr):
            segments = chosen[out_key]
            members: Dict[str, Summary] = {}
            for name in self._schema:
                parts = [segment.members[name] for segment in segments]
                merged = copy_summary(parts[0])
                merged.merge_many(parts[1:])
                members[name] = merged
            groups[out_key] = members
            plan.cells_merged += len(segments)
        if not groups and not group_mask:
            # ungrouped query over no data: the empty answer, like
            # SegmentStore.query on an empty range
            groups[()] = {
                name: spec.build() for name, spec in self._schema.items()
            }
        plan.groups = len(groups)
        self._count_plan(plan, window)
        result = CubeResult(
            groups,
            plan,
            key_range=(
                (lo_epoch - plan.window_slack_used) * self.width,
                hi_epoch * self.width,
            ),
        )
        self._views.put(cache_key, result)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _stats_extra(self) -> Dict[str, Any]:
        masks: Dict[str, Any] = {}
        for mask in sorted(self._masks):
            groups = self._masks[mask]
            masks[_mask_label(mask)] = {
                "groups": len(groups),
                "cells": sum(len(g.base) for g in groups.values()),
                "time_rollups": sum(len(g.rollups) for g in groups.values()),
                "stale_epochs": sum(
                    len(epochs)
                    for epochs in self._stale.get(mask, {}).values()
                ),
            }
        return {
            "dims": list(self.dims),
            "groups": len(self._groups),
            "base_cells": self.num_cells,
            "time_rollups": sum(
                len(g.rollups) for g in self._groups.values()
            )
            + sum(
                len(g.rollups)
                for groups in self._masks.values()
                for g in groups.values()
            ),
            "masks": masks,
            "query_log": {
                _mask_label(mask): count
                for mask, count in sorted(self._query_log.items())
            },
        }

    # ------------------------------------------------------------------
    # Persistence hooks (entry points live on StoreBase)
    # ------------------------------------------------------------------

    def _chain_index(self) -> List[Tuple[Tuple[Any, ...], EpochChain]]:
        """Chains in manifest order: full keys, then each mask's cells."""
        chains: List[Tuple[Tuple[Any, ...], EpochChain]] = [
            (("g", key), group)
            for key, group in sorted(
                self._groups.items(), key=lambda item: repr(item[0])
            )
        ]
        for mask in sorted(self._masks):
            chains.extend(
                (("m", mask, coarse), group)
                for coarse, group in sorted(
                    self._masks[mask].items(), key=lambda item: repr(item[0])
                )
            )
        return chains

    def _attach_chain(
        self, chain_id: Tuple[Any, ...], chain: EpochChain
    ) -> None:
        if chain_id[0] == "g":
            key = chain_id[1]
            self._groups[key] = chain
            for epoch in chain.base:
                self._epoch_keys.setdefault(epoch, set()).add(key)
        else:
            self._masks.setdefault(chain_id[1], {})[chain_id[2]] = chain
            self._serving.clear()

    def _manifest_extra(self) -> Dict[str, Any]:
        return {
            "dims": list(self.dims),
            "masks": [list(mask) for mask in sorted(self._masks)],
            "stale": [
                [list(mask), list(coarse), sorted(epochs)]
                for mask in sorted(self._masks)
                for coarse, epochs in sorted(
                    self._stale.get(mask, {}).items(),
                    key=lambda item: repr(item[0]),
                )
                if epochs
            ],
        }

    def _apply_manifest_extra(self, manifest: Dict[str, Any]) -> None:
        self._serving.clear()
        if "chains" in manifest:
            for mask in manifest.get("masks", []):
                self._masks.setdefault(tuple(mask), {})
            for mask, coarse, epochs in manifest.get("stale", []):
                self._stale.setdefault(tuple(mask), {})[tuple(coarse)] = {
                    int(e) for e in epochs
                }
        else:  # legacy (format 2) cube manifest: masks carried their chains
            for entry in manifest.get("masks", []):
                mask = tuple(entry["dims"])
                self._masks.setdefault(mask, {})
                for coarse, epochs in entry.get("stale", []):
                    self._stale.setdefault(mask, {})[tuple(coarse)] = {
                        int(e) for e in epochs
                    }
