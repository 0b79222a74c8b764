"""Shared store scaffolding: schema, ingest, WAL, query resolution, stats.

:class:`StoreBase` is everything the flat
:class:`~repro.store.store.SegmentStore` and the dimension
:class:`~repro.store.cube.CubeStore` have in common once their chains
live in :mod:`repro.store.chain`: member schema management, batch
validation, the one ingest path (route every record to a
(chain key, epoch) cell, build each cell, append the batch to the
write-ahead log, then install the cells — so a batch that cannot
apply is never logged, and a crash at any later instant is recoverable
by replay), query range/window resolution, fingerprinting, the unified
``stats()`` schema, and the persistence entry points (one
:func:`~repro.store.persistence.save`/``load`` pair, kind-generic
recovery and verification).

Subclasses provide the kind-specific surface through a small hook set:

========================= =================================================
``_chain_keys(records)``  chain key of every record (flat: all ``()``)
``_chain_for(key)``       the chain a cell installs into (created on demand)
``_after_put(key, e)``    bookkeeping after a base cell lands; returns
                          extra roll-ups invalidated (cube: mask cells)
``_epoch_span()``         (lo, hi) epochs covered, or ``None``
``_chain_index()``        ordered ``(chain_id, EpochChain)`` pairs
``_attach_chain(...)``    adopt one loaded chain (persistence)
``_manifest_extra()``     kind-specific manifest fields
``_stats_extra()``        kind-specific ``stats()`` fields
========================= =================================================
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.base import Summary, normalize_batch
from ..core.codecs import DEFAULT_CODEC, get_codec
from ..core.exceptions import ParameterError
from .chain import EpochChain, merged_segment, resolve_window
from .segment import MemberSpec, Segment, build_members
from .views import ViewCache

__all__ = ["StoreBase"]

#: one built ingest cell: (chain key, epoch, record count, member summaries)
Cell = Tuple[Any, int, int, Dict[str, Summary]]


class StoreBase:
    """Common machinery under both store kinds (see module docstring)."""

    #: manifest/persistence kind tag ("store" | "cube")
    kind = "store"
    #: how error messages name this store kind
    kind_noun = "store"
    #: what this kind calls its level-0 segments ("segments" | "cells")
    unit_noun = "segments"
    #: segment-id prefix ("s" for the flat store, "c" for cube cells)
    _id_prefix = "s"

    def __init__(
        self,
        width: float,
        codec: str = DEFAULT_CODEC,
        view_capacity: int = 8,
    ) -> None:
        if not width > 0:
            raise ParameterError(f"width must be positive, got {width!r}")
        get_codec(codec)  # fail fast on unknown codecs
        self.width = float(width)
        self.codec = codec
        self._schema: Dict[str, MemberSpec] = {}
        self._views = ViewCache(view_capacity)
        self._generation = 0
        self._records = 0
        self._next_segment_id = 0
        self._degraded_blocks_total = 0
        self._window_queries = 0
        self._window_slack_total = 0
        self._wal = None
        self._wal_seq = 0
        self._snapshot = 0
        #: random id of the snapshot last loaded or committed; a save
        #: reuses a directory's committed containers only under this id
        self._snapshot_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def _check_member_field(self, field: Optional[str]) -> None:
        """Kind-specific member-field validation hook (cube: no dims)."""

    def add_member(
        self,
        name: str,
        type_name: str,
        field: Optional[str] = None,
        **kwargs: Any,
    ):
        """Configure a summary member fed from record ``field``.

        Must happen before the first ingest: segments are immutable, so
        a member added later could never be backfilled.
        """
        if name in self._schema:
            raise ParameterError(
                f"{self.kind_noun} already has a member named {name!r}"
            )
        if self._epoch_span() is not None:
            raise ParameterError(
                "cannot add members after ingest has begun; the schema is "
                f"fixed once {self.unit_noun} exist"
            )
        self._check_member_field(field)
        spec = MemberSpec(type_name=type_name, field=field or name, kwargs=kwargs)
        spec.build()  # validate the constructor arguments eagerly
        self._schema[name] = spec
        return self

    @property
    def schema(self) -> Dict[str, MemberSpec]:
        """Snapshot of the member name -> spec mapping."""
        return dict(self._schema)

    @property
    def generation(self) -> int:
        """Monotonic state version (bumped by ingest and compaction)."""
        return self._generation

    @property
    def records(self) -> int:
        """Total records ingested."""
        return self._records

    # ------------------------------------------------------------------
    # Epoch geometry
    # ------------------------------------------------------------------

    def epoch_of(self, key: float) -> int:
        """The epoch (base-segment index) a key falls into."""
        return int(math.floor(float(key) / self.width))

    def _epoch_span(self) -> Optional[Tuple[int, int]]:
        raise NotImplementedError

    def key_span(self) -> Optional[Tuple[float, float]]:
        """Half-open key range covered by ingested data, or ``None``."""
        span = self._epoch_span()
        if span is None:
            return None
        return (span[0] * self.width, (span[1] + 1) * self.width)

    # ------------------------------------------------------------------
    # Ingest: route and build, log, install
    # ------------------------------------------------------------------

    def _new_segment_id(self, level: int, start: int) -> str:
        self._next_segment_id += 1
        return f"{self._id_prefix}{self._next_segment_id:06d}-L{level}-e{start}"

    def _chain_keys(self, records: List[Mapping[str, Any]]) -> Iterable[Any]:
        """Chain key of every record, validated (one call per batch)."""
        return itertools.repeat(())

    def _chain_for(self, key: Any) -> EpochChain:
        raise NotImplementedError

    def _after_put(self, key: Any, epoch: int) -> int:
        """Bookkeeping after a base cell lands; returns extra invalidations."""
        return 0

    def _build_cells(
        self,
        records: List[Mapping[str, Any]],
        keys: Sequence[float],
        weights,
    ) -> List[Cell]:
        """Route a batch into (chain key, epoch) cells and build each one.

        Touches no store state, so a batch that a dimension check or a
        member rejects raises here and leaves nothing behind.
        """
        # epoch_of, hoisted out of the per-record loop (keys are floats here)
        width = self.width
        epochs = [math.floor(key / width) for key in keys]
        by_cell: Dict[Tuple[Any, int], List[int]] = {}
        for index, cell in enumerate(zip(self._chain_keys(records), epochs)):
            by_cell.setdefault(cell, []).append(index)
        weight_list = None if weights is None else weights.tolist()
        cells: List[Cell] = []
        for chain_key, epoch in sorted(by_cell, key=lambda c: (repr(c[0]), c[1])):
            idx = by_cell[(chain_key, epoch)]
            batch = [records[i] for i in idx]
            batch_weights = (
                None if weight_list is None else [weight_list[i] for i in idx]
            )
            members = build_members(self._schema, batch, batch_weights)
            cells.append((chain_key, epoch, len(batch), members))
        return cells

    def _install_cells(self, cells: List[Cell], n_records: int) -> Dict[str, int]:
        """Install built cells in order; segment ids are allocated here."""
        created = replaced = invalidated = 0
        for chain_key, epoch, count, members in cells:
            chain = self._chain_for(chain_key)
            fresh = Segment(self._new_segment_id(0, epoch), 0, epoch, count, members)
            old = chain.base.get(epoch)
            if old is None:
                chain.base[epoch] = fresh
                created += 1
            else:
                chain.base[epoch] = merged_segment(
                    self._new_segment_id(0, epoch), 0, epoch, [old, fresh]
                )
                replaced += 1
            invalidated += chain.drop_covering_rollups(epoch)
            invalidated += self._after_put(chain_key, epoch)
        self._records += n_records
        self._generation += 1
        return {
            f"{self.unit_noun}_created": created,
            f"{self.unit_noun}_replaced": replaced,
            "rollups_invalidated": invalidated,
            "records": n_records,
        }

    def ingest(
        self,
        records: Iterable[Mapping[str, Any]],
        keys: Optional[Sequence[float]] = None,
        weights: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Partition ``records`` by key into immutable base segments.

        ``keys`` is a parallel sequence of numeric partition keys
        (timestamps); when omitted, the running record index is used, so
        epochs become fixed-size arrival batches.  ``weights`` is an
        optional parallel sequence of positive integer multiplicities,
        forwarded to each member's batched ingestion.  A cube routes
        each record to the cell chain of its dimension tags.

        Re-ingesting into an epoch that already has a segment does not
        mutate it: a fresh segment is built from the batch and *merged*
        with the old one into a replacement, and every roll-up covering
        that epoch is invalidated — the chain's time roll-ups and, in a
        cube, the covering cell of every materialized mask, which is
        also marked stale so queries fall back to base cells until the
        next ``compact()``.

        The whole batch is validated and built before anything changes:
        a batch that cannot apply raises and leaves the store — and its
        write-ahead log (:meth:`enable_wal`) — untouched.  A batch that
        can apply is appended to the log (durably, per the log's fsync
        policy) before it is installed, so a crash at any later instant
        is recoverable by replay.

        Returns counters: ``segments_created`` and ``segments_replaced``
        (``cells_created``/``cells_replaced`` for a cube),
        ``rollups_invalidated``, ``records``.
        """
        if not self._schema:
            raise ParameterError(
                f"{self.kind_noun} has no members; add_member() first"
            )
        records, weights, _total = normalize_batch(records, weights)
        records = list(records)
        if keys is None:
            keys = [float(self._records + i) for i in range(len(records))]
        else:
            if len(keys) != len(records):
                raise ParameterError(
                    f"keys must align with records: got {len(records)} "
                    f"record(s) and {len(keys)} key(s)"
                )
            keys = [float(key) for key in keys]
        for key in keys:
            if not math.isfinite(key):
                raise ParameterError(f"partition keys must be finite, got {key!r}")
        cells = self._build_cells(records, keys, weights)
        if self._wal is None:
            return self._install_cells(cells, len(records))
        # past any seq a failed append used up (see repro.store.wal)
        seq = max(self._wal_seq, self._wal.last_seq) + 1
        self._wal.append(
            seq,
            records,
            keys,
            None if weights is None else [int(w) for w in weights],
        )
        counters = self._install_cells(cells, len(records))
        self._wal_seq = seq
        return counters

    # ------------------------------------------------------------------
    # Durability: the write-ahead log and replay
    # ------------------------------------------------------------------

    def enable_wal(
        self,
        directory: str,
        fsync_every: int = 1,
        fs: Any = None,
    ):
        """Attach a write-ahead ingest log rooted at ``directory``.

        Subsequent :meth:`ingest` calls append their batch to the log
        before applying it; ``fsync_every`` is the durability/throughput
        knob (see :mod:`repro.store.wal`).  :meth:`save` records the
        covered sequence in the manifest and retires fully-covered log
        files after the snapshot commits.  Returns the attached
        :class:`~repro.store.wal.WriteAheadLog`.
        """
        from .wal import WriteAheadLog

        if self._wal is not None:
            raise ParameterError(
                f"{self.kind_noun} already has a write-ahead log attached"
            )
        self._wal = WriteAheadLog(directory, fs=fs, fsync_every=fsync_every)
        return self._wal

    @property
    def wal(self):
        """The attached :class:`~repro.store.wal.WriteAheadLog`, or ``None``."""
        return self._wal

    @property
    def wal_seq(self) -> int:
        """Sequence number of the last logged-and-applied ingest batch."""
        return self._wal_seq

    @property
    def snapshot(self) -> int:
        """Generation of the last committed snapshot (0 before any save)."""
        return self._snapshot

    def _replay_wal(self, record) -> None:
        """Re-apply one logged ingest batch (recovery path; no re-logging)."""
        records, weights, _total = normalize_batch(record.records, record.weights)
        records = list(records)
        self._install_cells(
            self._build_cells(records, record.keys, weights), len(records)
        )
        self._wal_seq = record.seq

    def fingerprint(self) -> str:
        """Digest of the logical store state, for crash-safety proofs.

        Covers everything a snapshot persists and a query can observe —
        schema, counters, every chain's segments (metadata and member
        states) and the kind's manifest fields — but not administrative
        counters (snapshot generation, cache stats).  Two stores with
        equal fingerprints give byte-identical answers to every query.
        Digests are compared within one build of the code, never stored.
        """
        state = {
            "width": self.width,
            "codec": self.codec,
            "schema": {
                name: spec.to_dict() for name, spec in sorted(self._schema.items())
            },
            "records": self._records,
            "wal_seq": self._wal_seq,
            "chains": [
                {
                    "id": repr(chain_id),
                    "max_level": chain.max_level,
                    "segments": [segment.fingerprint() for segment in chain.segments()],
                }
                for chain_id, chain in self._chain_index()
            ],
        }
        state.update(self._manifest_extra())
        canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Query resolution (one rule for both kinds)
    # ------------------------------------------------------------------

    def _query_epochs(
        self,
        lo: Optional[float],
        hi: Optional[float],
        window: Optional[float],
        window_eps: float,
    ) -> Tuple[int, int, int]:
        """Resolve a query to ``(lo_epoch, hi_epoch, slack_lo)``.

        Either an explicit ``[lo, hi)`` range rounded outward to whole
        epochs, or the trailing ``window`` ending at ``hi`` (default:
        the end of the ingested span) with ``window_eps`` left-edge
        slack, resolved by :func:`~repro.store.chain.resolve_window`.
        """
        if window is not None:
            if lo is not None:
                raise ParameterError(
                    "pass either an explicit [lo, hi) range or window=, "
                    "not both"
                )
            return resolve_window(
                window,
                hi,
                window_eps,
                width=self.width,
                span=self.key_span(),
                noun=self.kind_noun,
            )
        if lo is None or hi is None:
            raise ParameterError(
                "query needs an explicit [lo, hi) range or window="
            )
        if not hi > lo:
            raise ParameterError(
                f"query range must satisfy lo < hi, got [{lo!r}, {hi!r})"
            )
        return self.epoch_of(lo), int(math.ceil(float(hi) / self.width)), 0

    def _count_plan(self, plan: Any, window: Optional[float]) -> None:
        """Add one freshly planned query to the ``stats()`` planner block."""
        self._degraded_blocks_total += plan.degraded_blocks
        if window is not None:
            self._window_queries += 1
            self._window_slack_total += plan.window_slack_used

    # ------------------------------------------------------------------
    # Introspection (one stats schema for both kinds)
    # ------------------------------------------------------------------

    def _stats_extra(self) -> Dict[str, Any]:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Store-level statistics for the CLI and the benchmarks.

        Both store kinds report the same outer schema — ``kind``,
        schema/counter fields, ``view_cache`` (the
        :class:`~repro.store.views.ViewCache` hit/miss/size triple), and
        a ``planner`` block with ``degraded_blocks_total``,
        ``window_queries``, and ``window_slack_epochs_total`` — so
        ``repro store stats`` prints one format; kind-specific fields
        ride alongside via :meth:`_stats_extra`.
        """
        stats = {
            "kind": self.kind,
            "width": self.width,
            "codec": self.codec,
            "members": {
                name: spec.to_dict() for name, spec in sorted(self._schema.items())
            },
            "records": self._records,
            "generation": self._generation,
        }
        stats.update(self._stats_extra())
        stats["key_span"] = self.key_span()
        stats["view_cache"] = self._views.stats
        stats["planner"] = {
            "degraded_blocks_total": self._degraded_blocks_total,
            "window_queries": self._window_queries,
            "window_slack_epochs_total": self._window_slack_total,
        }
        return stats

    # ------------------------------------------------------------------
    # Persistence hooks and entry points
    # ------------------------------------------------------------------

    def _chain_index(self) -> List[Tuple[Tuple[Any, ...], EpochChain]]:
        raise NotImplementedError

    def _attach_chain(
        self, chain_id: Tuple[Any, ...], chain: EpochChain
    ) -> None:
        raise NotImplementedError

    def _manifest_extra(self) -> Dict[str, Any]:
        """Kind-specific manifest fields (cube: dims, masks, stale marks)."""
        return {}

    def _apply_manifest_extra(self, manifest: Dict[str, Any]) -> None:
        """Adopt kind-specific manifest fields before chains attach."""

    def save(self, path, fs: Any = None) -> Dict[str, int]:
        """Commit an atomic snapshot of the store to a directory.

        The containers not yet committed go into new pack files of at
        most 1 MiB, each fsynced once, and the manifest rename is the
        single commit point (:func:`~repro.store.persistence.save`), so
        a crash mid-save always leaves a loadable store and the fsync
        count grows with the bytes written, not with the number of
        segments.  With a WAL
        attached, log files fully covered by the committed snapshot are
        retired afterwards (``wal_retired`` in the returned counters).
        """
        from .persistence import save

        report = save(self, path, fs=fs)
        if self._wal is not None:
            report["wal_retired"] = self._wal.retire(self._wal_seq)
        return report

    @classmethod
    def open(cls, path, fs: Any = None):
        """Load the latest committed snapshot and replay the WAL tail.

        Strict: damage anywhere raises
        :class:`~repro.core.exceptions.SerializationError` (a torn WAL
        tail points at :meth:`recover`, which quarantines instead).
        """
        from .persistence import load

        return load(path, fs=fs, expect_kind=cls.kind)

    @classmethod
    def open_durable(
        cls,
        path,
        fsync_every: int = 1,
        fs: Any = None,
    ):
        """:meth:`open` + :meth:`enable_wal` under ``<path>/wal``.

        The one-call way to get a crash-safe serving store: every
        subsequent ingest is WAL-logged, every :meth:`save` commits
        atomically and retires covered logs.
        """
        store = cls.open(path, fs=fs)
        store.enable_wal(
            os.path.join(str(path), "wal"), fsync_every=fsync_every, fs=fs
        )
        return store

    @classmethod
    def recover(cls, path, fs: Any = None):
        """Crash recovery: quarantine damage, replay, re-commit.

        Kind-generic — the manifest names the kind, so recovering a
        cube directory through ``SegmentStore.recover`` (or the CLI)
        just works.  Returns ``(store, report)`` — see
        :func:`~repro.store.persistence.recover_store`.
        """
        from .persistence import recover_store

        return recover_store(path, fs=fs)

    @staticmethod
    def verify(path, fs: Any = None) -> Dict[str, Any]:
        """Read-only, kind-generic audit of a store directory
        (:func:`~repro.store.persistence.verify_store`)."""
        from .persistence import verify_store

        return verify_store(path, fs=fs)
