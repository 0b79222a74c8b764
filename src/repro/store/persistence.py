"""Store persistence: crash-safe snapshots, recovery, and verification.

One container format serves both store kinds — the manifest carries a
``kind`` tag (``"store"`` | ``"cube"``) and a list of per-chain
sub-manifests, one per :class:`~repro.store.chain.EpochChain` the store
owns (the flat store has exactly one; a cube has one per cell chain).
Layout of a store directory::

    manifest.json          # the COMMIT POINT: format, kind, counters,
                           # schema, snapshot generation, wal_seq, and
                           # one sub-manifest per chain
    segments/<id>.rseg     # flat store: one container per live segment
    cells/<id>.rseg        # cube: one container per live cell
    wal/wal-<n>.log        # write-ahead ingest log (repro.store.wal)
    quarantine/            # damaged bytes recovery refused to drop

The manifest is always JSON (humans debug it); segment *payloads* go
through :mod:`repro.core.codecs`, so a store saved with
``codec="binary.v1"`` stores compact zlib-packed summaries while
``json.v2`` keeps everything inspectable — and loading auto-detects
either, because :func:`~repro.core.codecs.decode_summary` sniffs the
payload.  The container framing is deliberately tiny::

    b"RSEG" | u8 version | u32 crc32 | u32 meta_len | meta JSON
    then per member: u16 name_len | name | u32 payload_len | payload

(version 2; the CRC covers every byte after itself, so any flip in the
framing or metadata — not just the codec payloads — is detected.
Version-1 containers, which lacked the CRC field, still load.)

Manifest format 3 is the chain-kernel unification; formats 1 and 2 —
the flat store's flat ``segments`` list and the cube's nested
``groups``/``masks`` trees — still load (:func:`_chain_specs` adapts
either shape into chain sub-manifests), so stores saved before the
refactor open unchanged.

Commit protocol
---------------

:func:`save` never has a window where a crash loses both the old and
the new state:

1. every segment not already covered by the *committed* manifest is
   staged as ``<id>.rseg.tmp``, fsynced, renamed into place, and the
   container directory is fsynced (segments are immutable, so files the
   previous snapshot committed are simply kept);
2. the new manifest — carrying a monotonic ``snapshot`` generation and
   the WAL sequence it covers — is published with the canonical
   write-temp / fsync / ``os.replace`` / fsync-dir sequence.  This
   rename is the *only* commit point;
3. only after the manifest is durable are stale segment files (and any
   ``.tmp`` staging leftovers from a crashed half-save) deleted.

A crash before step 2 leaves the old manifest pointing at the old
segments, all still present; a crash after leaves the new snapshot
fully committed.  Uncommitted staging files are garbage-collected by
the next save or recovery — never loaded.

Recovery
--------

:func:`load` (behind :meth:`StoreBase.open`) is *strict*: it loads the
committed snapshot, replays any WAL tail past ``wal_seq``, and raises
:class:`~repro.core.exceptions.SerializationError` on any damage.
:func:`recover_store` is the crash path: same load + replay, but torn
WAL tails and checksum-failing segments are moved into ``quarantine/``
(never silently dropped) with a written recovery report, the
reconverged state is committed as a fresh snapshot, and fully-replayed
WAL files are retired.  :func:`verify_store` is the read-only auditor
behind ``repro store verify``.  All three are kind-generic: the
manifest names the kind, so the CLI (and the :class:`StoreBase`
classmethods) need no cube-vs-flat dispatch.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.codecs import decode_summary, encode_summary
from ..core.exceptions import SerializationError
from ..core.fsio import Filesystem, REAL_FS, write_file_durable
from .chain import EpochChain
from .segment import MemberSpec, Segment
from .wal import WalScan, scan_wal, wal_files

__all__ = [
    "save",
    "load",
    "recover_store",
    "verify_store",
    "write_segment",
    "read_segment",
    "RecoveryReport",
]

_MANIFEST_FORMAT = 3
_ACCEPTED_MANIFEST_FORMATS = (1, 2, 3)
_SEGMENT_MAGIC = b"RSEG"
_SEGMENT_VERSION = 2
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


# ---------------------------------------------------------------------------
# Segment containers
# ---------------------------------------------------------------------------


def _segment_blob(segment: Segment, codec: str) -> bytes:
    chunks: List[bytes] = []
    meta = json.dumps(segment.meta(), sort_keys=True).encode("utf-8")
    chunks.append(_U32.pack(len(meta)))
    chunks.append(meta)
    for name in sorted(segment.members):
        payload = encode_summary(segment.members[name], codec)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        raw_name = name.encode("utf-8")
        chunks.append(_U16.pack(len(raw_name)))
        chunks.append(raw_name)
        chunks.append(_U32.pack(len(payload)))
        chunks.append(payload)
    body = b"".join(chunks)
    return (
        _SEGMENT_MAGIC
        + _U8.pack(_SEGMENT_VERSION)
        + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)
        + body
    )


def write_segment(
    segment: Segment,
    path: str,
    codec: str,
    fs: Optional[Filesystem] = None,
    durable: bool = False,
) -> int:
    """Serialize one segment into an ``.rseg`` container; returns bytes written.

    With ``durable=True`` the container is fsynced before the handle
    closes (what :func:`save` stages through); the plain call keeps the
    historical fire-and-forget behaviour.
    """
    fs = fs or REAL_FS
    blob = _segment_blob(segment, codec)
    handle = fs.open_write(str(path))
    try:
        fs.write(handle, blob)
        if durable:
            fs.fsync(handle)
    finally:
        fs.close(handle)
    return len(blob)


def _parse_segment(blob: bytes, path: str) -> Segment:
    if len(blob) < len(_SEGMENT_MAGIC) + 1 + 4 or not blob.startswith(_SEGMENT_MAGIC):
        raise SerializationError(f"{path}: not a segment container")
    offset = len(_SEGMENT_MAGIC)
    (version,) = _U8.unpack_from(blob, offset)
    offset += 1
    if version not in (1, _SEGMENT_VERSION):
        raise SerializationError(
            f"{path}: unsupported segment container version {version}"
        )
    if version >= 2:
        (crc,) = _U32.unpack_from(blob, offset)
        offset += 4
        if (zlib.crc32(blob[offset:]) & 0xFFFFFFFF) != crc:
            raise SerializationError(
                f"{path}: segment container checksum mismatch (torn or "
                "bit-rotted container)"
            )
    (meta_len,) = _U32.unpack_from(blob, offset)
    offset += 4
    meta_raw = blob[offset : offset + meta_len]
    if len(meta_raw) != meta_len:
        raise SerializationError(f"{path}: truncated segment metadata")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"{path}: corrupt segment metadata") from exc
    if not isinstance(meta, dict):
        raise SerializationError(f"{path}: corrupt segment metadata")
    offset += meta_len
    members = {}
    while offset < len(blob):
        if offset + _U16.size > len(blob):
            raise SerializationError(f"{path}: truncated segment container")
        (name_len,) = _U16.unpack_from(blob, offset)
        offset += 2
        raw_name = blob[offset : offset + name_len]
        if len(raw_name) != name_len:
            raise SerializationError(f"{path}: truncated segment container")
        name = raw_name.decode("utf-8")
        offset += name_len
        if offset + _U32.size > len(blob):
            raise SerializationError(f"{path}: truncated segment container")
        (payload_len,) = _U32.unpack_from(blob, offset)
        offset += 4
        payload = blob[offset : offset + payload_len]
        if len(payload) != payload_len:
            raise SerializationError(f"{path}: truncated segment container")
        offset += payload_len
        members[name] = decode_summary(payload)
    if sorted(members) != meta.get("members"):
        raise SerializationError(
            f"{path}: member payloads do not match the container metadata"
        )
    return Segment(
        segment_id=meta["id"],
        level=int(meta["level"]),
        start=int(meta["start"]),
        count=int(meta["count"]),
        members=members,
    )


def read_segment(path: str, fs: Optional[Filesystem] = None) -> Segment:
    """Load one ``.rseg`` container written by :func:`write_segment`.

    Every decode failure — truncated headers, torn names, checksum
    mismatches, malformed member payloads — surfaces as
    :class:`~repro.core.exceptions.SerializationError` carrying the
    path; raw ``struct.error``/``UnicodeDecodeError`` never escape.
    """
    fs = fs or REAL_FS
    path = str(path)
    try:
        blob = fs.read_bytes(path)
    except OSError as exc:
        raise SerializationError(f"{path}: cannot read segment container") from exc
    try:
        return _parse_segment(blob, path)
    except SerializationError as exc:
        if str(exc).startswith(path):
            raise
        raise SerializationError(f"{path}: {exc}") from exc
    except (
        struct.error,
        UnicodeDecodeError,
        KeyError,
        TypeError,
        ValueError,
        IndexError,
    ) as exc:
        raise SerializationError(
            f"{path}: corrupt segment container ({exc!r})"
        ) from exc


# ---------------------------------------------------------------------------
# Manifest helpers
# ---------------------------------------------------------------------------


def _manifest_path(path: str) -> str:
    return os.path.join(str(path), "manifest.json")


def _segments_dir(path: str) -> str:
    return os.path.join(str(path), "segments")


def _cells_dir(path: str) -> str:
    return os.path.join(str(path), "cells")


def _container_dir(path: str, kind: str) -> str:
    """Where a kind keeps its ``.rseg`` containers."""
    return _cells_dir(path) if kind == "cube" else _segments_dir(path)


def _wal_dir(path: str) -> str:
    return os.path.join(str(path), "wal")


def _quarantine_dir(path: str) -> str:
    return os.path.join(str(path), "quarantine")


def _manifest_checksum(manifest: Dict[str, Any]) -> int:
    body = {key: value for key, value in manifest.items() if key != "checksum"}
    canonical = json.dumps(body, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _read_manifest(path: str, fs: Filesystem) -> Dict[str, Any]:
    manifest_path = _manifest_path(path)
    try:
        raw = fs.read_bytes(manifest_path)
    except FileNotFoundError:
        raise SerializationError(f"{path}: no store manifest found") from None
    except OSError as exc:
        raise SerializationError(f"{path}: cannot read store manifest") from exc
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"{path}: corrupt store manifest") from exc
    if not isinstance(manifest, dict):
        raise SerializationError(f"{path}: corrupt store manifest")
    if manifest.get("format") not in _ACCEPTED_MANIFEST_FORMATS:
        raise SerializationError(
            f"{path}: unsupported store manifest format "
            f"{manifest.get('format')!r}"
        )
    if "checksum" in manifest:
        expected = manifest["checksum"]
        actual = _manifest_checksum(manifest)
        if actual != expected:
            raise SerializationError(
                f"{path}: store manifest checksum mismatch (stored "
                f"{expected!r}, computed {actual}); manifest is corrupt"
            )
    return manifest


def _encode_chain_id(chain_id: Tuple[Any, ...]) -> List[Any]:
    """Chain id tuple -> its JSON form (tuples become lists)."""
    return [list(part) if isinstance(part, tuple) else part for part in chain_id]


def _decode_chain_id(raw: List[Any]) -> Tuple[Any, ...]:
    return tuple(tuple(part) if isinstance(part, list) else part for part in raw)


def _chain_specs(
    manifest: Dict[str, Any],
) -> Iterator[Tuple[Tuple[Any, ...], int, List[Dict[str, Any]]]]:
    """Yield ``(chain_id, max_level, segment metas)`` for any manifest format.

    Format 3 carries chains directly; legacy flat manifests (one
    implicit chain under a top-level ``segments`` list) and legacy cube
    manifests (``groups`` plus nested per-mask ``groups``) are adapted
    to the same shape, which is the whole legacy-load path.
    """
    if "chains" in manifest:
        for entry in manifest["chains"]:
            yield (
                _decode_chain_id(entry["id"]),
                int(entry.get("max_level", 0)),
                entry.get("segments", []),
            )
    elif manifest.get("kind") == "cube":
        for chain in manifest.get("groups", []):
            yield (
                ("g", tuple(chain["key"])),
                int(chain.get("max_level", 0)),
                chain.get("segments", []),
            )
        for mask_entry in manifest.get("masks", []):
            mask = tuple(mask_entry["dims"])
            for chain in mask_entry.get("groups", []):
                yield (
                    ("m", mask, tuple(chain["key"])),
                    int(chain.get("max_level", 0)),
                    chain.get("segments", []),
                )
    else:
        yield (
            ("flat",),
            int(manifest.get("max_level", 0)),
            manifest.get("segments", []),
        )


def _manifest_segment_metas(manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every segment meta the manifest references, across all chains."""
    return [meta for _id, _level, metas in _chain_specs(manifest) for meta in metas]


def _committed_segment_ids(path: str, fs: Filesystem) -> Dict[str, Any]:
    """Ids the durable manifest references (empty when none is loadable)."""
    try:
        manifest = _read_manifest(path, fs)
    except SerializationError:
        return {}
    return {meta["id"]: meta for meta in _manifest_segment_metas(manifest)}


# ---------------------------------------------------------------------------
# Atomic snapshot save (both kinds)
# ---------------------------------------------------------------------------


def save(store: Any, path: str, fs: Optional[Filesystem] = None) -> Dict[str, int]:
    """Persist any :class:`~repro.store.common.StoreBase` atomically.

    Follows the module-docstring commit protocol: stage-and-fsync new
    containers, publish the manifest by atomic rename, then garbage-
    collect.  The store contributes its chains
    (``StoreBase._chain_index``) and kind-specific manifest fields
    (``StoreBase._manifest_extra`` — the cube's dimension names, mask
    lattice, and stale marks); everything else is shared.  Returns
    counters: ``segments`` live in the snapshot (cells, for a cube),
    ``written`` containers actually staged this save (committed files
    are reused — segments are immutable), payload ``bytes`` written,
    the committed ``snapshot`` generation, and stale files ``gc``-ed.
    """
    fs = fs or REAL_FS
    path = str(path)
    seg_dir = _container_dir(path, store.kind)
    fs.makedirs(seg_dir)
    previous = _committed_segment_ids(path, fs)
    prior_snapshot = int(getattr(store, "_snapshot", 0))

    chains = store._chain_index()
    live_segments: List[Segment] = []
    for _chain_id, chain in chains:
        live_segments.extend(chain.segments())

    total = written = 0
    for segment in live_segments:
        final = os.path.join(seg_dir, f"{segment.segment_id}.rseg")
        if segment.segment_id in previous and fs.exists(final):
            continue  # immutable and already durable under the old manifest
        staging = final + ".tmp"
        total += write_segment(segment, staging, store.codec, fs=fs, durable=True)
        fs.replace(staging, final)
        written += 1
    if written:
        fs.fsync_dir(seg_dir)

    manifest = {
        "format": _MANIFEST_FORMAT,
        "kind": store.kind,
        "snapshot": prior_snapshot + 1,
        "wal_seq": int(getattr(store, "_wal_seq", 0)),
        "width": store.width,
        "codec": store.codec,
        "generation": store.generation,
        "records": store.records,
        "next_segment_id": store._next_segment_id,
        "view_capacity": store._views.capacity,
        "schema": {name: spec.to_dict() for name, spec in store.schema.items()},
        "chains": [
            {
                "id": _encode_chain_id(chain_id),
                "max_level": chain.max_level,
                "segments": [segment.meta() for segment in chain.segments()],
            }
            for chain_id, chain in chains
        ],
    }
    manifest.update(store._manifest_extra())
    manifest["checksum"] = _manifest_checksum(manifest)
    payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    write_file_durable(fs, _manifest_path(path), payload)  # ← commit point
    store._snapshot = manifest["snapshot"]

    # post-commit GC: stale containers and staging leftovers are garbage
    # the new manifest can never reference; deleting them cannot lose a
    # committed state (and a crash here just leaves them for next time)
    live = {f"{segment.segment_id}.rseg" for segment in live_segments}
    gc = 0
    for name in fs.listdir(seg_dir):
        if name in live:
            continue
        if name.endswith(".rseg") or name.endswith(".tmp"):
            fs.remove(os.path.join(seg_dir, name))
            gc += 1
    return {
        "segments": len(live_segments),
        "written": written,
        "bytes": total,
        "snapshot": manifest["snapshot"],
        "gc": gc,
    }


# ---------------------------------------------------------------------------
# Strict load (StoreBase.open)
# ---------------------------------------------------------------------------


def _store_from_manifest(
    manifest: Dict[str, Any],
    path: str,
    fs: Filesystem,
    *,
    on_bad_segment: Optional[Any] = None,
) -> Any:
    """Build a store of the manifest's kind from a parsed manifest.

    The one reader of a manifest's segment containers, behind
    :func:`load`, :func:`recover_store` and :func:`verify_store`.
    ``on_bad_segment`` is called with ``(meta, file_path, error)`` for
    a segment that fails to load, and the segment is skipped; without
    it the error propagates (strict).  A manifest field that is missing
    or has the wrong type raises
    :class:`~repro.core.exceptions.SerializationError` too — format-1
    manifests carry no checksum to catch it earlier.
    """
    from .cube import CubeStore
    from .store import SegmentStore

    try:
        kind = manifest.get("kind", "store")
        if kind == "cube":
            store = CubeStore(
                width=manifest["width"],
                dims=manifest["dims"],
                codec=manifest["codec"],
                view_capacity=manifest.get("view_capacity", 8),
            )
        else:
            store = SegmentStore(
                width=manifest["width"],
                codec=manifest["codec"],
                view_capacity=manifest.get("view_capacity", 8),
            )
        for name, spec in manifest["schema"].items():
            store._schema[name] = MemberSpec.from_dict(spec)
        # kind extras (cube masks + stale marks) attach before the chains so
        # mask insertion order matches the manifest's sorted order
        store._apply_manifest_extra(manifest)
        seg_dir = _container_dir(path, kind)
        for chain_id, max_level, metas in _chain_specs(manifest):
            chain = EpochChain()
            for meta in metas:
                file_path = os.path.join(seg_dir, f"{meta['id']}.rseg")
                try:
                    segment = read_segment(file_path, fs=fs)
                except SerializationError as exc:
                    if on_bad_segment is None:
                        raise
                    on_bad_segment(meta, file_path, exc)
                    continue
                if segment.level == 0:
                    chain.base[segment.start] = segment
                else:
                    chain.rollups[(segment.level, segment.start)] = segment
            chain.max_level = max_level
            store._attach_chain(chain_id, chain)
        store._generation = int(manifest.get("generation", 0))
        store._records = int(manifest.get("records", 0))
        store._next_segment_id = int(manifest.get("next_segment_id", 0))
        store._snapshot = int(manifest.get("snapshot", 0))
        store._wal_seq = int(manifest.get("wal_seq", 0))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SerializationError(
            f"{path}: malformed store manifest ({exc!r})"
        ) from exc
    return store


def load(
    path: str,
    fs: Optional[Filesystem] = None,
    expect_kind: Optional[str] = None,
) -> Any:
    """Load a store saved by :func:`save`, replaying the WAL tail.

    Kind-generic: the manifest names the kind, so the caller gets back
    a :class:`SegmentStore` or :class:`CubeStore` as appropriate;
    ``expect_kind`` pins it (what ``SegmentStore.open`` and
    ``CubeStore.open`` pass) and mismatches raise with a pointer at the
    right entry point.  Strict: any damaged segment, manifest, or WAL
    file raises :class:`~repro.core.exceptions.SerializationError`.  A
    torn WAL tail is *expected* after a crash — the error says to run
    ``repro store recover`` (:func:`recover_store`), which quarantines
    the tail instead of refusing to load.
    """
    fs = fs or REAL_FS
    path = str(path)
    manifest = _read_manifest(path, fs)
    kind = manifest.get("kind", "store")
    if expect_kind == "store" and kind == "cube":
        raise SerializationError(
            f"{path}: this directory holds a dimension cube; open it with "
            "CubeStore.open"
        )
    if expect_kind == "cube" and kind != "cube":
        raise SerializationError(
            f"{path}: this directory holds a flat segment store; open it "
            "with SegmentStore.open"
        )
    store = _store_from_manifest(manifest, path, fs)
    for wal_path in wal_files(_wal_dir(path), fs):
        scan = scan_wal(wal_path, fs)
        if scan.torn:
            raise SerializationError(
                f"{wal_path}: damaged WAL ({scan.error}); run "
                f"`repro store recover` to quarantine the torn tail and "
                f"restore the consistent prefix"
            )
        for record in scan.records:
            if record.seq <= store._wal_seq:
                continue
            store._replay_wal(record)
    return store


# ---------------------------------------------------------------------------
# Recovery (quarantine, replay, re-commit)
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What :func:`recover_store` found, replayed, and quarantined."""

    path: str
    snapshot_loaded: int = 0
    snapshot_committed: int = 0
    wal_records_replayed: int = 0
    wal_records_skipped: int = 0
    records_recovered: int = 0
    wal_files_retired: int = 0
    #: ``[{"file": ..., "reason": ...}]`` moved under ``quarantine/``
    wal_quarantined: List[Dict[str, Any]] = dataclass_field(default_factory=list)
    #: ``[{"id": ..., "file": ..., "reason": ...}]`` moved under ``quarantine/``
    segments_quarantined: List[Dict[str, Any]] = dataclass_field(
        default_factory=list
    )
    #: uncommitted staging/orphan files deleted (never user data)
    orphans_removed: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing had to be quarantined."""
        return not self.wal_quarantined and not self.segments_quarantined

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_committed": self.snapshot_committed,
            "wal_records_replayed": self.wal_records_replayed,
            "wal_records_skipped": self.wal_records_skipped,
            "records_recovered": self.records_recovered,
            "wal_files_retired": self.wal_files_retired,
            "wal_quarantined": list(self.wal_quarantined),
            "segments_quarantined": list(self.segments_quarantined),
            "orphans_removed": self.orphans_removed,
            "clean": self.clean,
        }


def _quarantine_file(path: str, file_path: str, fs: Filesystem) -> str:
    """Move a damaged file under ``quarantine/``; returns the new path."""
    qdir = _quarantine_dir(path)
    fs.makedirs(qdir)
    base = os.path.basename(file_path)
    target = os.path.join(qdir, base)
    suffix = 0
    while fs.exists(target):
        suffix += 1
        target = os.path.join(qdir, f"{base}.{suffix}")
    fs.replace(file_path, target)
    fs.fsync_dir(qdir)
    return target


def recover_store(path: str, fs: Optional[Filesystem] = None):
    """Crash recovery: load, quarantine damage, replay, re-commit.

    Kind-generic (works on flat store and cube directories alike; the
    manifest names the kind).  Returns ``(store, report)``.  The
    recovered state is committed as a fresh snapshot before returning,
    so recovery is idempotent: running it again finds a clean store and
    changes nothing.  Damaged bytes are *moved* to ``quarantine/`` —
    with a ``recovery-<snapshot>.json`` report beside them — never
    deleted, so a post-mortem can still inspect exactly what the crash
    tore.
    """
    fs = fs or REAL_FS
    path = str(path)
    report = RecoveryReport(path=path)
    manifest = _read_manifest(path, fs)  # unrecoverable without a commit point

    def quarantine_segment(meta, file_path, error):
        if fs.exists(file_path):
            target = _quarantine_file(path, file_path, fs)
        else:
            target = None
        report.segments_quarantined.append(
            {
                "id": meta.get("id"),
                "file": target or file_path,
                "level": meta.get("level"),
                "start": meta.get("start"),
                "reason": str(error),
            }
        )

    store = _store_from_manifest(
        manifest, path, fs, on_bad_segment=quarantine_segment
    )
    report.snapshot_loaded = store.snapshot

    # uncommitted staging leftovers and orphaned containers: garbage
    # from a crashed half-save, never referenced by the commit point
    seg_dir = _container_dir(path, manifest.get("kind", "store"))
    referenced = {
        f"{meta['id']}.rseg" for meta in _manifest_segment_metas(manifest)
    }
    if fs.exists(seg_dir):
        for name in sorted(fs.listdir(seg_dir)):
            if name in referenced:
                continue
            if name.endswith(".rseg") or name.endswith(".tmp"):
                fs.remove(os.path.join(seg_dir, name))
                report.orphans_removed += 1
    stale_manifest_tmp = _manifest_path(path) + ".tmp"
    if fs.exists(stale_manifest_tmp):
        fs.remove(stale_manifest_tmp)
        report.orphans_removed += 1

    # WAL replay: good prefixes reconverge the store; torn files are
    # quarantined whole (their good frames are already replayed and
    # about to be re-committed in the snapshot below)
    clean_wal: List[WalScan] = []
    for wal_path in wal_files(_wal_dir(path), fs):
        scan = scan_wal(wal_path, fs)
        for record in scan.records:
            if record.seq <= store._wal_seq:
                report.wal_records_skipped += 1
                continue
            store._replay_wal(record)
            report.wal_records_replayed += 1
            report.records_recovered += len(record.records)
        if scan.torn:
            target = _quarantine_file(path, wal_path, fs)
            report.wal_quarantined.append(
                {
                    "file": target,
                    "reason": scan.error,
                    "good_bytes": scan.good_bytes,
                    "total_bytes": scan.total_bytes,
                    "frames_recovered": len(scan.records),
                }
            )
        else:
            clean_wal.append(scan)

    # commit the reconverged state, then retire fully-covered WAL files
    saved = save(store, path, fs=fs)
    report.snapshot_committed = saved["snapshot"]
    for scan in clean_wal:
        if scan.last_seq <= store._wal_seq and fs.exists(scan.path):
            fs.remove(scan.path)
            report.wal_files_retired += 1

    if not report.clean:
        qdir = _quarantine_dir(path)
        fs.makedirs(qdir)
        report_payload = json.dumps(
            report.to_dict(), indent=2, sort_keys=True
        ).encode("utf-8")
        write_file_durable(
            fs,
            os.path.join(qdir, f"recovery-{report.snapshot_committed:06d}.json"),
            report_payload,
        )
    return store, report


# ---------------------------------------------------------------------------
# Read-only verification
# ---------------------------------------------------------------------------


def verify_store(path: str, fs: Optional[Filesystem] = None) -> Dict[str, Any]:
    """Audit a store directory without touching it (kind-generic).

    Returns a JSON-compatible report: manifest status, per-segment
    container health, orphaned files, and WAL frame accounting.  The
    segments are read by the same :func:`_store_from_manifest` a
    strict :func:`load` runs, so a manifest ``load`` rejects is never
    reported ``ok``.  The top-level ``ok`` is True only when a strict
    :func:`load` would succeed and no garbage is lying around.
    """
    fs = fs or REAL_FS
    path = str(path)
    report: Dict[str, Any] = {"path": path, "ok": True}
    seg_report: Dict[str, Any] = {
        "referenced": 0,
        "ok": 0,
        "corrupt": [],
        "missing": [],
    }

    def record_bad_segment(meta, file_path, error):
        if fs.exists(file_path):
            seg_report["corrupt"].append({"id": meta["id"], "reason": str(error)})
        else:
            seg_report["missing"].append(meta["id"])

    try:
        manifest = _read_manifest(path, fs)
        store = _store_from_manifest(
            manifest, path, fs, on_bad_segment=record_bad_segment
        )
    except SerializationError as exc:
        report["manifest"] = str(exc)
        report["ok"] = False
        return report
    report["manifest"] = "ok"
    report["kind"] = store.kind
    report["snapshot"] = store.snapshot
    report["wal_seq"] = store.wal_seq

    referenced = [meta["id"] for meta in _manifest_segment_metas(manifest)]
    seg_report["referenced"] = len(referenced)
    seg_report["ok"] = (
        len(referenced) - len(seg_report["corrupt"]) - len(seg_report["missing"])
    )
    report["segments"] = seg_report

    seg_dir = _container_dir(path, store.kind)
    orphans = []
    if fs.exists(seg_dir):
        live = {f"{seg_id}.rseg" for seg_id in referenced}
        for name in sorted(fs.listdir(seg_dir)):
            if name not in live and (
                name.endswith(".rseg") or name.endswith(".tmp")
            ):
                orphans.append(name)
    if fs.exists(_manifest_path(path) + ".tmp"):
        orphans.append("manifest.json.tmp")
    report["orphans"] = orphans

    wal_report: Dict[str, Any] = {
        "files": 0,
        "records": 0,
        "replayable": 0,
        "torn": [],
    }
    wal_seq = report["wal_seq"]
    for wal_path in wal_files(_wal_dir(path), fs):
        scan = scan_wal(wal_path, fs)
        wal_report["files"] += 1
        wal_report["records"] += len(scan.records)
        wal_report["replayable"] += sum(
            1 for record in scan.records if record.seq > wal_seq
        )
        if scan.torn:
            wal_report["torn"].append(
                {
                    "file": os.path.basename(wal_path),
                    "reason": scan.error,
                    "good_bytes": scan.good_bytes,
                    "total_bytes": scan.total_bytes,
                }
            )
    report["wal"] = wal_report

    report["ok"] = (
        not seg_report["corrupt"]
        and not seg_report["missing"]
        and not wal_report["torn"]
        and not orphans
    )
    return report
