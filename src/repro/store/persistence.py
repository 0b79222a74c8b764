"""Store persistence: crash-safe snapshots, recovery, and verification.

One container format serves both store kinds — the manifest carries a
``kind`` tag (``"store"`` | ``"cube"``) and a list of per-chain
sub-manifests, one per :class:`~repro.store.chain.EpochChain` the store
owns (the flat store has exactly one; a cube has one per cell chain).
Layout of a store directory::

    manifest.json          # the COMMIT POINT: format, kind, counters,
                           # schema, snapshot generation and id, wal_seq,
                           # and one sub-manifest per chain whose segment
                           # entries name a pack and a byte range in it
    packs/<snapshot>[-<n>].rpak
                           # segment containers back to back, 1 MiB at
                           # most; written once by the save of that
                           # generation
    wal/wal-<n>.log        # write-ahead ingest log (repro.store.wal)
    quarantine/            # damaged bytes recovery refused to drop

The manifest is always JSON (compact, but humans can still debug it);
segment *payloads* go through :mod:`repro.core.codecs`, so a store
saved with ``codec="binary.v1"`` stores compact zlib-packed summaries
while ``json.v2`` keeps everything inspectable — and loading
auto-detects either, because :func:`~repro.core.codecs.decode_summary`
sniffs the payload.  The container framing is deliberately tiny::

    b"RSEG" | u8 version | u32 crc32 | u32 meta_len | meta JSON
    then per member: u16 name_len | name | u32 payload_len | payload

(version 2; the CRC covers every byte after itself, so any flip in the
framing or metadata — not just the codec payloads — is detected.
Version-1 containers, which lacked the CRC field, still load.)  A pack
is nothing but such containers concatenated; the manifest entry of a
segment carries its ``pack``, ``offset`` and ``length``, and a loader
rejects a range that runs past its pack or whose container metadata
(``id``, ``level``, ``start``, ``count``) differs from the entry.

Manifest format 4 is the pack layout.  Formats 1–3 kept one container
file per segment, ``segments/<id>.rseg`` (flat store) or
``cells/<id>.rseg`` (cube), read by :func:`read_segment`; they still
load, and the first save over such a directory writes the whole store
into a pack.  Format 3 is the chain-kernel unification; formats 1 and
2 — the flat store's flat ``segments`` list and the cube's nested
``groups``/``masks`` trees — are adapted into chain sub-manifests by
:func:`_chain_specs`, so stores saved before the refactor open
unchanged.

Commit protocol
---------------

:func:`save` never has a window where a crash loses both the old and
the new state:

1. the containers this save must write are streamed, oldest epoch
   first, into new packs of at most 1 MiB each (``_PACK_BYTES``):
   ``packs/<snapshot>.rpak``, then ``<snapshot>-1.rpak`` and so on,
   each fsynced once, and then the ``packs/`` directory is fsynced
   once.  They are every segment the committed manifest does not
   already hold for this store, plus the raw bytes of every live
   container in a committed pack that also holds a dead one
   (CRC-checked, never re-encoded).  A committed pack whose containers
   are all live is referenced as it stands.  The cap bounds what a
   dead container costs a later save — one pack's live bytes, not the
   store's — and the epoch order keeps what late records replace in the
   newest packs, so a long-lived store does not copy itself forward on
   every save;
2. the new manifest — carrying a monotonic ``snapshot`` generation, a
   random ``snapshot_id`` and the WAL sequence it covers — is published
   with the canonical write-temp / fsync / ``os.replace`` / fsync-dir
   sequence.  This rename is the *only* commit point;
3. only after the manifest is durable are packs it does not reference,
   legacy ``.rseg`` files, and ``.tmp`` leftovers from a crashed
   half-save deleted.

After every save, then, each pack is fully live and disk use equals the
live bytes.  A pack is never written once a manifest may reference it:
new packs take the new generation as their name, one above both the
store's and the directory's committed generation.  A crash before step
2 leaves the old manifest pointing at the old packs, all still present;
a crash after leaves the new snapshot fully committed.  An uncommitted
pack is garbage-collected by the next save or recovery — never loaded.

Segment ids are per-store counters, so another store's manifest can
list the same ids for other data.  A save therefore reuses committed
locations only when the directory's manifest carries the
``snapshot_id`` this store last loaded or committed; otherwise it
writes every segment.

Recovery
--------

:func:`load` (behind :meth:`StoreBase.open`) is *strict*: it loads the
committed snapshot, replays any WAL tail past ``wal_seq``, and raises
:class:`~repro.core.exceptions.SerializationError` on any damage.
:func:`recover_store` is the crash path: same load + replay, but torn
WAL tails are moved into ``quarantine/`` and the bytes of every
checksum-failing segment — its byte range, as far as the pack still
holds it — are copied there (a pack that cannot be read at all is
moved there whole; nothing is silently dropped) with a written
recovery report; the reconverged state is committed as a fresh
snapshot, and fully-replayed WAL files are retired.
:func:`verify_store` is the read-only auditor behind ``repro store
verify``.  All three are kind-generic: the manifest names the kind, so
the CLI (and the :class:`StoreBase` classmethods) need no cube-vs-flat
dispatch.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
import zlib
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.codecs import decode_summary, encode_summary, trailing_checksum
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

_MANIFEST_FORMAT = 4
_ACCEPTED_MANIFEST_FORMATS = (1, 2, 3, 4)
_SEGMENT_MAGIC = b"RSEG"
_SEGMENT_VERSION = 2
_PACK_SUFFIX = ".rpak"
#: a save cuts what it writes into packs of at most this many bytes (a
#: larger container gets a pack of its own), so a dead container makes
#: a later save copy at most one pack's live bytes, however large the
#: store; copying a full pack costs about as much as one more fsync
_PACK_BYTES = 1 << 20
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: ``(manifest entry, source file, error, bytes)`` for a segment that
#: failed to load; ``bytes`` is what the source still holds of it, or
#: ``None`` when the source cannot be read
BadSegmentHook = Callable[[Dict[str, Any], str, SerializationError, Optional[bytes]], None]


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
) -> int:
    """Serialize one segment into a standalone ``.rseg`` container.

    Returns the bytes written.  :func:`save` writes the same container
    bytes into packs; this is the one-file form, for tools and tests.
    """
    fs = fs or REAL_FS
    blob = _segment_blob(segment, codec)
    handle = fs.open_write(str(path))
    try:
        fs.write(handle, blob)
    finally:
        fs.close(handle)
    return len(blob)


def _check_framing(blob: bytes, path: str) -> Tuple[int, int]:
    """Check a container's magic, version and (version 2) CRC.

    Returns ``(version, offset of the metadata length)``; raises
    :class:`~repro.core.exceptions.SerializationError` otherwise.
    """
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
        if (zlib.crc32(memoryview(blob)[offset:]) & 0xFFFFFFFF) != crc:
            raise SerializationError(
                f"{path}: segment container checksum mismatch (torn or "
                "bit-rotted container)"
            )
    return version, offset


def _parse_segment(blob: bytes, path: str) -> Segment:
    _version, offset = _check_framing(blob, path)
    (meta_len,) = _U32.unpack_from(blob, offset)
    offset += 4
    meta_raw = blob[offset : offset + meta_len]
    if len(meta_raw) != meta_len:
        raise SerializationError(f"{path}: truncated segment metadata")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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


def _parse_container(blob: bytes, label: str) -> Segment:
    """:func:`_parse_segment` with every decode failure typed and labelled."""
    try:
        return _parse_segment(blob, label)
    except SerializationError as exc:
        if str(exc).startswith(label):
            raise
        raise SerializationError(f"{label}: {exc}") from exc
    except (
        struct.error,
        UnicodeDecodeError,
        KeyError,
        TypeError,
        ValueError,
        IndexError,
    ) as exc:
        raise SerializationError(
            f"{label}: corrupt segment container ({exc!r})"
        ) from exc


def read_segment(path: str, fs: Optional[Filesystem] = None) -> Segment:
    """Load one standalone ``.rseg`` container (manifest formats 1–3).

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
    return _parse_container(blob, path)


def _crc_intact(blob: bytes) -> bool:
    """True when ``blob`` is a version-2 container whose CRC matches."""
    try:
        return _check_framing(blob, "")[0] == _SEGMENT_VERSION
    except SerializationError:
        return False


# ---------------------------------------------------------------------------
# Paths and manifest helpers
# ---------------------------------------------------------------------------


def _manifest_path(path: str) -> str:
    return os.path.join(str(path), "manifest.json")


def _packs_dir(path: str) -> str:
    return os.path.join(str(path), "packs")


def _pack_path(path: str, pack: Any) -> str:
    """Where a manifest's pack name lives; rejects names that escape ``packs/``."""
    if (
        not isinstance(pack, str)
        or os.path.basename(pack) != pack
        or not pack.endswith(_PACK_SUFFIX)
    ):
        raise SerializationError(f"{path}: malformed store manifest (pack {pack!r})")
    return os.path.join(_packs_dir(path), pack)


def _pack_name(snapshot: int, index: int) -> str:
    """The name of the ``index``-th pack the save of ``snapshot`` writes."""
    suffix = f"-{index}" if index else ""
    return f"{snapshot:06d}{suffix}{_PACK_SUFFIX}"


def _legacy_container(kind: str, segment_id: Any) -> str:
    """Where manifest formats 1–3 kept one segment's ``.rseg`` file,
    relative to the store directory."""
    return os.path.join("cells" if kind == "cube" else "segments", f"{segment_id}.rseg")


def _wal_dir(path: str) -> str:
    return os.path.join(str(path), "wal")


def _quarantine_dir(path: str) -> str:
    return os.path.join(str(path), "quarantine")


def _canonical_manifest(manifest: Dict[str, Any]) -> bytes:
    """The compact, key-sorted JSON a manifest checksum covers."""
    body = {key: value for key, value in manifest.items() if key != "checksum"}
    return json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _manifest_checksum(manifest: Dict[str, Any]) -> int:
    return zlib.crc32(_canonical_manifest(manifest)) & 0xFFFFFFFF


def _stored_checksum_matches(raw: bytes) -> bool:
    """True when ``raw`` is laid out as :func:`save` writes a manifest —
    canonical body, checksum spliced in last — and the CRC over that
    body, as stored, equals the checksum."""
    tail = trailing_checksum(raw)
    if tail is None:
        return False
    end, checksum = tail
    return zlib.crc32(b"}", zlib.crc32(memoryview(raw)[:end])) == checksum


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack
        raise SerializationError(f"{path}: corrupt store manifest") from exc
    if not isinstance(manifest, dict):
        raise SerializationError(f"{path}: corrupt store manifest")
    if manifest.get("format") not in _ACCEPTED_MANIFEST_FORMATS:
        raise SerializationError(
            f"{path}: unsupported store manifest format "
            f"{manifest.get('format')!r}"
        )
    # a format-4 manifest is checked over the bytes read; other layouts
    # (formats 1-3) by re-encoding the parsed body
    if "checksum" in manifest and not _stored_checksum_matches(raw):
        expected = manifest["checksum"]
        actual = _manifest_checksum(manifest)
        if actual != expected:
            raise SerializationError(
                f"{path}: store manifest checksum mismatch (stored "
                f"{expected!r}, computed {actual}); manifest is corrupt"
            )
    return manifest


def _is_packed(manifest: Dict[str, Any]) -> bool:
    """True for a format-4 manifest, whose segments live in packs."""
    return manifest.get("format") == 4


def _encode_chain_id(chain_id: Tuple[Any, ...]) -> List[Any]:
    """Chain id tuple -> its JSON form (tuples become lists)."""
    return [list(part) if isinstance(part, tuple) else part for part in chain_id]


def _decode_chain_id(raw: List[Any]) -> Tuple[Any, ...]:
    return tuple(tuple(part) if isinstance(part, list) else part for part in raw)


def _chain_specs(
    manifest: Dict[str, Any],
) -> Iterator[Tuple[Tuple[Any, ...], int, List[Dict[str, Any]]]]:
    """Yield ``(chain_id, max_level, segment metas)`` for any manifest format.

    Formats 3 and 4 carry chains directly; legacy flat manifests (one
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


def _unreferenced_files(path: str, manifest: Dict[str, Any], fs: Filesystem) -> List[str]:
    """Container files under ``path`` that ``manifest`` does not reference.

    Covers packs, legacy ``.rseg`` files and ``.tmp`` leftovers, as
    paths relative to ``path``, sorted.  Garbage by construction: no
    load ever reads them.
    """
    metas = _manifest_segment_metas(manifest)
    if _is_packed(manifest):
        keep = {os.path.join("packs", meta["pack"]) for meta in metas}
    else:
        kind = manifest.get("kind", "store")
        keep = {_legacy_container(kind, meta["id"]) for meta in metas}
    garbage = []
    for sub, suffix in (("packs", _PACK_SUFFIX), ("segments", ".rseg"), ("cells", ".rseg")):
        directory = os.path.join(path, sub)
        if not fs.exists(directory):
            continue
        for name in fs.listdir(directory):
            rel = os.path.join(sub, name)
            if rel not in keep and (name.endswith(suffix) or name.endswith(".tmp")):
                garbage.append(rel)
    return sorted(garbage)


# ---------------------------------------------------------------------------
# Atomic snapshot save (both kinds)
# ---------------------------------------------------------------------------


#: where a container lives: ``(pack name, offset, length)``
Location = Tuple[str, int, int]


def _committed_locations(
    store: Any, path: str, fs: Filesystem
) -> Tuple[int, Dict[str, Location]]:
    """The directory's committed generation, and where its manifest keeps
    each of this store's segments.

    The locations are this store's to reuse only when the committed
    manifest carries the ``snapshot_id`` the store last loaded or
    committed; otherwise (another store's snapshot, a legacy format, or
    no loadable manifest) there are none.
    """
    try:
        committed = _read_manifest(path, fs)
    except SerializationError:
        return 0, {}
    generation = int(committed.get("snapshot", 0))
    if (
        store._snapshot_id is None
        or committed.get("snapshot_id") != store._snapshot_id
        or not _is_packed(committed)
    ):
        return generation, {}
    return generation, {
        meta["id"]: (meta["pack"], meta["offset"], meta["length"])
        for meta in _manifest_segment_metas(committed)
    }


def _read_or_none(fs: Filesystem, file_path: str) -> Optional[bytes]:
    try:
        return fs.read_bytes(file_path)
    except OSError:
        return None


def _manifest_entry(segment: Segment, location: Location) -> Dict[str, Any]:
    pack, offset, length = location
    return {**segment.meta(), "pack": pack, "offset": offset, "length": length}


def save(store: Any, path: str, fs: Optional[Filesystem] = None) -> Dict[str, int]:
    """Persist any :class:`~repro.store.common.StoreBase` atomically.

    Follows the module-docstring commit protocol: stream the containers
    to write into new packs and fsync each, publish the manifest by
    atomic rename, then garbage-collect.  The store contributes its
    chains (``StoreBase._chain_index``) and kind-specific manifest
    fields (``StoreBase._manifest_extra`` — the cube's dimension names,
    mask lattice, and stale marks); everything else is shared.  Returns
    counters: ``segments`` live in the snapshot (cells, for a cube),
    ``written`` containers encoded this save, ``copied`` containers
    moved byte-for-byte out of packs that also held dead ones, pack
    ``bytes`` written, ``packs`` written, the committed ``snapshot``
    generation, and stale files ``gc``-ed.
    """
    fs = fs or REAL_FS
    path = str(path)
    fs.makedirs(path)
    committed_snapshot, held = _committed_locations(store, path, fs)
    snapshot = max(store._snapshot, committed_snapshot) + 1

    chains = store._chain_index()
    live_segments: List[Segment] = []
    for _chain_id, chain in chains:
        live_segments.extend(chain.segments())

    # sort every live segment into: kept where it is, copied out of a
    # pack that also holds a dead container, or encoded afresh
    live_ids = {segment.segment_id for segment in live_segments}
    dirty = {where[0] for seg_id, where in held.items() if seg_id not in live_ids}
    missing = {
        name
        for name in {where[0] for where in held.values()} - dirty
        if not fs.exists(_pack_path(path, name))
    }
    locations: Dict[str, Location] = {}
    copies: Dict[str, List[Tuple[Segment, Location]]] = {}
    fresh: List[Segment] = []
    for segment in live_segments:
        where = held.get(segment.segment_id)
        if where is None or where[0] in missing:
            fresh.append(segment)
        elif where[0] in dirty:
            copies.setdefault(where[0], []).append((segment, where))
        else:
            locations[segment.segment_id] = where

    # what the new packs hold: the raw bytes of each copied container
    # (None where its range fails the CRC: the in-memory segment is the
    # truth and is encoded again) and the fresh segments, all written
    # oldest epoch first, so packs hold runs of epochs and late records
    # dirty only the newest packs
    pending: List[Tuple[Segment, Optional[bytes]]] = []
    for source, pairs in copies.items():
        data = _read_or_none(fs, _pack_path(path, source)) or b""
        for segment, (_source, offset, length) in pairs:
            blob = data[offset : offset + length]
            pending.append((segment, blob if _crc_intact(blob) else None))
        del data
    pending.extend((segment, None) for segment in fresh)
    pending.sort(key=lambda item: item[0].end)

    written = copied = total = 0
    packs = 0
    if pending:
        packs_dir = _packs_dir(path)
        fs.makedirs(packs_dir)
        handle = None
        size = 0

        def seal() -> None:
            nonlocal handle
            sealing, handle = handle, None
            try:
                fs.fsync(sealing)
            finally:
                fs.close(sealing)

        try:
            for segment, blob in pending:
                if blob is None:
                    blob = _segment_blob(segment, store.codec)
                    written += 1
                else:
                    copied += 1
                if handle is not None and size + len(blob) > _PACK_BYTES:
                    seal()
                if handle is None:
                    pack = _pack_name(snapshot, packs)
                    handle = fs.open_write(_pack_path(path, pack))
                    packs += 1
                    size = 0
                fs.write(handle, blob)
                locations[segment.segment_id] = (pack, size, len(blob))
                size += len(blob)
                total += len(blob)
            seal()
        finally:
            if handle is not None:
                fs.close(handle)
        fs.fsync_dir(packs_dir)

    manifest = {
        "format": _MANIFEST_FORMAT,
        "kind": store.kind,
        "snapshot": snapshot,
        "snapshot_id": secrets.token_hex(8),
        "wal_seq": int(store._wal_seq),
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
                "segments": [
                    _manifest_entry(segment, locations[segment.segment_id])
                    for segment in chain.segments()
                ],
            }
            for chain_id, chain in chains
        ],
    }
    manifest.update(store._manifest_extra())
    # the payload is the canonical JSON its checksum covers, with the
    # checksum spliced in last: a large manifest is serialized once
    canonical = _canonical_manifest(manifest)
    payload = canonical[:-1] + b',"checksum":%d}' % (zlib.crc32(canonical) & 0xFFFFFFFF)
    write_file_durable(fs, _manifest_path(path), payload)  # ← commit point
    store._snapshot = snapshot
    store._snapshot_id = manifest["snapshot_id"]

    # post-commit GC: packs and containers the new manifest does not
    # reference can never be loaded again; deleting them cannot lose a
    # committed state (and a crash here just leaves them for next time)
    garbage = _unreferenced_files(path, manifest, fs)
    for rel in garbage:
        fs.remove(os.path.join(path, rel))
    return {
        "segments": len(live_segments),
        "written": written,
        "copied": copied,
        "bytes": total,
        "packs": packs,
        "snapshot": snapshot,
        "gc": len(garbage),
    }


# ---------------------------------------------------------------------------
# Strict load (StoreBase.open)
# ---------------------------------------------------------------------------


def _carve(data: bytes, meta: Dict[str, Any], pack_path: str) -> Segment:
    """Parse the container a format-4 manifest entry locates in ``data``."""
    offset, length = meta["offset"], meta["length"]
    end = offset + length
    label = f"{pack_path}[{offset}:{end}]"
    if offset < 0 or length <= 0:
        raise SerializationError(f"{label}: segment {meta['id']!r} has no byte range")
    if end > len(data):
        raise SerializationError(
            f"{label}: segment {meta['id']!r} runs past the end of its pack "
            f"({len(data)} bytes)"
        )
    segment = _parse_container(data[offset:end], label)
    found = (segment.segment_id, segment.level, segment.start, segment.count)
    expected = (meta["id"], meta["level"], meta["start"], meta["count"])
    if found != expected:
        raise SerializationError(
            f"{label}: container {found!r} does not match its manifest "
            f"entry {expected!r}"
        )
    return segment


def _read_packed_segments(
    path: str,
    metas: List[Dict[str, Any]],
    fs: Filesystem,
    on_bad_segment: Optional[BadSegmentHook],
) -> Dict[str, Segment]:
    """Every container a format-4 manifest lists, one read per pack.

    Each pack's bytes are dropped as soon as its containers are parsed,
    so a load holds one pack at a time on top of the decoded segments.
    """
    by_pack: Dict[str, List[Dict[str, Any]]] = {}
    for meta in metas:
        by_pack.setdefault(meta["pack"], []).append(meta)
    segments: Dict[str, Segment] = {}
    for pack, entries in by_pack.items():
        pack_path = _pack_path(path, pack)
        try:
            data: Optional[bytes] = fs.read_bytes(pack_path)
        except OSError:
            data = None
        for meta in entries:
            try:
                if data is None:
                    raise SerializationError(f"{pack_path}: cannot read segment pack")
                segments[meta["id"]] = _carve(data, meta, pack_path)
            except SerializationError as exc:
                if on_bad_segment is None:
                    raise
                remains = None
                if data is not None:
                    remains = data[max(0, meta["offset"]) : meta["offset"] + meta["length"]]
                on_bad_segment(meta, pack_path, exc, remains)
        del data
    return segments


def _read_legacy_segments(
    path: str,
    kind: str,
    metas: List[Dict[str, Any]],
    fs: Filesystem,
    on_bad_segment: Optional[BadSegmentHook],
) -> Dict[str, Segment]:
    """Every per-file container a format 1–3 manifest lists."""
    segments: Dict[str, Segment] = {}
    for meta in metas:
        file_path = os.path.join(path, _legacy_container(kind, meta["id"]))
        try:
            segments[meta["id"]] = read_segment(file_path, fs=fs)
        except SerializationError as exc:
            if on_bad_segment is None:
                raise
            on_bad_segment(meta, file_path, exc, _read_or_none(fs, file_path))
    return segments


def _store_from_manifest(
    manifest: Dict[str, Any],
    path: str,
    fs: Filesystem,
    *,
    on_bad_segment: Optional[BadSegmentHook] = None,
) -> Any:
    """Build a store of the manifest's kind from a parsed manifest.

    The one reader of a manifest's segment containers, behind
    :func:`load`, :func:`recover_store` and :func:`verify_store`.
    ``on_bad_segment`` (see :data:`BadSegmentHook`) is called for a
    segment that fails to load, and the segment is skipped; without it
    the error propagates (strict).  A manifest field that is missing or
    has the wrong type raises
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
        specs = list(_chain_specs(manifest))
        metas = [meta for _id, _level, chain_metas in specs for meta in chain_metas]
        if _is_packed(manifest):
            loaded = _read_packed_segments(path, metas, fs, on_bad_segment)
        else:
            loaded = _read_legacy_segments(path, kind, metas, fs, on_bad_segment)
        for chain_id, max_level, chain_metas in specs:
            chain = EpochChain()
            for meta in chain_metas:
                segment = loaded.get(meta["id"])
                if segment is None:
                    continue  # reported through on_bad_segment
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
        store._snapshot_id = manifest.get("snapshot_id")
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
    #: ``[{"id": ..., "file": ..., "reason": ...}]`` copied under
    #: ``quarantine/`` (packed segments also name ``pack``/``offset``/``length``)
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


def _quarantine_target(path: str, name: str, fs: Filesystem) -> str:
    """A fresh path under ``quarantine/`` for ``name`` (created on demand)."""
    qdir = _quarantine_dir(path)
    fs.makedirs(qdir)
    base = os.path.basename(name)
    target = os.path.join(qdir, base)
    suffix = 0
    while fs.exists(target):
        suffix += 1
        target = os.path.join(qdir, f"{base}.{suffix}")
    return target


def _quarantine_file(path: str, file_path: str, fs: Filesystem) -> str:
    """Move a damaged file under ``quarantine/``; returns the new path."""
    target = _quarantine_target(path, file_path, fs)
    fs.replace(file_path, target)
    fs.fsync_dir(_quarantine_dir(path))
    return target


def recover_store(path: str, fs: Optional[Filesystem] = None):
    """Crash recovery: load, quarantine damage, replay, re-commit.

    Kind-generic (works on flat store and cube directories alike; the
    manifest names the kind).  Returns ``(store, report)``.  The
    recovered state is committed as a fresh snapshot before returning,
    so recovery is idempotent: running it again finds a clean store and
    changes nothing.  Damaged bytes are set aside in ``quarantine/`` —
    with a ``recovery-<snapshot>.json`` report beside them — never
    deleted: a torn WAL file is moved there, a damaged segment's byte
    range is copied there (its pack is only deleted by the post-commit
    GC, once the new manifest no longer references it), and a pack or
    legacy file that cannot be read at all is moved there whole, so a
    post-mortem can still inspect exactly what the crash tore.
    """
    fs = fs or REAL_FS
    path = str(path)
    report = RecoveryReport(path=path)
    manifest = _read_manifest(path, fs)  # unrecoverable without a commit point

    moved: Dict[str, str] = {}

    def quarantine_segment(meta, source, error, data):
        target = None
        if data is not None:
            target = _quarantine_target(path, f"{meta.get('id')}.rseg", fs)
            write_file_durable(fs, target, data)
        elif source in moved:
            target = moved[source]
        elif fs.exists(source):
            # unreadable, so every segment in it fails and nothing live
            # points at it: move it whole, before the save's GC would
            # delete it
            target = moved[source] = _quarantine_file(path, source, fs)
        entry = {
            "id": meta.get("id"),
            "file": target or source,
            "level": meta.get("level"),
            "start": meta.get("start"),
            "reason": str(error),
        }
        if "pack" in meta:
            entry.update(
                pack=meta["pack"], offset=meta.get("offset"), length=meta.get("length")
            )
        report.segments_quarantined.append(entry)

    store = _store_from_manifest(
        manifest, path, fs, on_bad_segment=quarantine_segment
    )
    report.snapshot_loaded = store.snapshot

    # uncommitted packs, staging leftovers and orphaned containers:
    # garbage from a crashed half-save, never referenced by the commit
    # point
    for rel in _unreferenced_files(path, manifest, fs):
        fs.remove(os.path.join(path, rel))
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

    def record_bad_segment(meta, source, error, _data):
        if fs.exists(source):
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

    referenced = _manifest_segment_metas(manifest)
    seg_report["referenced"] = len(referenced)
    seg_report["ok"] = (
        len(referenced) - len(seg_report["corrupt"]) - len(seg_report["missing"])
    )
    report["segments"] = seg_report

    orphans = _unreferenced_files(path, manifest, fs)
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
