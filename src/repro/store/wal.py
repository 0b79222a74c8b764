"""Write-ahead ingest log for :class:`~repro.store.store.SegmentStore`.

The store's segments are sealed (written to disk) only at snapshot
time, so without a log every record ingested since the last
:meth:`~repro.store.store.SegmentStore.save` dies with the process.
The WAL closes that window: with a log attached
(:meth:`~repro.store.store.SegmentStore.enable_wal`), every ingest
batch is appended — and, per the fsync policy, made durable — *before*
it is applied to the in-memory store.  Recovery then replays the log
tail on top of the latest committed snapshot and reconverges to the
exact pre-crash state (ingest is deterministic given the batch).

On-disk format
--------------

A WAL is a directory of append-only files, ``wal-<NNNNNN>.log``.  Each
writer instance appends to a *fresh* file (ids increase monotonically),
so a torn tail from a previous crash is never appended after.  The
framing::

    file header: b"RWAL" | u8 version (1)
    per record:  u32 body_len | u32 crc32(body) | body

``body`` is the compact JSON of one ingest batch::

    {"seq": N, "records": [...], "keys": [...], "weights": [...] | null}

``seq`` is the store's monotonic ingest sequence number; the snapshot
manifest records the last sequence it covers (``wal_seq``), so replay
skips frames a snapshot already includes.  Record values must be
JSON-compatible — the same constraint the codec stack already places on
summary state.

Torn tails
----------

:func:`scan_wal` never raises on a damaged log: it returns every frame
up to the first violation (truncated header, short body, CRC mismatch,
malformed JSON, non-monotonic ``seq``) plus the byte offset where the
good prefix ends and the reason.  Whether the damaged tail is a hard
error (strict :meth:`~repro.store.store.SegmentStore.open`) or gets
quarantined with a report (:func:`~repro.store.persistence.recover_store`)
is the caller's policy, never silently decided here.

Durability knobs
----------------

``fsync_every=1`` (the default) fsyncs after every append: an ingest
that returned is durable.  ``fsync_every=N`` batches N appends per
fsync — ~Nx cheaper, and a crash loses at most the last N-1 batches
but never yields an inconsistent state (a prefix of batches is always
recovered).  ``fsync_every=0`` leaves fsync entirely to explicit
:meth:`WriteAheadLog.sync` / :meth:`WriteAheadLog.close` calls.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence

from ..core.exceptions import SerializationError
from ..core.fsio import Filesystem, REAL_FS

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "wal_files",
]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_HEADER_LEN = len(WAL_MAGIC) + 1
_U8 = struct.Struct("!B")
_FRAME = struct.Struct("!II")  # body_len, crc32(body)
_FILE_RE = re.compile(r"^wal-(\d{6})\.log$")


@dataclass(frozen=True)
class WalRecord:
    """One logged ingest batch, exactly as :meth:`SegmentStore.ingest` saw it."""

    seq: int
    records: List[Mapping[str, Any]]
    keys: List[float]
    weights: Optional[List[int]] = None


@dataclass
class WalScan:
    """Result of scanning one WAL file (never raised, always reported).

    ``records`` is the good prefix.  ``error`` is ``None`` for a clean
    file; otherwise the reason the scan stopped, with ``good_bytes``
    marking where the valid prefix ends (everything past it is the
    damaged tail a recovery quarantines).
    """

    path: str
    records: List[WalRecord] = field(default_factory=list)
    good_bytes: int = 0
    total_bytes: int = 0
    error: Optional[str] = None

    @property
    def torn(self) -> bool:
        return self.error is not None

    @property
    def last_seq(self) -> int:
        """Highest sequence in the good prefix (0 when empty)."""
        return self.records[-1].seq if self.records else 0


def _encode_frame(record: WalRecord) -> bytes:
    body = {
        "seq": record.seq,
        "records": record.records,
        "keys": record.keys,
        "weights": record.weights,
    }
    try:
        raw = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"WAL records must be JSON-compatible: {exc}"
        ) from exc
    return _FRAME.pack(len(raw), zlib.crc32(raw) & 0xFFFFFFFF) + raw


def wal_files(directory: str, fs: Optional[Filesystem] = None) -> List[str]:
    """Paths of every WAL file under ``directory``, in id (append) order."""
    fs = fs or REAL_FS
    if not fs.exists(directory):
        return []
    names = sorted(name for name in fs.listdir(directory) if _FILE_RE.match(name))
    return [os.path.join(directory, name) for name in names]


def scan_wal(path: str, fs: Optional[Filesystem] = None) -> WalScan:
    """Parse one WAL file, stopping (not raising) at the first damage."""
    fs = fs or REAL_FS
    try:
        blob = fs.read_bytes(path)
    except OSError as exc:
        return WalScan(path=path, error=f"cannot read WAL file: {exc}")
    scan = WalScan(path=path, total_bytes=len(blob))
    if len(blob) < _HEADER_LEN or not blob.startswith(WAL_MAGIC):
        scan.error = "missing or truncated WAL header"
        return scan
    (version,) = _U8.unpack_from(blob, len(WAL_MAGIC))
    if version != WAL_VERSION:
        scan.error = f"unsupported WAL version {version}"
        return scan
    offset = _HEADER_LEN
    scan.good_bytes = offset
    last_seq = 0
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            scan.error = "truncated frame header"
            return scan
        body_len, crc = _FRAME.unpack_from(blob, offset)
        body_start = offset + _FRAME.size
        body = blob[body_start : body_start + body_len]
        if len(body) != body_len:
            scan.error = "truncated frame body"
            return scan
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            scan.error = "frame CRC mismatch"
            return scan
        try:
            payload = json.loads(body.decode("utf-8"))
            seq = int(payload["seq"])
            record = WalRecord(
                seq=seq,
                records=list(payload["records"]),
                keys=[float(k) for k in payload["keys"]],
                weights=(
                    None
                    if payload.get("weights") is None
                    else [int(w) for w in payload["weights"]]
                ),
            )
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
                ValueError, OverflowError) as exc:
            scan.error = f"malformed frame body: {exc!r}"
            return scan
        if seq <= last_seq:
            scan.error = (
                f"non-monotonic sequence {seq} after {last_seq}"
            )
            return scan
        last_seq = seq
        scan.records.append(record)
        offset = body_start + body_len
        scan.good_bytes = offset
    return scan


class WriteAheadLog:
    """Appender for a store's WAL directory.

    Each instance writes one fresh ``wal-<id>.log`` (created lazily on
    the first append, so an idle writer leaves no file behind).
    ``fsync_every`` is the batching policy described in the module
    docstring.  :meth:`retire` is called after a durable snapshot to
    delete files the snapshot fully covers.
    """

    def __init__(
        self,
        directory: str,
        fs: Optional[Filesystem] = None,
        fsync_every: int = 1,
    ) -> None:
        if fsync_every < 0:
            raise SerializationError(
                f"fsync_every must be >= 0, got {fsync_every}"
            )
        self.directory = str(directory)
        self.fsync_every = int(fsync_every)
        self._fs = fs or REAL_FS
        self._fs.makedirs(self.directory)
        self._next_file_id = self._scan_next_file_id()
        self._handle = None
        self._path: Optional[str] = None
        self._dir_synced = True
        self._pending = 0
        self._last_seq = 0
        self._records_logged = 0

    def _scan_next_file_id(self) -> int:
        highest = 0
        for name in self._fs.listdir(self.directory):
            match = _FILE_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    @property
    def path(self) -> Optional[str]:
        """The active file, or ``None`` before the first append."""
        return self._path

    @property
    def last_seq(self) -> int:
        """Highest sequence this writer has appended (0 when none)."""
        return self._last_seq

    @property
    def records_logged(self) -> int:
        return self._records_logged

    @property
    def pending(self) -> int:
        """Appends since the last fsync (lost-on-crash upper bound)."""
        return self._pending

    def _open_fresh(self) -> None:
        self._path = os.path.join(
            self.directory, f"wal-{self._next_file_id:06d}.log"
        )
        self._next_file_id += 1
        self._handle = self._fs.open_write(self._path)
        self._fs.write(self._handle, WAL_MAGIC + _U8.pack(WAL_VERSION))
        self._dir_synced = False

    def append(
        self,
        seq: int,
        records: Sequence[Mapping[str, Any]],
        keys: Sequence[float],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        """Log one ingest batch; durable per the fsync policy on return."""
        if seq <= self._last_seq:
            raise SerializationError(
                f"WAL sequence must be monotonic: got {seq} after "
                f"{self._last_seq}"
            )
        frame = _encode_frame(
            WalRecord(
                seq=seq,
                records=list(records),
                keys=[float(k) for k in keys],
                weights=None if weights is None else [int(w) for w in weights],
            )
        )
        if self._handle is None:
            self._open_fresh()
        self._fs.write(self._handle, frame)
        self._last_seq = seq
        self._records_logged += 1
        self._pending += 1
        if self.fsync_every and self._pending >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Force the log durable: fsync the file (and, once, its dirent)."""
        if self._handle is None:
            return
        self._fs.fsync(self._handle)
        self._pending = 0
        if not self._dir_synced:
            self._fs.fsync_dir(self.directory)
            self._dir_synced = True

    def close(self) -> None:
        """Sync and close the active file (a later append starts a new one)."""
        if self._handle is None:
            return
        self.sync()
        self._fs.close(self._handle)
        self._handle = None
        self._path = None

    def retire(self, upto_seq: int) -> int:
        """Delete WAL files fully covered by a durable snapshot.

        A file is retired only when it parses *cleanly* and every frame
        has ``seq <= upto_seq`` — a torn file is left for
        :func:`~repro.store.persistence.recover_store` to quarantine,
        never silently dropped here.  Returns the number of files
        removed.  Post-commit cleanup: crashing mid-retire just leaves
        files whose frames the next recovery skips by sequence.
        """
        active = self._path
        if active is not None and self._last_seq <= upto_seq:
            self.close()
        removed = 0
        for path in wal_files(self.directory, self._fs):
            if path == self._path:
                continue
            scan = scan_wal(path, self._fs)
            if scan.torn or scan.last_seq > upto_seq:
                continue
            self._fs.remove(path)
            removed += 1
        if removed:
            self._fs.fsync_dir(self.directory)
        return removed
