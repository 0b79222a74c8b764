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
so a torn tail from a previous crash is never appended after.  An
append that raises may have left a torn frame, so the writer abandons
that file and its next append opens a fresh one; the failed batch's
``seq`` stays used, so no later batch can share it.  The framing::

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
malformed JSON, a ``seq`` that is not an integer, a batch that fails
:func:`check_batch`, non-monotonic ``seq``) plus the byte offset where the
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

import collections.abc
import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.base import normalize_batch
from ..core.exceptions import ParameterError, SerializationError
from ..core.fsio import Filesystem, REAL_FS

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "check_batch",
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


def check_batch(
    records: Sequence[Any], keys: Sequence[Any], weights: Optional[Sequence[Any]]
) -> Tuple[List[Mapping[str, Any]], List[float], Optional[np.ndarray]]:
    """The one rule for an ingest batch; returns the batch normalized.

    Every record is a mapping, there are as many finite numeric keys
    as records (a string or bytes key is refused, not parsed), and
    ``weights`` is ``None`` or as many positive integers.
    ``StoreBase.ingest`` applies it before it builds or logs a batch,
    and :func:`scan_wal` to every frame, so a frame that passes its CRC
    but not this rule ends the good prefix.  Returns the records as a
    list, the keys as floats and the weights as an ``int64`` array (or
    ``None``); raises :class:`~repro.core.exceptions.ParameterError`.
    """
    if not isinstance(records, list):
        try:
            records = list(records)
        except TypeError:
            raise ParameterError(
                f"records must be a sequence of mappings, got {type(records).__name__}"
            ) from None
    kinds = set(map(type, records))
    kinds.discard(dict)  # the common case, before the abstract test
    for kind in kinds:
        if not issubclass(kind, collections.abc.Mapping):
            raise ParameterError(f"records must be mappings, got {kind.__name__}")
    try:
        keys = list(keys)
        # float() also parses text: "3" and b"3" would pass as the key 3.0
        if any(isinstance(key, (str, bytes, bytearray)) for key in keys):
            raise TypeError
        keys = [float(key) for key in keys]
    except (TypeError, ValueError, OverflowError):
        raise ParameterError("partition keys must be numbers") from None
    try:
        _, weights, _ = normalize_batch(records, weights)
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. ragged nested weights
        raise ParameterError(f"malformed weights: {exc}") from None
    if len(keys) != len(records):
        raise ParameterError(
            f"keys must align with records: got {len(records)} "
            f"record(s) and {len(keys)} key(s)"
        )
    if not all(map(math.isfinite, keys)):
        bad = next(key for key in keys if not math.isfinite(key))
        raise ParameterError(f"partition keys must be finite, got {bad!r}")
    return records, keys, weights


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
            # RecursionError: nesting deeper than the parser's stack;
            # ParameterError (a ValueError): a batch ingest would refuse
            payload = json.loads(body.decode("utf-8"))
            seq = payload["seq"]
            if type(seq) is not int:  # not "3", 4.7 or true
                raise TypeError(f"seq must be an integer, got {seq!r}")
            records, keys, weights = check_batch(
                payload["records"], payload["keys"], payload.get("weights")
            )
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
                ValueError, OverflowError, RecursionError) as exc:
            scan.error = f"malformed frame body: {exc!r}"
            return scan
        record = WalRecord(
            seq=seq,
            records=records,
            keys=keys,
            weights=None if weights is None else weights.tolist(),
        )
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

    Each instance writes fresh ``wal-<id>.log`` files (created lazily on
    the first append, so an idle writer leaves no file behind; a new one
    after :meth:`close` or a failed append).  ``fsync_every`` is the
    batching policy described in the module docstring.  :meth:`retire`
    is called after a durable snapshot to delete files the snapshot
    fully covers.
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
        #: files this writer closed cleanly -> the last seq written there
        self._closed: Dict[str, int] = {}

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

    def _abandon(self) -> None:
        """Stop appending to a file whose last append failed.

        The failed write may have left a torn frame, and a scan stops at
        the first damage, so any frame appended after it would be lost.
        The frames before it are synced if the disk still allows; the
        file is left for :meth:`retire` to scan and for recovery to
        quarantine if it is torn.
        """
        handle, self._handle, self._path = self._handle, None, None
        self._pending = 0
        if handle is None:
            return
        for step in (self._fs.fsync, self._fs.close):
            try:
                step(handle)
            except OSError:
                pass  # best effort: the caller sees the append's own error

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
        # a failed append uses up its seq: its frame may be whole on disk
        self._last_seq = seq
        try:
            if self._handle is None:
                self._open_fresh()
            self._fs.write(self._handle, frame)
            self._records_logged += 1
            self._pending += 1
            if self.fsync_every and self._pending >= self.fsync_every:
                self.sync()
        except BaseException:
            self._abandon()
            raise

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
        self._closed[self._path] = self._last_seq
        self._handle = None
        self._path = None

    def retire(self, upto_seq: int) -> int:
        """Delete WAL files fully covered by a durable snapshot.

        A file is retired only when it parses *cleanly* and every frame
        has ``seq <= upto_seq`` — a torn file is left for
        :func:`~repro.store.persistence.recover_store` to quarantine,
        never silently dropped here.  A file this writer closed cleanly
        is not read again: the writer knows its last seq.  Any other
        file (another writer's, or one this writer abandoned after a
        failed append) is scanned.  Returns the number of files
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
            last_seq = self._closed.get(path)
            if last_seq is None:
                scan = scan_wal(path, self._fs)
                if scan.torn:
                    continue
                last_seq = scan.last_seq
            if last_seq > upto_seq:
                continue
            self._fs.remove(path)
            self._closed.pop(path, None)
            removed += 1
        if removed:
            self._fs.fsync_dir(self.directory)
        return removed
