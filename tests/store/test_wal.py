"""Unit tests for the write-ahead ingest log (framing, policies, retire)."""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from pathlib import Path

import pytest

import repro.store.wal as wal_module
from repro.core import ParameterError, SerializationError
from repro.core.fsio import RealFilesystem
from repro.store import CubeStore, SegmentStore, WriteAheadLog, scan_wal, wal_files


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_append_scan_round_trip(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append(1, [{"v": 1}, {"v": 2}], [0.0, 1.5], [3, 4])
    wal.append(2, [{"v": 9}], [2.0], None)
    wal.close()
    scan = scan_wal(wal_files(tmp_path)[0])
    assert not scan.torn
    assert scan.good_bytes == scan.total_bytes
    assert [r.seq for r in scan.records] == [1, 2]
    assert scan.records[0].records == [{"v": 1}, {"v": 2}]
    assert scan.records[0].keys == [0.0, 1.5]
    assert scan.records[0].weights == [3, 4]
    assert scan.records[1].weights is None
    assert scan.last_seq == 2


def test_each_writer_gets_a_fresh_file(tmp_path):
    first = WriteAheadLog(tmp_path)
    first.append(1, [{"v": 1}], [0.0])
    first.close()
    second = WriteAheadLog(tmp_path)
    second.append(2, [{"v": 2}], [1.0])
    second.close()
    files = wal_files(tmp_path)
    assert len(files) == 2
    assert [os.path.basename(f) for f in files] == [
        "wal-000001.log",
        "wal-000002.log",
    ]
    assert scan_wal(files[0]).last_seq == 1
    assert scan_wal(files[1]).last_seq == 2


def test_idle_writer_leaves_no_file(tmp_path):
    WriteAheadLog(tmp_path).close()
    assert wal_files(tmp_path) == []


def test_fsync_batching_policy(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync_every=3)
    wal.append(1, [{"v": 1}], [0.0])
    wal.append(2, [{"v": 2}], [1.0])
    assert wal.pending == 2
    wal.append(3, [{"v": 3}], [2.0])
    assert wal.pending == 0  # third append crossed the batch boundary
    manual = WriteAheadLog(tmp_path, fsync_every=0)
    manual.append(4, [{"v": 4}], [3.0])
    assert manual.pending == 1
    manual.sync()
    assert manual.pending == 0
    with pytest.raises(SerializationError, match="fsync_every"):
        WriteAheadLog(tmp_path, fsync_every=-1)


def test_sequence_must_be_monotonic(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append(5, [{"v": 1}], [0.0])
    with pytest.raises(SerializationError, match="monotonic"):
        wal.append(5, [{"v": 2}], [1.0])
    with pytest.raises(SerializationError, match="monotonic"):
        wal.append(4, [{"v": 2}], [1.0])


def test_records_must_be_json_compatible(tmp_path):
    wal = WriteAheadLog(tmp_path)
    with pytest.raises(SerializationError, match="JSON"):
        wal.append(1, [{"v": object()}], [0.0])


class TestScanDamage:
    def _wal_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, [{"v": 1}], [0.0])
        wal.append(2, [{"v": 2}], [1.0])
        wal.close()
        return Path(wal_files(tmp_path)[0])

    def test_missing_file(self, tmp_path):
        scan = scan_wal(tmp_path / "wal-000009.log")
        assert scan.torn and "cannot read" in scan.error

    def test_bad_magic(self, tmp_path):
        path = self._wal_file(tmp_path)
        data = bytearray(_read(path))
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        assert "header" in scan_wal(path).error

    def test_unsupported_version(self, tmp_path):
        path = self._wal_file(tmp_path)
        data = bytearray(_read(path))
        data[4] = 99
        path.write_bytes(bytes(data))
        assert "version" in scan_wal(path).error

    def test_crc_flip_stops_scan_at_good_prefix(self, tmp_path):
        path = self._wal_file(tmp_path)
        data = bytearray(_read(path))
        data[-1] ^= 0x01  # inside the second frame's body
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.torn and "CRC" in scan.error
        assert [r.seq for r in scan.records] == [1]
        assert 0 < scan.good_bytes < scan.total_bytes

    def test_truncated_frame_header_and_body(self, tmp_path):
        path = self._wal_file(tmp_path)
        data = _read(path)
        path.write_bytes(data[: 5 + 3])  # mid frame header
        assert "truncated frame header" in scan_wal(path).error
        path.write_bytes(data[: 5 + 10])  # mid body
        assert "truncated frame body" in scan_wal(path).error

    def test_non_monotonic_sequence(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        body = b'{"keys":[0.0],"records":[{"v":1}],"seq":1,"weights":null}'
        frame = struct.pack("!II", len(body), zlib.crc32(body)) + body
        path.write_bytes(b"RWAL\x01" + frame + frame)  # seq 1 twice
        scan = scan_wal(path)
        assert scan.torn and "non-monotonic" in scan.error
        assert [r.seq for r in scan.records] == [1]

    @pytest.mark.parametrize(
        "bad",
        [
            b'{"keys":[1.0],"records":[{"v":2}],"seq":1e400,"weights":null}',
            b'{"keys":[1.0],"records":[{"v":2}],"seq":2,"weights":[1e400]}',
        ],
        ids=["seq", "weights"],
    )
    def test_overflowing_number_stops_scan_at_good_prefix(self, tmp_path, bad):
        # JSON reads 1e400 as inf, and int(inf) overflows
        path = tmp_path / "wal-000001.log"
        good = b'{"keys":[0.0],"records":[{"v":1}],"seq":1,"weights":null}'
        frames = b"".join(
            struct.pack("!II", len(body), zlib.crc32(body)) + body
            for body in (good, bad)
        )
        path.write_bytes(b"RWAL\x01" + frames)
        scan = scan_wal(path)
        assert scan.torn and "malformed frame body" in scan.error
        assert [r.seq for r in scan.records] == [1]
        assert scan.good_bytes == 5 + 8 + len(good)

    def test_deeply_nested_body_stops_scan_at_good_prefix(self, tmp_path):
        # CRC-valid, but deeper than the JSON parser's stack
        path = tmp_path / "wal-000001.log"
        good = b'{"keys":[0.0],"records":[{"v":1}],"seq":1,"weights":null}'
        frames = b"".join(
            struct.pack("!II", len(body), zlib.crc32(body)) + body
            for body in (good, b"[" * 100_000)
        )
        path.write_bytes(b"RWAL\x01" + frames)
        scan = scan_wal(path)
        assert scan.torn and "malformed frame body" in scan.error
        assert [r.seq for r in scan.records] == [1]
        assert scan.good_bytes == 5 + 8 + len(good)


def test_retire_removes_only_clean_covered_files(tmp_path):
    first = WriteAheadLog(tmp_path)
    first.append(1, [{"v": 1}], [0.0])
    first.close()
    second = WriteAheadLog(tmp_path)
    second.append(2, [{"v": 2}], [1.0])
    second.close()
    torn = tmp_path / "wal-000000.log"  # sorts first, damaged
    torn.write_bytes(b"RWAL\x01" + b"\x00\x00")
    wal = WriteAheadLog(tmp_path)
    assert wal.retire(1) == 1  # only wal-000001 is clean AND covered
    names = {os.path.basename(f) for f in wal_files(tmp_path)}
    assert names == {"wal-000000.log", "wal-000002.log"}
    assert wal.retire(2) == 1
    assert {os.path.basename(f) for f in wal_files(tmp_path)} == {
        "wal-000000.log"
    }


def test_retire_spares_the_active_file_with_newer_records(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append(1, [{"v": 1}], [0.0])
    wal.append(2, [{"v": 2}], [1.0])
    assert wal.retire(1) == 0  # active file holds seq 2 > 1
    assert len(wal_files(tmp_path)) == 1
    wal.append(3, [{"v": 3}], [2.0])  # still appendable
    wal.close()
    assert scan_wal(wal_files(tmp_path)[0]).last_seq == 3


class _FullDisk(RealFilesystem):
    """Stores half of one armed write, then raises ENOSPC."""

    armed = False

    def write(self, handle, data: bytes) -> None:
        if not self.armed:
            return super().write(handle, data)
        self.armed = False
        super().write(handle, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _count_scans(monkeypatch):
    scanned = []

    def counting_scan(path, fs=None):
        scanned.append(os.path.basename(path))
        return scan_wal(path, fs)

    monkeypatch.setattr(wal_module, "scan_wal", counting_scan)
    return scanned


def test_failed_append_leaves_later_batches_recoverable(tmp_path):
    path = str(tmp_path / "db")
    fs = _FullDisk()
    store = SegmentStore(width=1.0)
    store.add_member("lat", "exact_quantiles")
    store.save(path)
    store.enable_wal(os.path.join(path, "wal"), fsync_every=1, fs=fs)
    store.ingest([{"lat": 1.0}, {"lat": 2.0}, {"lat": 3.0}], keys=[0.0, 1.0, 2.0])
    fs.armed = True
    with pytest.raises(OSError):
        store.ingest([{"lat": 9.0}, {"lat": 9.5}], keys=[0.0, 1.0])
    store.ingest([{"lat": 4.0}, {"lat": 5.0}, {"lat": 6.0}], keys=[1.0, 2.0, 3.0])
    assert store.records == 6
    files = wal_files(os.path.join(path, "wal"))
    assert [scan_wal(f).torn for f in files] == [True, False]
    with pytest.raises(SerializationError, match="damaged WAL"):
        SegmentStore.open(path)  # strict open still refuses the torn file
    recovered, report = SegmentStore.recover(path)
    assert report.records_recovered == 6
    assert recovered.records == 6
    assert recovered.fingerprint() == store.fingerprint()


def test_failed_append_uses_up_its_seq(tmp_path):
    fs = _FullDisk()
    wal = WriteAheadLog(tmp_path, fs=fs)
    wal.append(1, [{"v": 1}], [0.0])
    fs.armed = True
    with pytest.raises(OSError):
        wal.append(2, [{"v": 2}], [1.0])
    assert wal.last_seq == 2 and wal.path is None
    with pytest.raises(SerializationError, match="monotonic"):
        wal.append(2, [{"v": 3}], [2.0])
    wal.append(3, [{"v": 3}], [2.0])
    wal.close()
    scans = [scan_wal(f) for f in wal_files(tmp_path)]
    assert [[r.seq for r in scan.records] for scan in scans] == [[1], [3]]


def test_retire_deletes_own_closed_files_without_reading_them(
    tmp_path, monkeypatch
):
    scanned = _count_scans(monkeypatch)
    foreign = tmp_path / "wal-000000.log"  # another writer's, torn
    foreign.write_bytes(b"RWAL\x01" + b"\x00\x00")
    fs = _FullDisk()
    wal = WriteAheadLog(tmp_path, fs=fs)
    wal.append(1, [{"v": 1}], [0.0])
    fs.armed = True
    with pytest.raises(OSError):
        wal.append(2, [{"v": 2}], [1.0])  # abandons wal-000001, torn
    wal.append(3, [{"v": 3}], [2.0])
    wal.close()  # wal-000002, closed cleanly
    wal.append(4, [{"v": 4}], [3.0])
    wal.close()  # wal-000003, closed cleanly
    assert wal.retire(3) == 1
    assert scanned == ["wal-000000.log", "wal-000001.log"]
    assert [os.path.basename(f) for f in wal_files(tmp_path)] == [
        "wal-000000.log",
        "wal-000001.log",
        "wal-000003.log",
    ]
    assert wal.retire(4) == 1
    assert [os.path.basename(f) for f in wal_files(tmp_path)] == [
        "wal-000000.log",
        "wal-000001.log",
    ]


@pytest.mark.parametrize(
    "kind, bad",
    [
        ("store", {"lat": "abc"}),
        ("cube", {"region": "eu", "lat": "abc"}),
        ("cube", {"lat": 4.0}),
    ],
    ids=["store-rejected-value", "cube-rejected-value", "cube-missing-dimension"],
)
def test_rejected_batch_is_neither_applied_nor_logged(tmp_path, kind, bad):
    path = str(tmp_path / "db")
    if kind == "cube":
        store, tag = CubeStore(width=1.0, dims=("region",)), {"region": "eu"}
    else:
        store, tag = SegmentStore(width=1.0), {}
    store.add_member("lat", "exact_quantiles")
    store.save(path)
    store.enable_wal(os.path.join(path, "wal"))
    store.ingest([{"lat": 1.0, **tag}, {"lat": 2.0, **tag}], keys=[0.0, 1.0])
    before = (store.fingerprint(), store.records, store.generation, store.wal_seq)
    # the good record's cell comes first: a partial apply would replace it
    with pytest.raises(ValueError):
        store.ingest([{"lat": 3.0, **tag}, bad], keys=[0.0, 1.0])
    after = (store.fingerprint(), store.records, store.generation, store.wal_seq)
    assert after == before
    store.wal.close()
    assert type(store).open(path).fingerprint() == before[0]


# ---------------------------------------------------------------------------
# One batch check for ingest and for every WAL frame
# ---------------------------------------------------------------------------


def _frame(body):
    raw = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return struct.pack("!II", len(raw), zlib.crc32(raw)) + raw


def _saved_with_frames(tmp_path, kind, bad):
    """A saved empty store, and a WAL of one good frame then ``bad``
    (``seq`` 2), both with valid CRCs."""
    path = str(tmp_path / "db")
    if kind == "cube":
        store, tag = CubeStore(width=1.0, dims=("region",)), {"region": "eu"}
    else:
        store, tag = SegmentStore(width=1.0), {}
    store.add_member("lat", "exact_quantiles")
    store.save(path)
    good = {"seq": 1, "records": [{"lat": 1.0, **tag}], "keys": [0.0], "weights": None}
    os.makedirs(os.path.join(path, "wal"))
    with open(os.path.join(path, "wal", "wal-000001.log"), "wb") as handle:
        handle.write(b"RWAL\x01" + _frame(good) + _frame({"seq": 2, **bad}))
    return path, type(store)


def _member_n(store):
    return sum(
        segment.members["lat"].n
        for _chain_id, chain in store._chain_index()
        for segment in chain.base.values()
    )


class TestBatchCheck:
    @pytest.mark.parametrize(
        "records", [["ab"], [5], [None], [["v", 1]]], ids=["str", "int", "none", "list"]
    )
    def test_ingest_rejects_records_that_are_not_mappings(self, records):
        store = SegmentStore(width=1.0)
        store.add_member("v", "exact_counter")
        with pytest.raises(ParameterError, match="records must be mappings"):
            store.ingest(records, keys=[0.0])
        assert (store.records, store.generation) == (0, 0)

    @pytest.mark.parametrize(
        "kind, bad",
        [
            ("store", {"records": ["ab"], "keys": [1.0], "weights": None}),
            ("store", {"records": [{"lat": 2.0}, {"lat": 3.0}], "keys": [1.0], "weights": None}),
            ("store", {"records": [5], "keys": [1.0], "weights": None}),
            ("store", {"records": [{"lat": 2.0}], "keys": ["NaN"], "weights": None}),
            ("store", {"records": [{"lat": 2.0}], "keys": [1.0], "weights": [0]}),
            ("cube", {"records": ["ab"], "keys": [1.0], "weights": None}),
        ],
        ids=["str-record", "missing-key", "int-record", "nan-key", "zero-weight", "cube-str-record"],
    )
    def test_frame_that_fails_the_check_is_a_torn_tail(self, tmp_path, kind, bad):
        path, cls = _saved_with_frames(tmp_path, kind, bad)
        report = cls.verify(path)
        assert not report["ok"]
        assert [torn["file"] for torn in report["wal"]["torn"]] == ["wal-000001.log"]
        assert report["wal"]["records"] == 1
        with pytest.raises(SerializationError, match="damaged WAL"):
            cls.open(path)
        store, recovery = cls.recover(path)
        assert len(recovery.wal_quarantined) == 1
        assert recovery.wal_records_replayed == 1
        assert (store.records, _member_n(store)) == (1, 1)
        assert cls.verify(path)["ok"]
        assert (cls.open(path).records, _member_n(cls.open(path))) == (1, 1)

