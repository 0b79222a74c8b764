"""Corruption matrix: every truncation offset, every header bit-flip.

The contract under test: loading a damaged store **succeeds correctly
or raises** :class:`~repro.core.exceptions.SerializationError` —
never returns wrong data, and never lets a raw ``struct.error`` /
``UnicodeDecodeError`` escape.  Swept for every codec the store can
persist with (``json.v1`` / ``json.v2`` / ``binary.v1``), because each
puts different bytes behind the same container framing: standalone
containers, every byte of a pack, manifest ranges that point outside
their pack or at the wrong container, and the manifest itself.
"""

from __future__ import annotations

import errno
import json
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro.core import SerializationError
from repro.core.fsio import RealFilesystem
from repro.store import SegmentStore
from repro.store.persistence import _manifest_checksum, read_segment, write_segment

CODECS = ["json.v1", "json.v2", "binary.v1"]

# RSEG magic (4) + version (1) + container crc32 (4) + meta_len (4)
_HEADER_BYTES = 13


def _store(codec):
    store = SegmentStore(width=1.0, codec=codec)
    store.add_member("count", "exact_counter", field="value")
    store.ingest(
        [{"value": i % 3} for i in range(8)],
        [float(i // 4) for i in range(8)],
    )
    return store


def _saved_store(tmp_path, codec):
    store = _store(codec)
    target = tmp_path / "store"
    store.save(target)
    return target, store.fingerprint()


def _standalone_container(tmp_path, codec):
    """One segment written alone by :func:`write_segment`."""
    path = tmp_path / "one.rseg"
    write_segment(_store(codec).segments()[0], path, codec)
    return path


def _open_correct_or_raises(target, fingerprint):
    """The matrix predicate: right answer or a loud typed error."""
    try:
        loaded = SegmentStore.open(target)
    except SerializationError:
        return "raised"
    assert loaded.fingerprint() == fingerprint, (
        "damaged store loaded with WRONG data (silent corruption)"
    )
    return "ok"


@pytest.mark.parametrize("codec", CODECS)
def test_segment_truncated_at_every_byte(tmp_path, codec):
    victim = _standalone_container(tmp_path, codec)
    blob = victim.read_bytes()
    reference = read_segment(victim).fingerprint()
    for cut in range(len(blob)):
        victim.write_bytes(blob[:cut])
        with pytest.raises(SerializationError):
            read_segment(victim)
    victim.write_bytes(blob)
    assert read_segment(victim).fingerprint() == reference


@pytest.mark.parametrize("codec", CODECS)
def test_segment_header_bit_flips_all_detected(tmp_path, codec):
    """Every single-bit flip in every header field (magic, version,
    CRC, meta length) is rejected — none parses, none mislabels."""
    victim = _standalone_container(tmp_path, codec)
    blob = victim.read_bytes()
    for offset in range(min(_HEADER_BYTES, len(blob))):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << bit
            victim.write_bytes(bytes(flipped))
            with pytest.raises(
                SerializationError,
                match=r"container|version|checksum|truncated|metadata",
            ):
                read_segment(victim)
    victim.write_bytes(blob)


@pytest.mark.parametrize("codec", CODECS)
def test_segment_body_byte_flips_all_detected(tmp_path, codec):
    """The v2 container CRC covers every post-header byte, so a flip
    anywhere — member names, frame lengths, codec payloads — raises."""
    victim = _standalone_container(tmp_path, codec)
    blob = victim.read_bytes()
    for offset in range(_HEADER_BYTES, len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        victim.write_bytes(bytes(flipped))
        with pytest.raises(SerializationError):
            read_segment(victim)
    victim.write_bytes(blob)


class _NoSyncFilesystem(RealFilesystem):
    """Real files without fsync: the sweeps below test logic, not disks."""

    def fsync(self, handle) -> None:
        handle.flush()

    def fsync_dir(self, path: str) -> None:
        pass


_NO_SYNC = _NoSyncFilesystem()


def _packed_store(tmp_path, codec):
    """A saved store with base segments and a roll-up in one pack."""
    store = _store(codec)
    store.compact()
    target = tmp_path / "store"
    store.save(target)
    manifest = json.loads((target / "manifest.json").read_text())
    entries = [meta for chain in manifest["chains"] for meta in chain["segments"]]
    (pack,) = {meta["pack"] for meta in entries}
    return target, target / "packs" / pack, entries, store


def _recover_copy(target, work):
    """Recover a copy of ``target``; returns (store, report)."""
    shutil.copytree(target, work)
    return SegmentStore.recover(work, fs=_NO_SYNC)


def _all_fingerprints(store):
    return {
        segment.segment_id: segment.fingerprint()
        for _chain_id, chain in store._chain_index()
        for segment in chain.segments()
    }


@pytest.mark.parametrize("codec", CODECS)
def test_pack_byte_flips_quarantine_exactly_one_segment(tmp_path, codec):
    """A flip of any pack byte makes open raise; recover quarantines
    exactly the segment whose range holds the byte (copying that range
    into quarantine/) and every other segment survives intact."""
    target, pack, entries, store = _packed_store(tmp_path, codec)
    assert len(entries) >= 3
    expected = _all_fingerprints(store)
    blob = pack.read_bytes()
    assert len(blob) == sum(meta["length"] for meta in entries)
    for offset in range(len(blob)):
        (victim,) = [
            meta
            for meta in entries
            if meta["offset"] <= offset < meta["offset"] + meta["length"]
        ]
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        pack.write_bytes(bytes(flipped))
        with pytest.raises(SerializationError):
            SegmentStore.open(target)
        work = tmp_path / f"work-{offset}"
        recovered, report = _recover_copy(target, work)
        (entry,) = report.segments_quarantined
        assert entry["id"] == victim["id"], f"offset={offset}"
        start, end = victim["offset"], victim["offset"] + victim["length"]
        with open(entry["file"], "rb") as handle:
            assert handle.read() == bytes(flipped[start:end])
        survivors = _all_fingerprints(recovered)
        assert survivors == {
            seg_id: fp for seg_id, fp in expected.items() if seg_id != victim["id"]
        }, f"offset={offset}"
        shutil.rmtree(work)
    pack.write_bytes(blob)
    assert SegmentStore.open(target).fingerprint() == store.fingerprint()


@pytest.mark.parametrize("codec", CODECS)
def test_pack_truncated_at_every_offset(tmp_path, codec):
    """A torn pack makes open raise; recover quarantines exactly the
    segments whose ranges run past the cut."""
    target, pack, entries, store = _packed_store(tmp_path, codec)
    expected = _all_fingerprints(store)
    blob = pack.read_bytes()
    for cut in range(len(blob)):
        pack.write_bytes(blob[:cut])
        with pytest.raises(SerializationError):
            SegmentStore.open(target)
        work = tmp_path / f"work-{cut}"
        recovered, report = _recover_copy(target, work)
        torn = {meta["id"] for meta in entries if meta["offset"] + meta["length"] > cut}
        assert {entry["id"] for entry in report.segments_quarantined} == torn, (
            f"cut={cut}"
        )
        for entry in report.segments_quarantined:  # what the cut left of it
            start, end = entry["offset"], entry["offset"] + entry["length"]
            with open(entry["file"], "rb") as handle:
                assert handle.read() == blob[:cut][start:end]
        assert _all_fingerprints(recovered) == {
            seg_id: fp for seg_id, fp in expected.items() if seg_id not in torn
        }, f"cut={cut}"
        shutil.rmtree(work)
    pack.write_bytes(blob)


class _UnreadableFilesystem(_NoSyncFilesystem):
    """Reads of files with one suffix fail with EIO, as on a bad sector."""

    def __init__(self, suffix):
        self.suffix = suffix

    def read_bytes(self, path):
        if str(path).endswith(self.suffix):
            raise OSError(errno.EIO, "Input/output error", str(path))
        return super().read_bytes(path)


def test_unreadable_pack_is_moved_into_quarantine(tmp_path):
    """A pack that cannot be read fails every segment in it; recover
    moves it into quarantine/ whole instead of letting its own save's
    GC delete it."""
    target, pack, entries, _store_ = _packed_store(tmp_path, "binary.v1")
    blob = pack.read_bytes()
    _recovered, report = SegmentStore.recover(target, fs=_UnreadableFilesystem(".rpak"))
    assert {entry["id"] for entry in report.segments_quarantined} == {
        meta["id"] for meta in entries
    }
    (moved,) = {entry["file"] for entry in report.segments_quarantined}
    assert Path(moved).parent == target / "quarantine"
    assert Path(moved).read_bytes() == blob
    assert not pack.exists()
    assert SegmentStore.verify(target)["ok"]


def test_unreadable_legacy_container_is_moved_into_quarantine(tmp_path):
    """The same for a format-3 directory's per-segment ``.rseg`` files."""
    target = tmp_path / "store"
    shutil.copytree(Path(__file__).parent / "fixtures" / "format3" / "store", target)
    originals = {p.name: p.read_bytes() for p in (target / "segments").iterdir()}
    _recovered, report = SegmentStore.recover(target, fs=_UnreadableFilesystem(".rseg"))
    assert len(report.segments_quarantined) == len(originals)
    for entry in report.segments_quarantined:
        moved = Path(entry["file"])
        assert moved.parent == target / "quarantine"
        assert moved.read_bytes() == originals[f"{entry['id']}.rseg"]
    assert not list((target / "segments").iterdir())


def _rewrite_entries(target, transform):
    path = target / "manifest.json"
    manifest = json.loads(path.read_text())
    transform([meta for chain in manifest["chains"] for meta in chain["segments"]])
    manifest["checksum"] = _manifest_checksum(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("field", ["offset", "length"])
def test_manifest_range_past_its_pack_raises(tmp_path, codec, field):
    target, pack, _entries, _store_ = _packed_store(tmp_path, codec)
    size = pack.stat().st_size

    def overrun(entries):
        entries[-1][field] += size

    _rewrite_entries(target, overrun)
    with pytest.raises(SerializationError, match="past the end of its pack"):
        SegmentStore.open(target)
    assert SegmentStore.verify(target)["ok"] is False


@pytest.mark.parametrize("codec", CODECS)
def test_manifest_entry_pointing_at_another_container_raises(tmp_path, codec):
    target, _pack, _entries, _store_ = _packed_store(tmp_path, codec)

    def swap(entries):
        first, second = entries[0], entries[1]
        for key in ("offset", "length"):
            first[key], second[key] = second[key], first[key]

    _rewrite_entries(target, swap)
    with pytest.raises(SerializationError, match="does not match its manifest entry"):
        SegmentStore.open(target)
    report = SegmentStore.verify(target)
    assert len(report["segments"]["corrupt"]) == 2


@pytest.mark.parametrize("codec", CODECS)
def test_manifest_truncated_at_every_byte(tmp_path, codec):
    target, fingerprint = _saved_store(tmp_path, codec)
    manifest = target / "manifest.json"
    blob = manifest.read_bytes()
    outcomes = set()
    for cut in range(len(blob)):
        manifest.write_bytes(blob[:cut])
        outcomes.add(_open_correct_or_raises(target, fingerprint))
    manifest.write_bytes(blob)
    assert _open_correct_or_raises(target, fingerprint) == "ok"
    # nearly every prefix must raise; "ok" is allowed only for cuts that
    # happen to leave semantically identical JSON (e.g. the trailing
    # newline) — the predicate above already proved those were correct
    assert "raised" in outcomes


@pytest.mark.parametrize("codec", CODECS)
def test_manifest_byte_flips_never_serve_wrong_data(tmp_path, codec):
    target, fingerprint = _saved_store(tmp_path, codec)
    manifest = target / "manifest.json"
    blob = manifest.read_bytes()
    raised = 0
    for offset in range(len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        manifest.write_bytes(bytes(flipped))
        if _open_correct_or_raises(target, fingerprint) == "raised":
            raised += 1
    manifest.write_bytes(blob)
    # the manifest checksum makes flips overwhelmingly detectable; a
    # handful may land in bytes whose flip still parses to the same
    # canonical document, which the predicate proved harmless
    assert raised > len(blob) * 0.9


def _break_manifest(manifest, how):
    chain = manifest["chains"][0]
    if how == "no-width":
        del manifest["width"]
    elif how == "int-chain-id":
        chain["id"] = 5
    elif how == "schema-list":
        manifest["schema"] = list(manifest["schema"])
    else:  # "meta-without-id"
        del chain["segments"][0]["id"]


@pytest.mark.parametrize(
    "how", ["no-width", "int-chain-id", "schema-list", "meta-without-id"]
)
def test_malformed_checksumless_manifest_raises_typed_errors(tmp_path, how):
    """Format-1 manifests ship without a checksum, so one that parses but
    has a missing or mistyped field reaches the store builder: open and
    recover raise a typed error, and verify agrees that it is broken."""
    target, _fp = _saved_store(tmp_path, "json.v2")
    path = target / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["checksum"]
    _break_manifest(manifest, how)
    path.write_text(json.dumps(manifest))
    with pytest.raises(SerializationError, match="malformed store manifest"):
        SegmentStore.open(target)
    with pytest.raises(SerializationError, match="malformed store manifest"):
        SegmentStore.recover(target)
    assert SegmentStore.verify(target)["ok"] is False


def test_deeply_nested_segment_metadata_raises(tmp_path):
    meta = b"[" * 100_000
    body = struct.pack("!I", len(meta)) + meta
    path = tmp_path / "nested.rseg"
    path.write_bytes(b"RSEG\x02" + struct.pack("!I", zlib.crc32(body)) + body)
    with pytest.raises(SerializationError, match="corrupt segment metadata"):
        read_segment(path)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "field, value",
    [
        ("level", 10**30),
        ("level", -1),
        ("level", 4097),
        ("level", True),
        ("level", 1.0),
        ("id", ["x"]),
        ("id", 7),
        ("start", 3),
        ("start", "0"),
        ("count", -1),
        ("count", 2.5),
    ],
)
def test_segment_metadata_out_of_range_raises(tmp_path, version, field, value):
    """A container whose framing and CRC hold but whose metadata no
    segment can have: version 1 has no CRC and still loads."""
    meta = {"count": 1, "id": "s1", "level": 1, "members": [], "start": 2, field: value}
    raw = json.dumps(meta).encode("utf-8")
    body = struct.pack("!I", len(raw)) + raw
    head = b"RSEG\x01" if version == 1 else b"RSEG\x02" + struct.pack("!I", zlib.crc32(body))
    path = tmp_path / "meta.rseg"
    path.write_bytes(head + body)
    with pytest.raises(SerializationError, match="segment metadata out of range"):
        read_segment(path)


@pytest.mark.parametrize("field", ["records", "wal_seq"])
def test_manifest_value_edited_under_its_checksum_raises(tmp_path, field):
    """An in-place edit that keeps the manifest valid JSON, with the
    checksum left alone, is caught by the checksum and nothing else."""
    target, _fp = _saved_store(tmp_path, "json.v2")
    path = target / "manifest.json"
    blob = path.read_bytes()
    manifest = json.loads(blob)
    old = f'"{field}":{manifest[field]}'.encode("ascii")
    new = f'"{field}":{manifest[field] + 1}'.encode("ascii")
    assert blob.count(old) == 1 and len(new) == len(old)
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(SerializationError, match="checksum mismatch"):
        SegmentStore.open(target)
    assert SegmentStore.verify(target)["ok"] is False


def test_deeply_nested_manifest_raises_typed_errors(tmp_path):
    target, _fp = _saved_store(tmp_path, "json.v2")
    (target / "manifest.json").write_bytes(b"[" * 100_000)
    with pytest.raises(SerializationError, match="corrupt store manifest"):
        SegmentStore.open(target)
    with pytest.raises(SerializationError, match="corrupt store manifest"):
        SegmentStore.recover(target)
    report = SegmentStore.verify(target)
    assert report["ok"] is False and "corrupt store manifest" in report["manifest"]


@pytest.mark.parametrize("codec", CODECS)
def test_wal_frame_flips_never_replay_wrong_batches(tmp_path, codec):
    """A bit-flip anywhere in a WAL frame body fails its CRC: recovery
    replays only the intact prefix, never a corrupted batch."""
    target, _fp = _saved_store(tmp_path, codec)
    store = SegmentStore.open_durable(target)
    store.ingest([{"value": 9}], [5.0])
    pre_fp = SegmentStore.open(target).fingerprint()
    wal_path = store.wal.path
    blob = open(wal_path, "rb").read()
    base_fp = None
    for offset in range(5 + 8, len(blob)):  # every body byte
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        with open(wal_path, "wb") as handle:
            handle.write(bytes(flipped))
        with pytest.raises(SerializationError):
            SegmentStore.open(target)
        work = tmp_path / f"work-{offset}"
        shutil.copytree(target, work)
        recovered, report = SegmentStore.recover(work)
        assert len(report.wal_quarantined) == 1
        fp = recovered.fingerprint()
        assert fp != pre_fp  # the flipped batch was not replayed
        if base_fp is None:
            base_fp = fp  # snapshot-only state
        assert fp == base_fp
        shutil.rmtree(work)
    with open(wal_path, "wb") as handle:
        handle.write(blob)
    assert SegmentStore.open(target).fingerprint() == pre_fp
