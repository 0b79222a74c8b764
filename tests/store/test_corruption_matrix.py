"""Corruption matrix: every truncation offset, every header bit-flip.

The contract under test: loading a damaged store **succeeds correctly
or raises** :class:`~repro.core.exceptions.SerializationError` —
never returns wrong data, and never lets a raw ``struct.error`` /
``UnicodeDecodeError`` escape.  Swept for every codec the store can
persist with (``json.v1`` / ``json.v2`` / ``binary.v1``), because each
puts different bytes behind the same container framing.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.core import SerializationError
from repro.store import SegmentStore
from repro.store.persistence import read_segment

CODECS = ["json.v1", "json.v2", "binary.v1"]

# RSEG magic (4) + version (1) + container crc32 (4) + meta_len (4)
_HEADER_BYTES = 13


def _saved_store(tmp_path, codec):
    store = SegmentStore(width=1.0, codec=codec)
    store.add_member("count", "exact_counter", field="value")
    store.ingest(
        [{"value": i % 3} for i in range(8)],
        [float(i // 4) for i in range(8)],
    )
    target = tmp_path / "store"
    store.save(target)
    return target, store.fingerprint()


def _segment_paths(target):
    seg_dir = target / "segments"
    return sorted(seg_dir / name for name in os.listdir(seg_dir))


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
    target, _fp = _saved_store(tmp_path, codec)
    victim = _segment_paths(target)[0]
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
    target, _fp = _saved_store(tmp_path, codec)
    victim = _segment_paths(target)[0]
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
    target, _fp = _saved_store(tmp_path, codec)
    victim = _segment_paths(target)[0]
    blob = victim.read_bytes()
    for offset in range(_HEADER_BYTES, len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        victim.write_bytes(bytes(flipped))
        with pytest.raises(SerializationError):
            read_segment(victim)
    victim.write_bytes(blob)


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
