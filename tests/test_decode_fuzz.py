"""Differential decode fuzzer: stored-bytes checks against re-encoding.

``json.v2`` payloads and format-4 manifests are checked with a CRC over
the bytes as stored; the reference check parses the whole document and
CRCs its re-encoded canonical form.  For every single-byte flip,
truncation or insertion of a valid payload (``json.v1``, ``json.v2``
and ``binary.v1`` of three summary types, with HyperLogLog in its
dense and its sparse stored forms, and of windowed Misra-Gries and KLL
in count and time mode, plus ``json.v2`` envelopes of the text form
Misra-Gries and KLL states had before their stored forms) or of a saved
manifest, the decoder
must agree with the reference: both raise a
:class:`~repro.core.exceptions.ReproError`, or both return the same
canonical state (for a manifest, a store with the same segment
fingerprints).  Any other exception fails the test.

Segment containers and WAL frames carry their own CRCs, so those
fuzzers recompute the CRC after every mutation, to reach the parsers
behind it.  ``read_segment`` (container versions 1 and 2) must return a
segment whose fields are what the metadata says and usable, or raise a
``ReproError``.  ``scan_wal`` must never raise, and must return a prefix
of the written frames in which every frame passes ``check_batch``.

Tier-1 runs each case with the default example budget; the CI profile
``HYPOTHESIS_PROFILE=long`` (registered in ``tests/conftest.py``) runs
this module with a much larger one.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReproError, SerializationError, decode_summary, encode_summary
from repro.core.codecs import _BINARY_MAGIC, from_envelope, get_codec
from repro.core.fsio import REAL_FS
from repro.frequency import MisraGries
from repro.quantiles import KLLQuantiles
from repro.sketches import HyperLogLog
from repro.sketches.hyperloglog import _SPARSE_LOOP_WORDS, _word_bytes
from repro.store import SegmentStore
from repro.store.persistence import (
    _ACCEPTED_MANIFEST_FORMATS,
    _manifest_checksum,
    _read_manifest,
    _segment_blob,
    _store_from_manifest,
    read_segment,
)
from repro.store.segment import Segment
from repro.store.wal import WalRecord, _encode_frame, check_batch, scan_wal


def _summaries():
    rng = np.random.default_rng(23)
    return {
        "misra_gries": MisraGries(8).extend(rng.zipf(1.3, 300).tolist()),
        "kll_quantiles": KLLQuantiles(8, rng=4).extend(rng.random(120)),
        "hyperloglog": HyperLogLog(p=4, seed=2).extend(range(200)),  # dense
        # sparse stored forms, 2-byte words at p=10 and 3-byte at p=14,
        # each short enough for the loop decoder and long enough for numpy
        "hyperloglog_p10_sparse": HyperLogLog(p=10, seed=5).extend(range(40)),
        "hyperloglog_p10_sparse_long": HyperLogLog(p=10, seed=5).extend(range(160)),
        "hyperloglog_p14_sparse": HyperLogLog(p=14, seed=6).extend(range(20)),
        "hyperloglog_p14_sparse_long": HyperLogLog(p=14, seed=6).extend(range(80)),
        # windowed variants in both modes: cascaded buckets, a pending
        # bucket, expiry and (time mode) late events
        "windowed_mg_count": MisraGries(4)
        .windowed(eps=0.5, window=16, granularity=4)
        .extend(rng.zipf(1.3, 30).tolist()),
        "windowed_kll_count": KLLQuantiles(8, rng=7)
        .windowed(eps=0.5, window=16, granularity=4)
        .extend(rng.random(30)),
        "windowed_mg_time": _observed(
            MisraGries(4).windowed(eps=0.5, window=8.0, mode="time", granularity=2.0),
            rng.zipf(1.3, 30).tolist(),
        ),
        "windowed_kll_time": _observed(
            KLLQuantiles(8, rng=8).windowed(eps=0.5, window=8.0, mode="time", granularity=2.0),
            rng.random(30).tolist(),
        ),
    }


def _observed(window, items):
    """``window`` after ``items`` at half-unit steps, every fifth one late."""
    for i, item in enumerate(items):
        window.observe(item, i / 2 - (5.0 if i % 5 == 4 else 0.0))
    return window


def _legacy_json_v2(summary):
    """The ``json.v2`` envelope of ``to_dict()``, as writers stored it
    before the type had a stored form of its own."""
    canonical = json.dumps(summary.to_dict(), separators=(",", ":"), sort_keys=True)
    checksum = zlib.crc32(canonical.encode("utf-8"))
    return (
        f'{{"format":2,"type":"{summary.registry_name}","state":{canonical},'
        f'"checksum":{checksum}}}'
    ).encode("utf-8")


def _corpus():
    corpus = {}
    summaries = _summaries()
    for name, summary in summaries.items():
        for codec in ("json.v1", "json.v2", "binary.v1"):
            payload = encode_summary(summary, codec)
            if isinstance(payload, str):
                payload = payload.encode("utf-8")
            corpus[f"{codec}-{name}"] = payload
    # the text forms still load: MG counter pairs, KLL sample text
    for name in ("misra_gries", "kll_quantiles"):
        corpus[f"json.v2-{name}_text_form"] = _legacy_json_v2(summaries[name])
    return corpus


CORPUS = _corpus()


def _reference_decode(payload):
    """Today's check before stored-bytes CRCs: parse, re-encode, compare."""
    if isinstance(payload, bytes) and payload.startswith(_BINARY_MAGIC):
        return get_codec("binary.v1").decode(payload)
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(str(exc)) from exc
    try:
        envelope = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SerializationError(str(exc)) from exc
    return from_envelope(envelope)


def _outcome(decode, payload):
    """``None`` for a typed rejection, else the decoded canonical state."""
    try:
        summary = decode(payload)
    except ReproError:
        return None
    return summary.registry_name, json.dumps(summary.to_dict(), sort_keys=True)


def _mutations(size):
    return st.one_of(
        st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("insert"), st.integers(0, size), st.integers(0, 255)),
    )


def _mutate(data, mutation):
    kind, at, byte = mutation
    if kind == "flip":
        out = bytearray(data)
        out[at] ^= byte
        return bytes(out)
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes([byte]) + data[at:]


def _assert_payload_agrees(payload):
    forms = [payload]
    try:
        forms.append(payload.decode("utf-8"))  # the wire passes text too
    except UnicodeDecodeError:
        pass
    for form in forms:
        assert _outcome(decode_summary, form) == _outcome(_reference_decode, form)


def test_sparse_hyperloglogs_reach_both_decoders():
    decoders = set()
    for name, summary in _summaries().items():
        stored = summary.to_stored()
        if name.startswith("hyperloglog_"):
            words = len(base64.b64decode(stored["sparse"])) // _word_bytes(summary.p)
            decoders.add((summary.p, words > _SPARSE_LOOP_WORDS[_word_bytes(summary.p)]))
    assert decoders == {(10, False), (10, True), (14, False), (14, True)}


def test_both_forms_of_misra_gries_and_kll_are_fuzzed():
    keys = {
        key
        for payload in CORPUS.values()
        if not payload.startswith(_BINARY_MAGIC)
        for key in ('"items"', '"counters"', '"packed"', '"levels"')
        if key.encode("ascii") in payload
    }
    assert keys == {'"items"', '"counters"', '"packed"', '"levels"'}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_intact_payload_decodes(case):
    expected = _outcome(_reference_decode, CORPUS[case])
    assert expected is not None
    assert _outcome(decode_summary, CORPUS[case]) == expected


@pytest.mark.parametrize("case", sorted(CORPUS))
@settings(deadline=None)
@given(data=st.data())
def test_mutated_payload_matches_reference(case, data):
    payload = CORPUS[case]
    _assert_payload_agrees(_mutate(payload, data.draw(_mutations(len(payload)))))


@pytest.mark.parametrize("case", sorted(c for c in CORPUS if c.startswith("json.v2")))
def test_every_low_bit_flip_and_truncation_matches_reference(case):
    """Exhaustive over positions: every state byte is covered at least once."""
    payload = CORPUS[case]
    for at in range(len(payload)):
        _assert_payload_agrees(_mutate(payload, ("flip", at, 1)))
        _assert_payload_agrees(payload[:at])


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


class _ManifestBytes:
    """A filesystem whose every file holds ``data`` (the manifest reader
    reads one file)."""

    def __init__(self, data):
        self.data = data

    def read_bytes(self, _path):
        return self.data


def _reference_manifest(raw):
    """The manifest check before stored-bytes CRCs: parse, re-encode."""
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(str(exc)) from exc
    if not isinstance(manifest, dict):
        raise SerializationError("not an object")
    if manifest.get("format") not in _ACCEPTED_MANIFEST_FORMATS:
        raise SerializationError("format")
    if "checksum" in manifest and manifest["checksum"] != _manifest_checksum(manifest):
        raise SerializationError("checksum")
    return manifest


@pytest.fixture(scope="module")
def saved_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "store"
    store = SegmentStore(width=1.0, codec="json.v2")
    store.add_member("hot", "misra_gries", field="value", k=4)
    store.ingest([{"value": i % 5} for i in range(24)], [float(i // 4) for i in range(24)])
    store.compact()
    store.save(path)
    return path, (path / "manifest.json").read_bytes()


def _manifest_outcome(read, raw):
    try:
        return read(raw)
    except ReproError:
        return None


def _fingerprints(manifest, path):
    try:
        store = _store_from_manifest(manifest, str(path), REAL_FS)
    except ReproError:
        return None
    return [
        segment.fingerprint()
        for _chain_id, chain in store._chain_index()
        for segment in chain.segments()
    ]


def _assert_manifest_agrees(raw, path):
    fast = _manifest_outcome(lambda r: _read_manifest(str(path), _ManifestBytes(r)), raw)
    reference = _manifest_outcome(_reference_manifest, raw)
    assert (fast is None) == (reference is None)
    if fast is not None:
        assert fast == reference
        assert _fingerprints(fast, path) == _fingerprints(reference, path)


def test_intact_manifest_reads(saved_store):
    path, raw = saved_store
    manifest = _read_manifest(str(path), _ManifestBytes(raw))
    assert manifest["format"] == 4
    assert manifest == _reference_manifest(raw)
    assert _fingerprints(manifest, path)


@settings(deadline=None)
@given(data=st.data())
def test_mutated_manifest_matches_reference(saved_store, data):
    path, raw = saved_store
    _assert_manifest_agrees(_mutate(raw, data.draw(_mutations(len(raw)))), path)


def test_every_manifest_low_bit_flip_and_truncation_matches_reference(saved_store):
    path, raw = saved_store
    for at in range(len(raw)):
        _assert_manifest_agrees(_mutate(raw, ("flip", at, 1)), path)
        _assert_manifest_agrees(raw[:at], path)


def test_crc_valid_manifest_in_another_layout_is_reencoded(saved_store):
    """A pretty-printed manifest is checked the old way, and still loads."""
    path, raw = saved_store
    manifest = json.loads(raw)
    pretty = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    assert _read_manifest(str(path), _ManifestBytes(pretty)) == manifest
    manifest["records"] += 1
    tampered = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    with pytest.raises(SerializationError, match="checksum mismatch"):
        _read_manifest(str(path), _ManifestBytes(tampered))


# ---------------------------------------------------------------------------
# Segment containers (read_segment)
# ---------------------------------------------------------------------------

#: JSON values for one metadata field, edges first
_META_VALUES = st.one_of(
    st.sampled_from([10**30, 2**62, 4096, 4097, -1, 0, 1, 3, True, 1.0, "0", ["x"], None]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4,
    ),
)


def _container_body():
    rng = np.random.default_rng(5)
    members = {
        "hot": MisraGries(4).extend(rng.zipf(1.3, 60).tolist()),
        "lat": KLLQuantiles(8, rng=3).extend(rng.random(40)),
    }
    blob = _segment_blob(Segment("s000003-L1-e2", 1, 2, 60, members), "json.v2")
    return blob[9:]  # after magic, version and CRC


CONTAINER_BODY = _container_body()


def _frame_container(version, body):
    if version == 1:  # no CRC
        return b"RSEG\x01" + body
    return b"RSEG\x02" + struct.pack("!I", zlib.crc32(body)) + body


def _with_meta(body, field, value):
    """``body`` with one metadata field set (or dropped, for ``...``)."""
    (meta_len,) = struct.unpack_from("!I", body)
    meta = json.loads(body[4 : 4 + meta_len])
    if value is ...:
        meta.pop(field, None)
    else:
        meta[field] = value
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    return struct.pack("!I", len(raw)) + raw + body[4 + meta_len :]


def _assert_segment_sound_or_typed_error(blob):
    try:
        segment = read_segment("fuzz.rseg", fs=_ManifestBytes(blob))
    except ReproError:
        return
    # loaded: every field is what the metadata says, and usable
    body = blob[5:] if blob[4] == 1 else blob[9:]
    (meta_len,) = struct.unpack_from("!I", body)
    meta = json.loads(body[4 : 4 + meta_len])
    assert segment.meta() == {key: meta[key] for key in ("id", "level", "start", "count", "members")}
    assert isinstance(segment.segment_id, str)
    assert 0 <= segment.level <= 4096 and segment.count >= 0
    assert segment.start % segment.span == 0
    assert segment.end == segment.start + segment.span
    repr(segment)
    segment.key_range(0.5)
    assert len(segment.fingerprint()) == 64


@pytest.mark.parametrize("version", [1, 2])
def test_intact_container_reads(version):
    segment = read_segment("c.rseg", fs=_ManifestBytes(_frame_container(version, CONTAINER_BODY)))
    assert (segment.segment_id, segment.level, segment.start, segment.count) == (
        "s000003-L1-e2", 1, 2, 60,
    )
    assert sorted(segment.members) == ["hot", "lat"]


@pytest.mark.parametrize("version", [1, 2])
@settings(deadline=None)
@given(data=st.data())
def test_mutated_container_reads_right_or_raises_typed(version, data):
    body = _mutate(CONTAINER_BODY, data.draw(_mutations(len(CONTAINER_BODY))))
    _assert_segment_sound_or_typed_error(_frame_container(version, body))


@pytest.mark.parametrize("version", [1, 2])
@settings(deadline=None)
@given(
    field=st.sampled_from(["id", "level", "start", "count", "members"]),
    value=st.one_of(st.just(...), _META_VALUES),
)
def test_container_metadata_reads_right_or_raises_typed(version, field, value):
    _assert_segment_sound_or_typed_error(
        _frame_container(version, _with_meta(CONTAINER_BODY, field, value))
    )


# ---------------------------------------------------------------------------
# WAL frames (scan_wal)
# ---------------------------------------------------------------------------

WAL_RECORDS = [
    WalRecord(1, [{"v": 1}, {"v": 2}], [0.0, 1.5], None),
    WalRecord(2, [{"v": 3}], [2.0], [4]),
    WalRecord(5, [{"v": 4, "tag": "a"}, {"v": 5}], [-3.0, 7.25], [1, 2]),
]


def _frame_bodies():
    bodies = []
    for record in WAL_RECORDS:
        frame = _encode_frame(record)
        bodies.append(frame[8:])  # after body_len and CRC
    return bodies


FRAME_BODIES = _frame_bodies()


def _wal_file(bodies):
    return b"RWAL\x01" + b"".join(
        struct.pack("!II", len(body), zlib.crc32(body)) + body for body in bodies
    )


def _assert_scan_is_a_checked_prefix(bodies, changed):
    """``bodies[changed]`` was mutated (CRC recomputed), the rest are intact."""
    scan = scan_wal("wal-000001.log", fs=_ManifestBytes(_wal_file(bodies)))
    records = scan.records
    assert records[:changed] == WAL_RECORDS[:changed]
    assert len(records) <= len(bodies)
    if len(records) < len(bodies):
        assert scan.torn
    if len(records) > changed + 1:
        assert records[changed + 1 :] == WAL_RECORDS[changed + 1 : len(records)]
    for record in records:
        checked = check_batch(record.records, record.keys, record.weights)
        assert (checked[0], checked[1]) == (record.records, record.keys)
    assert [record.seq for record in records] == sorted({r.seq for r in records})


def test_intact_wal_scans_clean():
    scan = scan_wal("wal-000001.log", fs=_ManifestBytes(_wal_file(FRAME_BODIES)))
    assert not scan.torn and scan.records == WAL_RECORDS


@settings(deadline=None)
@given(data=st.data())
def test_mutated_wal_frame_scans_to_a_checked_prefix(data):
    changed = data.draw(st.integers(0, len(FRAME_BODIES) - 1))
    bodies = list(FRAME_BODIES)
    bodies[changed] = _mutate(bodies[changed], data.draw(_mutations(len(bodies[changed]))))
    _assert_scan_is_a_checked_prefix(bodies, changed)


@settings(deadline=None)
@given(
    changed=st.integers(0, len(FRAME_BODIES) - 1),
    field=st.sampled_from(["seq", "records", "keys", "weights"]),
    element=st.booleans(),
    value=st.one_of(st.just(...), _META_VALUES),
)
def test_wal_frame_fields_scan_to_a_checked_prefix(changed, field, element, value):
    body = json.loads(FRAME_BODIES[changed])
    if value is ...:
        body.pop(field)
    elif element and isinstance(body[field], list) and body[field]:
        body[field][0] = value  # one record, key or weight
    else:
        body[field] = value
    bodies = list(FRAME_BODIES)
    bodies[changed] = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    _assert_scan_is_a_checked_prefix(bodies, changed)

