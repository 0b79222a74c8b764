"""Codec-stack conformance: every registered summary x every codec.

The codec registry is the single serialization layer shared by the
distributed wire format and the segment store, so its contract is
checked combinatorially:

- every registered summary type round-trips through every registered
  codec with **byte-identical** ``to_dict()`` state;
- :func:`decode_summary` auto-detects each codec's payloads;
- legacy payloads (format-1 envelopes, no checksum) still load;
- ``json.v2`` writes the state in canonical form, byte-identical to
  dumping the envelope with the state's keys sorted, and reads it with
  a CRC over the stored state bytes; envelopes whose state is not
  stored canonically still load through the re-encode check;
- corruption — bit flips, truncation, wrong magic, checksum edits —
  is detected, never silently decoded.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.core import (
    SerializationError,
    decode_summary,
    encode_summary,
    get_codec,
    registered_codecs,
    registered_names,
)
from repro.core.codecs import (
    _BINARY_MAGIC,
    DEFAULT_CODEC,
    from_envelope,
    state_checksum,
    to_envelope,
)
from repro.frequency import MisraGries

from .test_serialization import _build_all_registered


def _canonical_state(summary) -> str:
    """Serialized ``to_dict`` with the volatile RNG re-seed field removed.

    Randomized summaries draw a fresh seed on every ``to_dict`` call so
    that restored copies own an independent stream; every other byte of
    state must survive any codec unchanged.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "seed"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(summary.to_dict()), sort_keys=True)


def test_expected_codecs_are_registered():
    names = registered_codecs()
    assert {"json.v1", "json.v2", "binary.v1"} <= set(names)
    assert DEFAULT_CODEC in names


def test_unknown_codec_raises():
    with pytest.raises(SerializationError, match="unknown codec"):
        get_codec("carrier.pigeon")
    with pytest.raises(SerializationError, match="unknown codec"):
        encode_summary(MisraGries(4), codec="carrier.pigeon")


@pytest.fixture(scope="module")
def instances():
    return _build_all_registered()


class TestConformanceMatrix:
    """Registry x codec round trips, driven off both registries."""

    def test_no_registered_type_is_missing(self, instances):
        missing = set(registered_names()) - set(instances)
        assert not missing, f"codec conformance misses types: {missing}"

    @pytest.mark.parametrize("codec_name", sorted(registered_codecs()))
    def test_every_type_round_trips_byte_identically(
        self, instances, codec_name
    ):
        for name, summary in instances.items():
            payload = encode_summary(summary, codec=codec_name)
            restored = decode_summary(payload)
            assert type(restored) is type(summary), (codec_name, name)
            assert _canonical_state(restored) == _canonical_state(summary), (
                codec_name,
                name,
            )

    @pytest.mark.parametrize("codec_name", sorted(registered_codecs()))
    def test_payload_kind_matches_codec_declaration(self, codec_name):
        codec = get_codec(codec_name)
        payload = encode_summary(MisraGries(4).extend([1, 1, 2]), codec_name)
        if codec.binary:
            assert isinstance(payload, bytes)
        else:
            assert isinstance(payload, str)

    def test_binary_payload_is_smaller_for_bulky_state(self, instances):
        bulky = instances["mergeable_quantiles"]
        text = encode_summary(bulky, codec="json.v2").encode("utf-8")
        binary = encode_summary(bulky, codec="binary.v1")
        assert len(binary) < len(text)


def _sorted_keys(value):
    """``value`` with every dict's keys in sorted order, at every level."""
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value


class TestJsonV2Layout:
    """The json.v2 payload is canonical, and read over its stored bytes."""

    def test_payload_is_the_envelope_with_sorted_state_keys(self, instances, monkeypatch):
        for name, summary in instances.items():
            state = summary.to_dict()
            # pin the state: randomized types draw a new seed per to_dict
            monkeypatch.setattr(summary, "to_dict", lambda state=state: state)
            payload = encode_summary(summary, "json.v2")
            envelope = {
                "format": 2,
                "type": name,
                "state": _sorted_keys(state),
                "checksum": state_checksum(state),
            }
            assert payload == json.dumps(envelope, separators=(",", ":")), name
            # sorting the keys moves bytes but never changes the length
            envelope["state"] = state
            assert len(payload) == len(json.dumps(envelope, separators=(",", ":")))
            # today's reference check accepts it, with the same state
            restored = from_envelope(json.loads(payload))
            assert type(restored) is type(summary), name
            assert _canonical_state(restored) == _canonical_state(summary), name

    def test_canonical_payload_skips_the_reencode(self, instances, reference_checks):
        for name, summary in instances.items():
            payload = encode_summary(summary, "json.v2")
            for form in (payload, payload.encode("utf-8")):
                restored = decode_summary(form)
                assert _canonical_state(restored) == _canonical_state(summary), name
        assert reference_checks == []

    def test_state_in_to_dict_order_loads_through_the_reencode(
        self, instances, reference_checks
    ):
        """Envelopes of earlier writers kept the state's own key order."""
        for name, summary in instances.items():
            state = summary.to_dict()
            payload = json.dumps(
                {"format": 2, "type": name, "state": state,
                 "checksum": state_checksum(state)},
                separators=(",", ":"),
            )
            reference_checks.clear()
            restored = decode_summary(payload.encode("utf-8"))
            assert _canonical_state(restored) == _canonical_state(summary), name
            stored_canonically = json.dumps(state) == json.dumps(_sorted_keys(state))
            assert len(reference_checks) == (0 if stored_canonically else 1), name

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.replace('"n":3', '"n":4'),  # state byte, checksum kept
            lambda p: p.replace('"checksum":', '"checksum":1'),
            lambda p: p[:-1],
            lambda p: p.replace('"checksum":', '"chksum":'),
        ],
        ids=["state", "checksum", "truncated", "checksum-key"],
    )
    def test_damaged_payload_is_rejected(self, edit):
        payload = encode_summary(MisraGries(4).extend([1, 2, 2]), "json.v2")
        damaged = edit(payload)
        assert damaged != payload
        for form in (damaged, damaged.encode("utf-8")):
            with pytest.raises(SerializationError):
                decode_summary(form)

    def test_benign_edit_is_accepted_by_the_reencode(self, reference_checks):
        """An edit that parses to the same state passes, as it always did."""
        payload = encode_summary(MisraGries(4).extend([1, 2, 2]), "json.v2")
        spaced = payload.replace('"state":{', '"state": {')
        assert decode_summary(spaced).n == 3
        assert len(reference_checks) == 1


class TestAutoDetection:
    def test_binary_payloads_sniffed_by_magic(self):
        payload = encode_summary(MisraGries(4).extend([1, 2]), "binary.v1")
        assert payload.startswith(_BINARY_MAGIC)
        assert decode_summary(payload).n == 2

    def test_json_text_and_bytes_both_accepted(self):
        payload = encode_summary(MisraGries(4).extend([1, 2]), "json.v2")
        assert decode_summary(payload).n == 2
        assert decode_summary(payload.encode("utf-8")).n == 2

    def test_v1_codec_output_loads_through_v2_decoder(self):
        """Envelopes written by the legacy codec keep loading forever."""
        payload = encode_summary(MisraGries(4).extend([1, 2, 2]), "json.v1")
        envelope = json.loads(payload)
        assert envelope["format"] == 1
        assert "checksum" not in envelope
        assert decode_summary(payload).n == 3


class TestCorruptionDetection:
    def _binary(self):
        return encode_summary(MisraGries(8).extend([1, 1, 2, 3]), "binary.v1")

    def test_wrong_magic_rejected(self):
        payload = b"XXXX" + self._binary()[4:]
        with pytest.raises(SerializationError):
            decode_summary(payload)

    def test_truncated_binary_rejected(self):
        payload = self._binary()
        for cut in (3, len(payload) // 2, len(payload) - 1):
            with pytest.raises(SerializationError):
                decode_summary(payload[:cut])

    def test_flipped_body_byte_rejected(self):
        payload = bytearray(self._binary())
        payload[-1] ^= 0xFF
        with pytest.raises(SerializationError):
            decode_summary(bytes(payload))

    def test_corrupted_compressed_body_rejected(self):
        # flip a byte in the middle of the zlib stream
        payload = bytearray(self._binary())
        payload[len(payload) // 2] ^= 0x01
        with pytest.raises(SerializationError):
            decode_summary(bytes(payload))

    def test_checksum_guards_decompressed_state(self):
        """A forged body with valid zlib framing still fails the CRC."""
        summary = MisraGries(8).extend([1, 1, 2, 3])
        envelope = to_envelope(summary)
        good = state_checksum(envelope["state"])
        envelope["state"]["n"] = 999
        assert state_checksum(envelope["state"]) != good

    def test_binary_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            decode_summary(self._binary() + b"extra")


class TestCompression:
    def test_body_is_zlib_of_canonical_state(self):
        summary = MisraGries(8).extend([5, 5, 6])
        payload = encode_summary(summary, "binary.v1")
        # layout: magic | header | name | zlib body
        header = struct.Struct("!BHIII")
        offset = len(_BINARY_MAGIC)
        _v, name_len, _crc, _raw, comp = header.unpack_from(payload, offset)
        offset += header.size
        name = payload[offset : offset + name_len].decode("ascii")
        assert name == "misra_gries"
        body = zlib.decompress(payload[offset + name_len :])
        assert json.loads(body) == json.loads(
            json.dumps(summary.to_dict(), sort_keys=True)
        )
        assert comp == len(payload) - offset - name_len


def _binary_frame(name: bytes, raw: bytes) -> bytes:
    """A binary.v1 payload around ``raw`` whose body CRC matches."""
    body = zlib.compress(raw)
    header = struct.Struct("!BHIII").pack(
        1, len(name), zlib.crc32(raw) & 0xFFFFFFFF, len(raw), len(body)
    )
    return _BINARY_MAGIC + header + name + body


def _binary_payload(type_name: str, state) -> bytes:
    """A well-framed, CRC-valid binary.v1 payload carrying ``state``."""
    raw = json.dumps(state, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _binary_frame(type_name.encode("utf-8"), raw)


class TestMalformedState:
    """A well-framed payload whose state does not fit its type fails typed."""

    @pytest.mark.parametrize("state", [{}, []], ids=["dict", "list"])
    @pytest.mark.parametrize("codec_name", ["json.v1", "binary.v1"])
    @pytest.mark.parametrize("type_name", registered_names())
    def test_malformed_state_raises_serialization_error(
        self, type_name, codec_name, state
    ):
        if codec_name == "binary.v1":
            payload = _binary_payload(type_name, state)
        else:
            payload = json.dumps({"format": 1, "type": type_name, "state": state})
        with pytest.raises(SerializationError):
            decode_summary(payload)

    def test_non_string_type_name_raises_serialization_error(self):
        payload = json.dumps({"format": 1, "type": [], "state": {}})
        with pytest.raises(SerializationError, match="type name"):
            decode_summary(payload)

    def test_binary_name_and_body_outside_the_crc_fail_typed(self):
        # the CRC covers the decompressed body only: a non-UTF-8 type
        # name, or a CRC-valid body that is not JSON, must fail typed
        with pytest.raises(SerializationError):
            decode_summary(_binary_frame(b"\xff", b"{}"))
        with pytest.raises(SerializationError):
            decode_summary(_binary_frame(b"misra_gries", b"not json"))


_DEEP = "[" * 100_000


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser's stack raises
    :class:`SerializationError`, never an untyped ``RecursionError``."""

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_nested_payload(self, as_bytes):
        with pytest.raises(SerializationError):
            decode_summary(_DEEP.encode("ascii") if as_bytes else _DEEP)

    def test_nested_state_after_a_json_v2_head(self):
        with pytest.raises(SerializationError):
            decode_summary('{"format":2,"type":"kll_quantiles","state":' + _DEEP)

    def test_nested_state_whose_crc_matches(self):
        # the stored-state fast path parses only a slice that passed its
        # CRC; the slice must still fail typed
        state = ("[" * 5_000 + "]" * 5_000).encode("ascii")
        payload = (
            b'{"format":2,"type":"kll_quantiles","state":'
            + state
            + b',"checksum":%d}' % zlib.crc32(state)
        )
        with pytest.raises(SerializationError):
            decode_summary(payload)

    def test_nested_binary_body_whose_crc_matches(self):
        with pytest.raises(SerializationError):
            decode_summary(_binary_frame(b"kll_quantiles", _DEEP.encode("ascii")))
