"""Versioned codec stack: one serialization layer for wire and disk.

Before this module existed the library had a single ad-hoc JSON envelope
doing double duty as the distributed wire format *and* the persistence
format, with versioning bolted onto the envelope's ``format`` field.
This module re-layers that into a **codec registry**: each codec is a
named, versioned encoder/decoder
pair from a :class:`~repro.core.base.Summary` to a payload (``str`` or
``bytes``), and everything that serializes a summary — the distributed
simulator's :class:`~repro.distributed.node.Node`, the segment store's
persistence, the CLI files — goes through this one layer, so wire and
disk formats can no longer drift apart.

Registered codecs
-----------------

``json.v1``
    The original checksum-less JSON envelope
    (``{"format": 1, "type": ..., "state": ...}``).  Kept primarily as
    a *loader* for payloads persisted by old builds; encoding is still
    supported so the legacy format stays round-trip testable.

``json.v2``
    The current JSON envelope: format 2 plus a CRC32 ``checksum`` over
    the canonical state JSON (end-to-end corruption detection, from the
    fault-tolerance work).  This is the default codec.  Every format-2
    envelope has been written with its checksum, so one without it is
    rejected: a damaged key must not switch the integrity check off.
    The state is stored in its canonical form, so a reader checks the
    CRC over the state bytes as stored and parses only those; envelopes
    from older writers (state keys in ``to_dict`` order) are checked by
    re-encoding the parsed state.

``binary.v1``
    A compact binary codec: struct-packed header (magic, version, type
    name, the same CRC32, raw/compressed body lengths) followed by a
    zlib-compressed canonical state JSON body.  Smaller than ``json.v2``
    on the wire and at rest: 1.2-1.4x for the already compact stored
    forms of KLL, Misra-Gries and HyperLogLog, up to 10x for states that
    are mostly JSON text.

The state every codec writes is
:meth:`~repro.core.base.Summary.to_stored`: ``to_dict()``, or a
shorter encoding of the same state where a type has one (HyperLogLog's
sparse registers, KLL's packed float64 levels, Misra-Gries's counter
columns, and composites that embed those).  ``from_dict`` reads either.

:func:`decode_summary` sniffs the payload, so a reader never needs to
know which codec (or which JSON envelope generation) produced it —
pre-refactor format-1 and format-2 envelopes keep deserializing.
:func:`dumps`/:func:`loads` are the short public names for the same
front door (``repro.dumps``/``repro.loads``).
"""

from __future__ import annotations

import abc
import base64
import json
import re
import struct
import zlib
from typing import Any, Dict, Optional, Tuple, Union

from .base import Summary
from .exceptions import ParameterError, ReproError, SerializationError
from .registry import get_summary_class

__all__ = [
    "Codec",
    "JsonCodecV1",
    "JsonCodecV2",
    "BinaryCodecV1",
    "DEFAULT_CODEC",
    "register_codec",
    "get_codec",
    "registered_codecs",
    "encode_summary",
    "decode_summary",
    "dumps",
    "loads",
    "state_checksum",
    "trailing_checksum",
    "to_envelope",
    "from_envelope",
    "base64_words",
]

Payload = Union[str, bytes]

#: name of the codec used when callers don't pick one
DEFAULT_CODEC = "json.v2"

_ACCEPTED_ENVELOPE_VERSIONS = (1, 2)


# ---------------------------------------------------------------------------
# Shared canonical-state helpers (the JSON envelope primitives)
# ---------------------------------------------------------------------------


def _canonical_state(state: Dict[str, Any]) -> str:
    return json.dumps(state, separators=(",", ":"), sort_keys=True)


def state_checksum(state: Dict[str, Any]) -> int:
    """CRC32 over the canonical (sorted-key, compact) JSON of ``state``."""
    return zlib.crc32(_canonical_state(state).encode("utf-8")) & 0xFFFFFFFF


def base64_words(text: Any, width: int, what: str) -> bytes:
    """The bytes of a stored-form field written as base64 text of whole
    ``width``-byte words (HyperLogLog's sparse registers, KLL's packed
    levels).

    Raises :class:`~repro.core.exceptions.ParameterError`, naming the
    field as ``what``, for anything else.
    """
    if not isinstance(text, str):
        raise ParameterError(f"{what} must be base64 text, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ParameterError(f"{what} must be base64 text: {exc}") from None
    if len(raw) % width:
        raise ParameterError(
            f"{what}: {len(raw)} bytes, not a whole number of {width}-byte words"
        )
    return raw


def _registered_state(summary: Summary) -> tuple:
    """``(registry name, stored state dict)`` or raise for unregistered types."""
    name = getattr(summary, "registry_name", None)
    if name is None:
        raise SerializationError(
            f"{type(summary).__name__} is not registered; apply "
            "@register_summary before serializing"
        )
    return name, summary.to_stored()


def _canonical_payload(summary: Summary) -> Tuple[str, str]:
    """``(registry name, canonical state JSON)``, what the checksummed
    codecs store; raise for states JSON cannot carry."""
    name, state = _registered_state(summary)
    try:
        return name, _canonical_state(state)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"summary state of {type(summary).__name__} is not "
            f"JSON-compatible: {exc}"
        ) from exc


def _restore(name: Any, state: Any) -> Summary:
    """Rebuild a summary from a decoded ``(type name, state)`` pair.

    Both decode paths end here, so a well-framed payload whose state
    does not fit its type fails the same way in every codec: a
    non-string type name, or any untyped exception ``from_dict`` raises
    on a missing key or a wrongly shaped value, becomes
    :class:`SerializationError`.  A :class:`ReproError` that
    ``from_dict`` raises on purpose (a validation ``ParameterError``)
    passes through unchanged.  A name the registry does not know decodes
    only when it is a retired type's (:mod:`repro.windows.legacy`).
    """
    if not isinstance(name, str):
        raise SerializationError(
            f"summary type name must be a string, got {type(name).__name__}"
        )
    try:
        read = get_summary_class(name).from_dict
    except SerializationError:
        # a retired type decodes through its reader as the type it became
        from ..windows.legacy import retired_reader

        read = retired_reader(name)
        if read is None:
            raise
    try:
        return read(state)
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError) as exc:
        raise SerializationError(f"malformed {name!r} state: {exc!r}") from exc


def to_envelope(summary: Summary, version: int = 2) -> Dict[str, Any]:
    """Wrap a summary's state in the versioned JSON transport envelope."""
    name, state = _registered_state(summary)
    envelope: Dict[str, Any] = {"format": version, "type": name, "state": state}
    if version >= 2:
        envelope["checksum"] = state_checksum(state)
    return envelope


def from_envelope(envelope: Dict[str, Any]) -> Summary:
    """Reconstruct a summary from :func:`to_envelope` output (any version)."""
    try:
        version = envelope["format"]
        name = envelope["type"]
        state = envelope["state"]
    except (TypeError, KeyError) as exc:
        raise SerializationError(f"malformed summary envelope: {exc!r}") from exc
    if version not in _ACCEPTED_ENVELOPE_VERSIONS:
        raise SerializationError(
            f"unsupported envelope format {version!r} "
            f"(supported: {', '.join(map(str, _ACCEPTED_ENVELOPE_VERSIONS))})"
        )
    if "checksum" in envelope:
        expected = envelope["checksum"]
        actual = state_checksum(state)
        if actual != expected:
            raise SerializationError(
                f"payload checksum mismatch (stored {expected!r}, computed "
                f"{actual}): summary state corrupted in transit or at rest"
            )
    elif version >= 2:
        raise SerializationError(
            f"format-{version} summary envelope carries no checksum"
        )
    return _restore(name, state)


# ---------------------------------------------------------------------------
# Codec protocol and registry
# ---------------------------------------------------------------------------


class Codec(abc.ABC):
    """One named, versioned summary encoder/decoder.

    ``encode`` must accept any registered summary; ``decode`` must
    reject anything it did not produce with
    :class:`~repro.core.exceptions.SerializationError` (corruption is a
    decode error, never a garbage summary).
    """

    #: unique registry key, ``<family>.<version>`` by convention
    name: str
    #: True when payloads are ``bytes`` (vs JSON text)
    binary: bool

    @abc.abstractmethod
    def encode(self, summary: Summary) -> Payload:
        """Serialize ``summary`` to this codec's payload form."""

    @abc.abstractmethod
    def decode(self, payload: Payload) -> Summary:
        """Reconstruct a summary from :meth:`encode` output."""


_CODECS: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its :attr:`~Codec.name`.

    Re-registering the same object is a no-op (module reloads); a
    *different* codec under an existing name raises.
    """
    existing = _CODECS.get(codec.name)
    if existing is not None and type(existing) is not type(codec):
        raise ValueError(
            f"codec name {codec.name!r} already registered to "
            f"{type(existing).__name__}"
        )
    _CODECS[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec by name."""
    try:
        return _CODECS[name]
    except KeyError:
        raise SerializationError(
            f"unknown codec {name!r}; registered: {sorted(_CODECS)}"
        ) from None


def registered_codecs() -> list:
    """Sorted list of all registered codec names."""
    return sorted(_CODECS)


# ---------------------------------------------------------------------------
# JSON envelope codecs
# ---------------------------------------------------------------------------


class _JsonCodec(Codec):
    """Shared machinery of the JSON envelope generations."""

    binary = False
    _version: int

    def encode(self, summary: Summary) -> str:
        try:
            return json.dumps(
                to_envelope(summary, version=self._version), separators=(",", ":")
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"summary state of {type(summary).__name__} is not "
                f"JSON-compatible: {exc}"
            ) from exc

    def decode(self, payload: Payload) -> Summary:
        if isinstance(payload, bytes):
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SerializationError(f"invalid JSON payload: {exc}") from exc
        try:
            envelope = json.loads(payload)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser's stack
            raise SerializationError(f"invalid JSON payload: {exc!r}") from exc
        return from_envelope(envelope)


class JsonCodecV1(_JsonCodec):
    """Legacy checksum-less envelope (format 1); decodes any envelope."""

    name = "json.v1"
    _version = 1


_CHECKSUM_SUFFIX = b',"checksum":'


def trailing_checksum(data: bytes) -> Optional[Tuple[int, int]]:
    """``(offset, N)`` when ``data`` ends in ``,"checksum":N}`` with ``N``
    written as a JSON integer, ``offset`` being where that suffix starts;
    ``None`` otherwise.

    The canonical writers splice their checksum in last this way: the
    ``json.v2`` envelope and the store manifest.
    """
    end = data.rfind(_CHECKSUM_SUFFIX)
    digits = data[end + len(_CHECKSUM_SUFFIX) : -1]
    if (
        end < 0
        or not data.endswith(b"}")
        or not digits.isdigit()
        or (digits[:1] == b"0" and len(digits) > 1)
    ):
        return None
    return end, int(digits)


#: how :meth:`JsonCodecV2.encode` starts a payload,
#: ``{"format":2,"type":"<name>","state":<canonical state>,"checksum":N}``
_V2_HEAD = b'{"format":2,"type":"'
_V2_STATE = b'","state":'
#: a type name that stands for itself inside a JSON string
_PLAIN_NAME = re.compile(rb"[\w.\-]+")


def _stored_state(payload: Payload) -> Optional[Tuple[str, Any]]:
    """``(type name, state)`` of a payload in the layout ``encode`` writes
    whose CRC over the state bytes, as stored, matches its checksum.

    ``None`` for any other payload, including one whose state slice
    fails the CRC or does not parse: the caller then runs the full
    envelope check, so this path decides nothing that check would not.
    """
    if isinstance(payload, str):
        try:
            payload = payload.encode("utf-8")
        except UnicodeEncodeError:
            return None
    elif not isinstance(payload, bytes):
        return None
    if not payload.startswith(_V2_HEAD):
        return None
    start = payload.find(_V2_STATE, len(_V2_HEAD))
    tail = trailing_checksum(payload)
    if start < 0 or tail is None or tail[0] <= start + len(_V2_STATE):
        return None
    end, checksum = tail
    name = payload[len(_V2_HEAD) : start]
    if not _PLAIN_NAME.fullmatch(name):
        return None
    stored = memoryview(payload)[start + len(_V2_STATE) : end]
    if zlib.crc32(stored) != checksum:
        return None
    try:
        state = json.loads(str(stored, "utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError
        return None
    return name.decode("ascii"), state


class JsonCodecV2(_JsonCodec):
    """Current JSON envelope: format 2 with CRC32 state checksum."""

    name = "json.v2"
    _version = 2

    def encode(self, summary: Summary) -> str:
        # the same bytes as dumping to_envelope() with the state's keys
        # sorted, but the state is serialized once: its canonical text is
        # both what the checksum covers and what the envelope carries
        name, canonical = _canonical_payload(summary)
        checksum = zlib.crc32(canonical.encode("utf-8"))
        return (
            f'{{"format":2,"type":{json.dumps(name)},"state":{canonical},'
            f'"checksum":{checksum}}}'
        )

    def decode(self, payload: Payload) -> Summary:
        stored = _stored_state(payload)
        if stored is None:
            # any other layout (older writers, format 1, damage): parse
            # the whole envelope and check the re-encoded state
            return super().decode(payload)
        return _restore(*stored)


# ---------------------------------------------------------------------------
# Compact binary codec
# ---------------------------------------------------------------------------

#: 4-byte magic marking a binary.v1 payload
_BINARY_MAGIC = b"RPBC"
#: header after the magic: version, type-name length, CRC32 of the
#: canonical state JSON, raw body length, compressed body length
_BINARY_HEADER = struct.Struct("!BHIII")


class BinaryCodecV1(Codec):
    """Struct-packed header + zlib-compressed canonical state JSON.

    Layout::

        magic    4s   b"RPBC"
        version  B    1
        name_len H    length of the UTF-8 registry name
        checksum I    CRC32 of the canonical state JSON (same CRC as
                      the json.v2 envelope, so integrity is comparable
                      across codecs)
        raw_len  I    uncompressed body length
        comp_len I    compressed body length
        name     name_len bytes
        body     comp_len bytes (zlib)
    """

    name = "binary.v1"
    binary = True
    _version = 1

    def encode(self, summary: Summary) -> bytes:
        type_name, canonical = _canonical_payload(summary)
        raw = canonical.encode("utf-8")
        body = zlib.compress(raw, level=6)
        name_bytes = type_name.encode("utf-8")
        header = _BINARY_HEADER.pack(
            self._version,
            len(name_bytes),
            zlib.crc32(raw) & 0xFFFFFFFF,
            len(raw),
            len(body),
        )
        return _BINARY_MAGIC + header + name_bytes + body

    def decode(self, payload: Payload) -> Summary:
        if not isinstance(payload, (bytes, bytearray)):
            raise SerializationError(
                "binary.v1 expects a bytes payload, got "
                f"{type(payload).__name__}"
            )
        payload = bytes(payload)
        prefix_len = len(_BINARY_MAGIC) + _BINARY_HEADER.size
        if len(payload) < prefix_len or not payload.startswith(_BINARY_MAGIC):
            raise SerializationError("malformed binary payload: bad magic")
        version, name_len, checksum, raw_len, comp_len = _BINARY_HEADER.unpack(
            payload[len(_BINARY_MAGIC) : prefix_len]
        )
        if version != self._version:
            raise SerializationError(
                f"unsupported binary codec version {version} (supported: 1)"
            )
        if len(payload) != prefix_len + name_len + comp_len:
            raise SerializationError(
                "malformed binary payload: truncated or trailing bytes"
            )
        try:
            type_name = payload[prefix_len : prefix_len + name_len].decode("utf-8")
            raw = zlib.decompress(payload[prefix_len + name_len :])
        except (UnicodeDecodeError, zlib.error) as exc:
            raise SerializationError(f"corrupt binary payload: {exc}") from exc
        if len(raw) != raw_len or (zlib.crc32(raw) & 0xFFFFFFFF) != checksum:
            raise SerializationError(
                "payload checksum mismatch: summary state corrupted in "
                "transit or at rest"
            )
        try:
            state = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise SerializationError(f"invalid binary state JSON: {exc!r}") from exc
        return _restore(type_name, state)


register_codec(JsonCodecV1())
register_codec(JsonCodecV2())
register_codec(BinaryCodecV1())


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


def encode_summary(summary: Summary, codec: str = DEFAULT_CODEC) -> Payload:
    """Serialize ``summary`` with the named codec."""
    return get_codec(codec).encode(summary)


def decode_summary(payload: Payload) -> Summary:
    """Deserialize a payload produced by *any* registered codec.

    The codec is sniffed from the payload itself: the binary magic
    selects ``binary.v1``; anything else is treated as a JSON envelope
    (both pre-refactor generations, format 1 and format 2, decode).
    """
    if isinstance(payload, (bytes, bytearray)) and bytes(payload).startswith(
        _BINARY_MAGIC
    ):
        return get_codec("binary.v1").decode(payload)
    return get_codec("json.v2").decode(payload)


def dumps(summary: Summary, codec: str = DEFAULT_CODEC) -> Payload:
    """Serialize ``summary`` with the named codec (default: ``json.v2``).

    Returns ``str`` for the JSON codecs and ``bytes`` for binary ones.
    """
    return encode_summary(summary, codec)


def loads(payload: Payload) -> Summary:
    """Deserialize a payload produced by any registered codec."""
    return decode_summary(payload)
