"""Slot agents: the uniform participant protocol the executor speaks.

:func:`~repro.engine.execute_plan` never merges values directly — every
slot is held by an *agent* exposing the protocol the distributed
:class:`~repro.distributed.node.Node` pioneered:

- ``emit(serialize)`` — ship the slot's value (optionally through the
  wire codec, with per-generation payload caching so retransmissions
  charge ``bytes_retransmitted`` instead of re-serializing);
- ``absorb(payload, serialized, delivery_id)`` / ``absorb_many(...)`` —
  merge one child or a k-way fan-in, deduplicating via the optional
  :class:`~repro.engine.faults.MergeLedger`;
- ``merges_performed`` / ``bytes_sent`` / ``bytes_retransmitted`` —
  the counters the execution report aggregates.

:func:`wrap_slot` adapts whatever the caller passed as an input:
anything already agent-shaped (a ``Node``) passes through; a
:class:`~repro.core.base.Summary` gets a :class:`SummarySlot`; a store
segment (duck-typed on ``members``/``segment_id``, so this module never
imports :mod:`repro.store`) gets a :class:`SegmentSlot` whose merges
mirror :func:`repro.store.segment.merged_segment` member for member.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.base import Summary
from ..core.codecs import DEFAULT_CODEC, decode_summary, encode_summary
from ..core.exceptions import ParameterError
from .faults import MergeLedger

__all__ = [
    "SummarySlot",
    "SegmentSlot",
    "wrap_slot",
    "slot_value",
    "set_slot_value",
    "slot_size",
    "is_segment",
]


def is_segment(value: Any) -> bool:
    """Duck-typed store-segment check (no :mod:`repro.store` import)."""
    return hasattr(value, "members") and hasattr(value, "segment_id")


class SummarySlot:
    """Agent wrapping a bare :class:`~repro.core.base.Summary`.

    Mirrors ``Node``'s emit/absorb bookkeeping (payload cache keyed on
    the merge generation, bytes split into payload vs retransmission,
    ledger dedup) minus the shard/build machinery — a fold input has no
    data of its own to ingest.
    """

    __slots__ = (
        "summary",
        "codec",
        "ledger",
        "bytes_sent",
        "bytes_retransmitted",
        "merges_performed",
        "duplicates_ignored",
        "_payload_cache",
    )

    def __init__(
        self,
        summary: Summary,
        codec: str = DEFAULT_CODEC,
        ledger: Optional[MergeLedger] = None,
    ) -> None:
        self.summary = summary
        self.codec = codec
        self.ledger = ledger
        self.bytes_sent = 0
        self.bytes_retransmitted = 0
        self.merges_performed = 0
        self.duplicates_ignored = 0
        self._payload_cache: Optional[Tuple[int, Any]] = None

    @property
    def value(self) -> Summary:
        return self.summary

    def set_value(self, value: Summary) -> None:
        self.summary = value

    def emit(self, serialize: bool = True) -> Any:
        if not serialize:
            return self.summary
        generation = self.merges_performed
        cached = self._payload_cache
        if cached is not None and cached[0] == generation:
            self.bytes_retransmitted += len(cached[1])
            return cached[1]
        payload = encode_summary(self.summary, self.codec)
        self._payload_cache = (generation, payload)
        self.bytes_sent += len(payload)
        return payload

    def absorb(
        self,
        payload: Any,
        serialized: bool = True,
        delivery_id: Optional[str] = None,
    ) -> bool:
        child = decode_summary(payload) if serialized else payload
        if delivery_id is not None and self.ledger is not None:
            if delivery_id in self.ledger:
                self.duplicates_ignored += 1
                return False
        self.summary.merge(child)
        self.merges_performed += 1
        if delivery_id is not None and self.ledger is not None:
            self.ledger.witness(delivery_id)
        return True

    def absorb_many(
        self,
        payloads: Sequence[Any],
        serialized: bool = True,
        delivery_ids: Optional[Sequence[str]] = None,
    ) -> int:
        if delivery_ids is None or self.ledger is None:
            # fast path: no dedup bookkeeping to thread through
            children = (
                [decode_summary(p) for p in payloads]
                if serialized
                else list(payloads)
            )
            if children:
                self.summary.merge_many(children)
                self.merges_performed += len(children)
            return len(children)
        children: List[Summary] = []
        fresh_ids: List[str] = []
        for i, payload in enumerate(payloads):
            child = decode_summary(payload) if serialized else payload
            delivery_id = delivery_ids[i]
            if delivery_id is not None:
                if delivery_id in self.ledger:
                    self.duplicates_ignored += 1
                    continue
                fresh_ids.append(delivery_id)
            children.append(child)
        if children:
            self.summary.merge_many(children)
            self.merges_performed += len(children)
        for delivery_id in fresh_ids:
            self.ledger.witness(delivery_id)
        return len(children)


class SegmentSlot:
    """Agent wrapping a store segment (one summary per member).

    Every merge goes member-wise through ``merge_many`` — including
    single-child fan-ins — because that is exactly what
    :func:`repro.store.segment.merged_segment` does, and compaction
    results must stay byte-identical to it.  Segments never cross the
    wire inside a compaction, so serialized emission is a usage error.
    """

    __slots__ = (
        "segment",
        "ledger",
        "bytes_sent",
        "bytes_retransmitted",
        "merges_performed",
        "duplicates_ignored",
    )

    def __init__(self, segment: Any, ledger: Optional[MergeLedger] = None) -> None:
        self.segment = segment
        self.ledger = ledger
        self.bytes_sent = 0
        self.bytes_retransmitted = 0
        self.merges_performed = 0
        self.duplicates_ignored = 0

    @property
    def value(self) -> Any:
        return self.segment

    def set_value(self, value: Any) -> None:
        self.segment = value

    def emit(self, serialize: bool = True) -> Any:
        if serialize:
            raise ParameterError(
                "segments do not serialize through the engine wire path; "
                "execute segment plans with serialize=False"
            )
        return self.segment

    def absorb(
        self,
        payload: Any,
        serialized: bool = False,
        delivery_id: Optional[str] = None,
    ) -> bool:
        if serialized:
            raise ParameterError("segment slots absorb segment objects only")
        if delivery_id is not None and self.ledger is not None:
            if delivery_id in self.ledger:
                self.duplicates_ignored += 1
                return False
        merge_segment_into(self.segment, [payload])
        self.merges_performed += 1
        if delivery_id is not None and self.ledger is not None:
            self.ledger.witness(delivery_id)
        return True

    def absorb_many(
        self,
        payloads: Sequence[Any],
        serialized: bool = False,
        delivery_ids: Optional[Sequence[str]] = None,
    ) -> int:
        if serialized:
            raise ParameterError("segment slots absorb segment objects only")
        if delivery_ids is None or self.ledger is None:
            children = list(payloads)
            fresh_ids: List[str] = []
        else:
            children = []
            fresh_ids = []
            for i, payload in enumerate(payloads):
                delivery_id = delivery_ids[i]
                if delivery_id is not None:
                    if delivery_id in self.ledger:
                        self.duplicates_ignored += 1
                        continue
                    fresh_ids.append(delivery_id)
                children.append(payload)
        # merged_segment calls merge_many(parts[1:]) unconditionally, so a
        # seeded roll-up with no remaining parts still makes the (empty)
        # member-wise merge_many calls — keep that byte-for-byte
        merge_segment_into(self.segment, children)
        self.merges_performed += len(children)
        for delivery_id in fresh_ids:
            self.ledger.witness(delivery_id)
        return len(children)


def merge_segment_into(segment: Any, parts: Sequence[Any]) -> Any:
    """K-way merge ``parts`` into ``segment``, member for member.

    One ``merge_many`` per member for the whole group, mirroring
    :func:`repro.store.segment.merged_segment` (which also issues the
    call for empty groups — some summaries normalize state on any
    merge pass, and roll-ups must not depend on group size).
    """
    for name in segment.members:
        segment.members[name].merge_many([p.members[name] for p in parts])
    segment.count += sum(p.count for p in parts)
    return segment


def wrap_slot(value: Any) -> Any:
    """Adapt an input value to the agent protocol.

    Agent-shaped objects (``emit`` + ``absorb``) pass through — this is
    how the simulator's ``Node`` list plugs in with its shard/byte
    bookkeeping intact.
    """
    if isinstance(value, Summary):  # the common case, checked first
        return SummarySlot(value)
    if hasattr(value, "emit") and hasattr(value, "absorb"):
        return value
    if is_segment(value):
        return SegmentSlot(value)
    if hasattr(value, "merge") and hasattr(value, "merge_many"):
        return SummarySlot(value)
    raise ParameterError(
        f"cannot execute over slot value of type {type(value).__name__}: "
        "expected a Summary, a store segment, or an agent with emit/absorb"
    )


def slot_value(agent: Any) -> Any:
    """The value currently held by an agent (``None`` before build)."""
    if isinstance(agent, (SummarySlot, SegmentSlot)):
        return agent.value
    return agent.summary


def set_slot_value(agent: Any, value: Any) -> None:
    """Install a freshly built value into an agent."""
    if isinstance(agent, (SummarySlot, SegmentSlot)):
        agent.set_value(value)
    else:
        agent.summary = value


def slot_size(agent: Any) -> int:
    """Summary size of a slot (summed over members for segments)."""
    value = slot_value(agent)
    if value is None:
        return 0
    if is_segment(value):
        return sum(member.size() for member in value.members.values())
    return value.size()
