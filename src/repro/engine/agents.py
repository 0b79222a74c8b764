"""Slot agents: the one participant protocol the executor speaks.

:func:`~repro.engine.execute_plan` never merges values directly — every
slot is held by a :class:`SummarySlot`, the agent the distributed
:class:`~repro.distributed.node.Node` extends with its shard:

- ``emit(serialize)`` — ship the slot's value (optionally through the
  wire codec, with per-generation payload caching so retransmissions
  charge ``bytes_retransmitted`` instead of re-serializing);
- ``absorb(payload, serialized, delivery_id)`` / ``absorb_many(...)`` —
  merge one child or a k-way fan-in, deduplicating single deliveries
  via the optional :class:`~repro.engine.faults.MergeLedger`;
- ``merges_performed`` / ``bytes_sent`` / ``bytes_retransmitted`` —
  the counters the execution report aggregates.

The slot's value is any merge operand — a
:class:`~repro.core.base.Summary` — or whatever a merge step's builder
returns (a store segment).  :func:`wrap_slot` passes a ``SummarySlot``
through and wraps any other value in one.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..core.codecs import DEFAULT_CODEC, decode_summary, encode_summary
from .faults import MergeLedger

__all__ = ["SummarySlot", "wrap_slot"]


class SummarySlot:
    """Agent holding one merge operand in :attr:`summary`.

    Keeps the payload cache keyed on the merge generation, the bytes
    split into payload vs retransmission, and the ledger dedup.
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
        summary: Any = None,
        codec: str = DEFAULT_CODEC,
        ledger: Optional[MergeLedger] = None,
    ) -> None:
        self.summary = summary
        #: wire codec this slot emits (any :mod:`repro.core.codecs` name);
        #: absorb sniffs the payload, so mixed-codec fleets interoperate
        self.codec = codec
        #: delivery IDs already merged (exactly-once dedup); None = no dedup
        self.ledger = ledger
        #: payload bytes emitted, counting each summary generation once
        self.bytes_sent = 0
        #: extra bytes from retransmissions of an already-serialized
        #: generation (retry/duplicate overhead, not payload)
        self.bytes_retransmitted = 0
        self.merges_performed = 0
        #: redeliveries suppressed by the ledger
        self.duplicates_ignored = 0
        #: serialized payload of the current generation (keyed on
        #: ``merges_performed``), so retransmissions reuse the exact
        #: bytes the first attempt shipped instead of re-serializing
        self._payload_cache: Optional[Tuple[int, Any]] = None

    def emit(self, serialize: bool = True) -> Any:
        """Ship the held value upstream (optionally over the wire format).

        Each generation (identified by ``merges_performed``) is
        serialized once; re-emitting it — a fault-loop retransmission
        or an injected duplicate — reuses the cached bytes and is
        accounted in :attr:`bytes_retransmitted`, so :attr:`bytes_sent`
        reports true payload.
        """
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
        """Merge one child's emitted value into the held value.

        Returns ``False`` when the ledger recognized ``delivery_id`` as
        already merged (a duplicate delivery) and the merge was
        skipped.  Deserialization happens first, so a corrupted payload
        raises :class:`~repro.core.exceptions.SerializationError`
        before any bookkeeping — a NACK in a real transport.
        """
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

    def absorb_many(self, payloads: Sequence[Any], serialized: bool = True) -> int:
        """Merge a whole fan-in in one k-way ``merge_many`` pass.

        The call is made even for an empty group.  Returns the number
        of children merged.
        """
        children = (
            [decode_summary(p) for p in payloads] if serialized else list(payloads)
        )
        self.summary.merge_many(children)
        self.merges_performed += len(children)
        return len(children)


def wrap_slot(value: Any) -> SummarySlot:
    """Adapt an input value to the agent protocol.

    A :class:`SummarySlot` (such as the simulator's ``Node``) passes
    through with its shard and byte bookkeeping intact; any other value
    is wrapped in a fresh one.
    """
    return value if isinstance(value, SummarySlot) else SummarySlot(value)
