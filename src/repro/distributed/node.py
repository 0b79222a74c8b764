"""A simulated aggregation node.

Each node owns a local data shard, builds its local summary, and — when
the merge schedule says so — receives a child's *serialized* summary,
deserializes it, and merges it in.  Serializing on every hop is how a
real deployment works and doubles as a continuous integration test of
the wire format; it can be disabled for speed.

Under fault injection a node also acts as a *parent* in the
exactly-once protocol: give it a :class:`~repro.engine.faults.MergeLedger`
and every absorb carries a delivery ID; redeliveries of an
already-merged summary (the at-least-once retry hazard) are witnessed
in the ledger and skipped instead of double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Summary
from ..core.codecs import DEFAULT_CODEC, decode_summary, encode_summary
from ..engine.faults import MergeLedger

__all__ = ["Node"]


@dataclass
class Node:
    """One participant in a simulated distributed aggregation."""

    node_id: int
    shard: np.ndarray
    summary: Optional[Summary] = None
    #: payload bytes "sent" upstream by this node, counting each summary
    #: generation once (0 until it ships its summary)
    bytes_sent: int = 0
    #: extra bytes from retransmissions of an already-serialized
    #: generation (retry/duplicate overhead, not payload)
    bytes_retransmitted: int = 0
    merges_performed: int = field(default=0)
    #: delivery IDs already merged (exactly-once dedup); None = no dedup
    ledger: Optional[MergeLedger] = None
    #: redeliveries suppressed by the ledger
    duplicates_ignored: int = 0

    #: optional per-record multiplicities aligned with ``shard`` (a
    #: pre-aggregated shard: distinct values + counts)
    shard_weights: Optional[np.ndarray] = None

    #: wire codec this node emits (any :mod:`repro.core.codecs` name);
    #: absorb sniffs the payload, so mixed-codec fleets interoperate
    codec: str = DEFAULT_CODEC

    #: serialized payload of the current summary generation (keyed on
    #: ``merges_performed``), so retransmissions reuse the exact bytes
    #: the first attempt shipped instead of re-serializing
    _payload_cache: Optional[Tuple[int, Any]] = field(
        default=None, repr=False, compare=False
    )

    def build(self, summary_factory: Callable[[], Summary]) -> Summary:
        """Build the local summary over this node's shard.

        Leaf ingestion is batched: the whole shard goes through the
        summary's ``update_batch`` fast path in one call (weighted when
        ``shard_weights`` is set).
        """
        self.summary = summary_factory()
        self.summary.update_batch(self.shard, self.shard_weights)
        self._payload_cache = None
        return self.summary

    def emit(self, serialize: bool = True) -> Any:
        """Ship this node's summary upstream (optionally over the wire format).

        Each summary generation (identified by ``merges_performed``) is
        serialized once; re-emitting the same generation — a fault-loop
        retransmission or an injected duplicate — reuses the cached
        bytes and is accounted in :attr:`bytes_retransmitted` instead of
        :attr:`bytes_sent`, so ``bytes_sent`` reports true payload and
        the retry overhead stays separable.
        """
        if self.summary is None:
            raise RuntimeError(f"node {self.node_id} has no summary built")
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
        """Merge a child's emitted summary into this node's summary.

        Returns ``True`` when the child was merged, ``False`` when the
        ledger recognized ``delivery_id`` as already merged (duplicate
        delivery) and the merge was skipped.  Deserialization happens
        first, so a corrupted payload raises
        :class:`~repro.core.exceptions.SerializationError` before any
        bookkeeping — a NACK in a real transport.
        """
        if self.summary is None:
            raise RuntimeError(f"node {self.node_id} has no summary built")
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
        """Merge a whole fan-in of child summaries in one k-way pass.

        Semantically a loop of :meth:`absorb`, but the merge itself goes
        through :meth:`~repro.core.base.Summary.merge_many`, so the
        parent pays one combine/compaction for the group.  Returns the
        number of children actually merged (ledger-deduped redeliveries
        are skipped, as in :meth:`absorb`).
        """
        if self.summary is None:
            raise RuntimeError(f"node {self.node_id} has no summary built")
        children: List[Summary] = []
        fresh_ids: List[str] = []
        for i, payload in enumerate(payloads):
            child = decode_summary(payload) if serialized else payload
            delivery_id = delivery_ids[i] if delivery_ids is not None else None
            if delivery_id is not None and self.ledger is not None:
                if delivery_id in self.ledger:
                    self.duplicates_ignored += 1
                    continue
                fresh_ids.append(delivery_id)
            children.append(child)
        if children:
            self.summary.merge_many(children)
            self.merges_performed += len(children)
        if self.ledger is not None:
            for delivery_id in fresh_ids:
                self.ledger.witness(delivery_id)
        return len(children)
