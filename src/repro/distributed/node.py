"""A simulated aggregation node.

Each node owns a local data shard, builds its local summary, and — when
the merge schedule says so — receives a child's *serialized* summary,
deserializes it, and merges it in.  Serializing on every hop is how a
real deployment works and doubles as a continuous integration test of
the wire format; it can be disabled for speed.

Everything but the shard comes from the engine's one slot agent,
:class:`~repro.engine.agents.SummarySlot`: the payload cache that makes
retransmissions resend the first attempt's bytes, the byte counters,
and the exactly-once protocol — give a node a
:class:`~repro.engine.faults.MergeLedger` and redeliveries of an
already-merged delivery ID are witnessed and skipped instead of
double-counted.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core import Summary
from ..core.codecs import DEFAULT_CODEC
from ..engine.agents import SummarySlot
from ..engine.faults import MergeLedger

__all__ = ["Node"]


class Node(SummarySlot):
    """One participant in a simulated distributed aggregation.

    ``shard_weights`` optionally carries per-record multiplicities
    aligned with ``shard`` (a pre-aggregated shard: distinct values +
    counts).
    """

    __slots__ = ("node_id", "shard", "shard_weights")

    def __init__(
        self,
        node_id: int,
        shard: np.ndarray,
        summary: Optional[Summary] = None,
        ledger: Optional[MergeLedger] = None,
        shard_weights: Optional[np.ndarray] = None,
        codec: str = DEFAULT_CODEC,
    ) -> None:
        super().__init__(summary, codec, ledger)
        self.node_id = node_id
        self.shard = shard
        self.shard_weights = shard_weights

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

    def _require_summary(self) -> None:
        if self.summary is None:
            raise RuntimeError(f"node {self.node_id} has no summary built")

    def emit(self, serialize: bool = True) -> Any:
        self._require_summary()
        return super().emit(serialize)

    def absorb(
        self,
        payload: Any,
        serialized: bool = True,
        delivery_id: Optional[str] = None,
    ) -> bool:
        self._require_summary()
        return super().absorb(payload, serialized, delivery_id)

    def absorb_many(self, payloads: Sequence[Any], serialized: bool = True) -> int:
        self._require_summary()
        return super().absorb_many(payloads, serialized)
