"""Fault injection for distributed aggregation: loss, crash, dup, corruption.

The paper guarantees that merge *order* cannot degrade a mergeable
summary; a real deployment additionally faces an unreliable transport.
This module models the four classic failure modes of an aggregation
fabric, each with an independent probability drawn from one seeded RNG:

- **message loss** — an emitted summary never arrives (dropped packet,
  transient partition);
- **node crash** — a node dies and its accumulated subtree is gone;
- **duplicate delivery** — a retransmission arrives after the original
  was already merged (the at-least-once hazard);
- **payload corruption** — bits flip in transit; detected end-to-end by
  the CRC32 checksum in the wire envelope.

Retries upgrade loss to at-least-once delivery; the :class:`MergeLedger`
(delivery IDs witnessed at each parent) upgrades at-least-once delivery
to **exactly-once merge** semantics, which is what additive summaries
(MG, CountMin, quantiles) need — lattice summaries get it for free from
idempotence.  :class:`RetryPolicy` models the exponential-backoff loop;
delays are *accounted*, never slept, so simulations stay fast.

:func:`deliver` is the one retry loop over this fabric.  The merge
engine's :func:`~repro.engine.execute_plan` runs every fault-injected
plan step through it (a ``merge_all`` fold, a simulator schedule), and
so does the continuous coordinator of
:mod:`repro.distributed.continuous`.  :mod:`repro.distributed` exports
these primitives as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Set

from ..core.exceptions import ParameterError, SerializationError
from ..core.rng import RngLike, resolve_rng

__all__ = [
    "FaultModel",
    "FaultStats",
    "MergeLedger",
    "RetryPolicy",
    "corrupt_payload",
    "deliver",
]


def corrupt_payload(payload: str, rng) -> str:
    """Flip one digit of a wire payload to a different digit.

    Mutating a digit guarantees detection: it lands either in the state
    (checksum mismatch), in the checksum itself (mismatch), or in the
    format version (unsupported version) — every case surfaces as
    :class:`~repro.core.exceptions.SerializationError` at the receiver.
    """
    positions = [i for i, c in enumerate(payload) if c.isdigit()]
    if not positions:  # no digits to flip: truncate instead
        return payload[: max(1, len(payload) // 2)]
    i = int(positions[int(rng.integers(len(positions)))])
    old = int(payload[i])
    new = (old + 1 + int(rng.integers(9))) % 10  # never equals old
    return payload[:i] + str(new) + payload[i + 1 :]


@dataclass
class FaultModel:
    """Independent fault probabilities plus the RNG that drives them.

    Each ``draw_*`` method consumes randomness only when its probability
    is non-zero, so a model with a single active fault is reproducible
    regardless of the other knobs.
    """

    loss: float = 0.0
    crash: float = 0.0
    duplicate: float = 0.0
    corruption: float = 0.0
    #: probability, per merged delta, that the *coordinator* dies
    #: mid-epoch (continuous aggregation only; recovered via checkpoint)
    coordinator_crash: float = 0.0
    rng: RngLike = None

    def __post_init__(self) -> None:
        for name in ("loss", "crash", "duplicate", "corruption", "coordinator_crash"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value!r}")
        self._rng = resolve_rng(self.rng)

    def _draw(self, probability: float) -> bool:
        return probability > 0.0 and float(self._rng.random()) < probability

    def draw_loss(self) -> bool:
        return self._draw(self.loss)

    def draw_crash(self) -> bool:
        return self._draw(self.crash)

    def draw_duplicate(self) -> bool:
        return self._draw(self.duplicate)

    def draw_corruption(self) -> bool:
        return self._draw(self.corruption)

    def draw_coordinator_crash(self) -> bool:
        return self._draw(self.coordinator_crash)

    def corrupt(self, payload: str) -> str:
        """Corrupt ``payload`` using this model's RNG."""
        return corrupt_payload(payload, self._rng)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry loop for one summary delivery.

    Attempt 1 is immediate; attempt ``k`` waits
    ``min(max_delay, base_delay * factor**(k-2))``.  The simulator adds
    the waits to :attr:`FaultStats.backoff_seconds` instead of sleeping.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0:
            raise ParameterError(f"base_delay must be >= 0, got {self.base_delay!r}")
        if self.factor < 1.0:
            raise ParameterError(f"factor must be >= 1, got {self.factor!r}")

    def delay_before(self, attempt: int) -> float:
        """Backoff before the given 1-based attempt (0 for the first)."""
        if attempt <= 1:
            return 0.0
        return min(self.max_delay, self.base_delay * self.factor ** (attempt - 2))

    def attempts(self) -> Iterator[int]:
        return iter(range(1, self.max_attempts + 1))


class MergeLedger:
    """Delivery IDs already merged at one parent (exactly-once bookkeeping).

    A retransmitted summary carries the same delivery ID as the
    original; :meth:`witness` returns ``False`` for it and the parent
    skips the merge.  The ledger serializes alongside the coordinator
    summary in a checkpoint so dedup state survives recovery.
    """

    def __init__(self, ids: Iterable[str] = ()) -> None:
        self._seen: Set[str] = set(ids)

    def __contains__(self, delivery_id: str) -> bool:
        return delivery_id in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def witness(self, delivery_id: str) -> bool:
        """Record ``delivery_id``; return True iff it was new."""
        if delivery_id in self._seen:
            return False
        self._seen.add(delivery_id)
        return True

    def to_list(self) -> List[str]:
        return sorted(self._seen)

    @classmethod
    def from_list(cls, ids: Iterable[str]) -> "MergeLedger":
        return cls(ids)


@dataclass
class FaultStats:
    """What the fault injector actually did during one run."""

    attempts: int = 0
    retries: int = 0
    messages_lost: int = 0
    corrupted_payloads: int = 0
    corruption_detected: int = 0
    duplicates_delivered: int = 0
    #: duplicate actually merged twice (only possible with the ledger off)
    duplicates_merged: int = 0
    #: duplicate suppressed by the merge ledger
    duplicates_suppressed: int = 0
    #: deliveries abandoned after the retry budget ran out
    deliveries_failed: int = 0
    nodes_crashed: int = 0
    #: accounted (not slept) exponential-backoff time
    backoff_seconds: float = 0.0
    crashed_nodes: List[int] = field(default_factory=list)


def deliver(
    emit: Callable[[], Any],
    land: Callable[[Any], bool],
    faults: FaultModel,
    policy: RetryPolicy,
    stats: FaultStats,
    serialize: bool,
    on_arrival: Optional[Callable[[], None]] = None,
) -> bool:
    """Ship one payload through the lossy fabric; True iff it landed.

    ``emit()`` produces each attempt's payload.  A slot's ``emit``
    caches its bytes, so a retransmission resends exactly what the
    first attempt shipped.  ``land(payload)`` merges at the receiver
    and returns False when the receiver's ledger recognizes a
    redelivery; a :class:`~repro.core.exceptions.SerializationError`
    from it is the receiver's NACK and costs another attempt.

    Every attempt is counted in ``stats`` and preceded by its accounted
    backoff.  It may be lost, or corrupted when ``serialize`` is set.
    ``on_arrival()`` runs when a payload reaches the receiver, before
    it lands; the continuous coordinator draws its crash there.  After
    the ACK, an injected duplicate may arrive and land again.
    """
    for attempt in policy.attempts():
        stats.attempts += 1
        if attempt > 1:
            stats.retries += 1
            stats.backoff_seconds += policy.delay_before(attempt)
        payload = emit()
        if faults.draw_loss():
            stats.messages_lost += 1
            continue
        if serialize and faults.draw_corruption():
            payload = faults.corrupt(payload)
            stats.corrupted_payloads += 1
        if on_arrival is not None:
            on_arrival()
        try:
            merged = land(payload)
        except SerializationError:
            stats.corruption_detected += 1
            continue
        if not merged:
            stats.duplicates_suppressed += 1
        # a late retransmission can still arrive after the ACKed original
        if faults.draw_duplicate():
            stats.duplicates_delivered += 1
            if land(emit()):
                stats.duplicates_merged += 1
            else:
                stats.duplicates_suppressed += 1
        return True
    stats.deliveries_failed += 1
    return False
