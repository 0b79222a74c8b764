"""The Misra-Gries (MG) frequency summary and its mergeable merge.

The MG summary with ``k`` counters processes a stream of ``n`` item
occurrences and guarantees, for every item ``x`` with true frequency
``f(x)``::

    f(x) - n/(k+1)  <=  estimate(x)  <=  f(x)

The central result reproduced here is the paper's Theorem (Section 2):
MG summaries are **fully mergeable**.  Two MG summaries with ``k``
counters merge into one MG summary with ``k`` counters whose error bound
is ``(n1 + n2)/(k+1)`` — i.e. exactly the bound of a single-stream
summary over the union, regardless of how many merges produced the
operands.  The merge is *combine + prune*:

1. combine: add the two counter sets item-wise (no error);
2. prune: if more than ``k`` counters remain, subtract the ``(k+1)``-st
   largest counter value from every counter and drop the non-positive
   ones (at most ``k`` survive).

The proof tracks the invariant ``(k+1) * deduction <= n - stored_mass``
which this implementation maintains explicitly and tests verify.

Implementation notes
--------------------
Updates use the standard lazy-decrement technique: instead of physically
subtracting the decrement from every counter (``O(k)`` per decrement
event), a global decrement accumulator ``D`` is kept and counters store
``value + D_at_insert``.  A min-heap with lazy deletion finds the
minimum surviving counter in ``O(log k)`` amortized time, so updates are
``O(log k)`` amortized instead of ``O(k)``.  The heap is built on first
use: merges, copies and decodes never read it, so they do not build it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.base import Summary, normalize_batch
from ..core.exceptions import ParameterError
from ..core.items import plain
from ..core.registry import register_summary
from .prune import get_prune_rule, prune_cafaro

__all__ = ["MisraGries"]


@register_summary("misra_gries")
class MisraGries(Summary):
    """Misra-Gries heavy-hitter summary with ``k`` counters.

    Parameters
    ----------
    k:
        Number of counters (``k >= 1``).  For a target error ``eps`` use
        :meth:`from_epsilon`, which picks ``k = ceil(1/eps)`` so that the
        guaranteed error ``n/(k+1)`` is below ``eps * n``.

    Attributes
    ----------
    deduction:
        Upper bound on the under-estimation of any item's frequency;
        never exceeds ``n / (k+1)``, including across arbitrary merges.
    """

    def __init__(self, k: int, prune_rule: str = "paper") -> None:
        super().__init__()
        if not isinstance(k, int) or k < 1:
            raise ParameterError(f"k must be a positive integer, got {k!r}")
        self.k = k
        self.prune_rule = prune_rule
        self._prune = get_prune_rule(prune_rule)
        # item -> stored value + decrement level at insertion time
        self._adjusted: Dict[Any, int] = {}
        # global decrement accumulator: actual(x) = adjusted(x) - offset
        self._offset = 0
        # total decrement ever applied == max undercount of any item
        self._deduction = 0
        # min-heap of (adjusted_value, seq, item); the monotonic ``seq``
        # breaks value ties so heterogeneous item types never compare.
        # Entries go stale on updates (lazy deletion).  ``None`` means
        # not built yet: only updates on a full summary read the heap,
        # so merges, copies and decodes leave it to :meth:`_live_heap`.
        self._heap: Optional[List[Tuple[int, int, Any]]] = []
        self._heap_seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "MisraGries":
        """Summary guaranteeing error ``<= epsilon * n`` under any merges."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        return cls(k=math.ceil(1.0 / epsilon))

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------

    def update(self, item: Any, weight: int = 1) -> None:
        """Fold ``weight`` occurrences of ``item`` into the summary."""
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        self._n += weight
        adjusted = self._adjusted
        if item in adjusted:
            adjusted[item] += weight
            self._heap_push(item)
            self._compact_heap_if_needed()
            return
        if len(adjusted) < self.k:
            adjusted[item] = weight + self._offset
            self._heap_push(item)
            return
        # Summary full: decrement everyone (lazily) by the smaller of the
        # newcomer's weight and the minimum surviving counter value.
        minimum = self._current_min()
        decrement = min(weight, minimum)
        self._offset += decrement
        self._deduction += decrement
        if weight > decrement:
            adjusted[item] = weight + self._offset - decrement
            self._heap_push(item)
        self._evict_dead()

    def update_batch(self, items, weights=None) -> None:
        # pre-aggregate so each distinct item costs one weighted update
        # (O(log k) amortized) instead of one per occurrence
        items, weights, _ = normalize_batch(items, weights)
        aggregated: Counter = Counter()
        if weights is None:
            aggregated.update(
                items.tolist() if hasattr(items, "tolist") else items
            )
        else:
            for item, weight in zip(items, weights.tolist()):
                aggregated[plain(item)] += weight
        for item, weight in aggregated.items():
            self.update(item, weight)

    def _heap_push(self, item: Any) -> None:
        if self._heap is None:
            return  # unbuilt: _live_heap will read the counter from _adjusted
        self._heap_seq += 1
        heapq.heappush(self._heap, (self._adjusted[item], self._heap_seq, item))

    def _live_heap(self) -> List[Tuple[int, int, Any]]:
        """The heap, built from ``_adjusted`` first if it is unbuilt."""
        if self._heap is None:
            self._heap = [
                (value, seq, item)
                for seq, (item, value) in enumerate(self._adjusted.items())
            ]
            self._heap_seq = len(self._heap)
            heapq.heapify(self._heap)
        return self._heap

    def _current_min(self) -> int:
        """Actual value of the minimum live counter (summary full)."""
        heap, adjusted = self._live_heap(), self._adjusted
        while heap:
            value, _seq, item = heap[0]
            if adjusted.get(item) == value:
                return value - self._offset
            heapq.heappop(heap)  # stale entry
        raise AssertionError("heap empty while summary reported full")

    def _evict_dead(self) -> None:
        """Drop counters whose actual value reached zero."""
        heap, adjusted, offset = self._live_heap(), self._adjusted, self._offset
        while heap:
            value, _seq, item = heap[0]
            if adjusted.get(item) != value:
                heapq.heappop(heap)
                continue
            if value - offset > 0:
                return
            heapq.heappop(heap)
            del adjusted[item]

    def _compact_heap_if_needed(self) -> None:
        """Rebuild the heap when stale entries dominate it.

        Every counter touch pushes a fresh heap entry, so the heap can
        grow linearly with the stream; rebuilding once it exceeds a
        small multiple of ``k`` keeps memory ``O(k)`` without changing
        the amortized update cost.
        """
        if self._heap is not None and len(self._heap) > 8 * self.k + 16:
            self._heap = None
            self._live_heap()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def deduction(self) -> int:
        """Maximum possible under-estimation (the paper's error term)."""
        return self._deduction

    @property
    def error_bound(self) -> float:
        """The a-priori guarantee ``n / (k+1)`` (``deduction`` never exceeds it)."""
        return self._n / (self.k + 1)

    def estimate(self, item: Any) -> int:
        """Lower-bound frequency estimate (0 for unmonitored items)."""
        value = self._adjusted.get(item)
        if value is None:
            return 0
        return value - self._offset

    def lower_bound(self, item: Any) -> int:
        """Alias of :meth:`estimate` — MG never over-estimates."""
        return self.estimate(item)

    def upper_bound(self, item: Any) -> int:
        """Upper bound on the item's true frequency."""
        return self.estimate(item) + self._deduction

    def counters(self) -> Dict[Any, int]:
        """Snapshot of the monitored items and their estimates."""
        offset = self._offset
        if offset == 0:
            return dict(self._adjusted)
        return {item: value - offset for item, value in self._adjusted.items()}

    def __contains__(self, item: Any) -> bool:
        return item in self._adjusted

    def size(self) -> int:
        return len(self._adjusted)

    # ------------------------------------------------------------------
    # Merge (combine + prune, the paper's algorithm)
    # ------------------------------------------------------------------

    def compatible_with(self, other: "Summary") -> Optional[str]:
        assert isinstance(other, MisraGries)
        if other.k != self.k:
            return f"k mismatch: {self.k} vs {other.k}"
        if other.prune_rule != self.prune_rule:
            return f"prune rule mismatch: {self.prune_rule} vs {other.prune_rule}"
        return None

    def _merge_same_type(self, other: "Summary") -> None:
        assert isinstance(other, MisraGries)
        combined = self.counters()
        for item, value in other.counters().items():
            combined[item] = combined.get(item, 0) + value
        total_n = self._n + other._n
        pruned, cut = self._prune(combined, self.k)
        total_deduction = self._deduction + other._deduction + cut
        self._replace_state(pruned, total_n, total_deduction)

    def _merge_many_same_type(self, others: Sequence["Summary"]) -> None:
        # s-way combine + ONE prune.  A single prune cuts at most as
        # much as the s-1 sequential prunes would, so the invariant
        # (k+1) * deduction <= n - stored_mass still holds.
        combined = self.counters()
        total_n = self._n
        total_deduction = self._deduction
        for other in others:
            assert isinstance(other, MisraGries)
            offset = other._offset
            for item, value in other._adjusted.items():
                combined[item] = combined.get(item, 0) + value - offset
            total_n += other._n
            total_deduction += other._deduction
        if self._prune is prune_cafaro and len(combined) > 2 * self.k:
            # the Cafaro closed form takes the combine of two summaries
            # (at most 2k counters): fold the operands pairwise instead
            for other in others:
                self._merge_same_type(other)
            return
        pruned, cut = self._prune(combined, self.k)
        self._replace_state(pruned, total_n, total_deduction + cut)

    def _replace_state(
        self, counters: Dict[Any, int], n: int, deduction: int
    ) -> None:
        self._adjusted = dict(counters)
        self._offset = 0
        self._deduction = deduction
        self._n = n
        self._heap = None

    def copy(self) -> "MisraGries":
        clone = type(self)(self.k, self.prune_rule)
        clone._adjusted = dict(self._adjusted)
        clone._offset = self._offset
        clone._deduction = self._deduction
        clone._n = self._n
        clone._heap = None
        return clone

    # ------------------------------------------------------------------
    # Heavy hitters
    # ------------------------------------------------------------------

    def heavy_hitters(self, phi: float) -> Dict[Any, int]:
        """Candidates for items with true frequency ``>= phi * n``.

        Returns every monitored item whose *upper bound* reaches the
        threshold, so no true ``phi``-heavy hitter is missed (the
        classic no-false-negative guarantee); items with true frequency
        below ``(phi - 1/(k+1)) * n`` are guaranteed absent.
        """
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        threshold = phi * self._n
        return {
            item: estimate
            for item, estimate in self.counters().items()
            if estimate + self._deduction >= threshold
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "prune_rule": self.prune_rule,
            "n": self._n,
            "deduction": self._deduction,
            "counters": [
                [plain(item), value] for item, value in self.counters().items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MisraGries":
        summary = cls(k=payload["k"], prune_rule=payload.get("prune_rule", "paper"))
        counters = {item: value for item, value in payload["counters"]}
        summary._replace_state(counters, payload["n"], payload["deduction"])
        return summary
