"""Exact frequency counter — ground truth and trivially mergeable baseline.

Keeps one counter per distinct item (space ``Theta(d)`` for ``d``
distinct items), so it is *not* a sublinear summary; it exists as the
oracle against which every sketch's error is measured, and as the
degenerate "mergeable with zero error, unbounded size" corner of the
size/error trade-off the paper's Table 1 maps out.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

from ..core.base import Summary, normalize_batch
from ..core.exceptions import ParameterError
from ..core.items import plain
from ..core.registry import register_summary

__all__ = ["ExactCounter"]


@register_summary("exact_counter")
class ExactCounter(Summary):
    """Exact per-item frequency counts (the ground-truth oracle)."""

    def __init__(self) -> None:
        super().__init__()
        self._counts: Counter = Counter()

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        self._counts[item] += weight
        self._n += weight

    def update_batch(self, items, weights=None) -> None:
        items, weights, total = normalize_batch(items, weights)
        if weights is None:
            self._counts.update(
                items.tolist() if hasattr(items, "tolist") else items
            )
        else:
            for item, weight in zip(items, weights.tolist()):
                self._counts[plain(item)] += weight
        self._n += total

    def estimate(self, item: Any) -> int:
        """Exact frequency of ``item`` (0 if never seen)."""
        return self._counts.get(item, 0)

    def lower_bound(self, item: Any) -> int:
        return self.estimate(item)

    def upper_bound(self, item: Any) -> int:
        return self.estimate(item)

    @property
    def deduction(self) -> int:
        """Exact counts carry no error."""
        return 0

    def counters(self) -> Dict[Any, int]:
        return dict(self._counts)

    def __contains__(self, item: Any) -> bool:
        return item in self._counts

    def size(self) -> int:
        return len(self._counts)

    def heavy_hitters(self, phi: float) -> Dict[Any, int]:
        """Items with true frequency ``>= phi * n`` (exact, no candidates)."""
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        threshold = phi * self._n
        return {
            item: count for item, count in self._counts.items() if count >= threshold
        }

    def _merge_same_type(self, other: "Summary") -> None:
        assert isinstance(other, ExactCounter)
        self._counts.update(other._counts)
        self._n += other._n

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "counts": [[plain(item), c] for item, c in self._counts.items()],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExactCounter":
        summary = cls()
        summary._counts = Counter({item: c for item, c in payload["counts"]})
        summary._n = payload["n"]
        return summary
