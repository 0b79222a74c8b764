"""The SpaceSaving (SS) frequency summary, mergeable via the MG isomorphism.

SpaceSaving with ``k`` counters (Metwally et al.) guarantees, for every
item ``x`` with true frequency ``f(x)``::

    f(x)  <=  estimate(x)  <=  f(x) + n/k        (monitored items)
    f(x)  <=  n/k                                 (unmonitored items)

i.e. SS *over*-estimates, symmetric to MG which under-estimates.

A key structural result of the paper (Section 2) is that the MG and SS
summaries are **isomorphic**: the SpaceSaving state on a stream equals
the Misra-Gries state (with one fewer counter) shifted by the SS minimum
counter value.  This implementation takes the isomorphism as its
internal representation: a :class:`SpaceSaving` with ``k`` counters *is*
an MG summary with ``k - 1`` counters plus the accumulated deduction
``Delta``; estimates are reported as ``mg_estimate + Delta`` which
restores the SS over-estimation semantics exactly:

- monitored:    ``f <= estimate <= f + Delta``  with ``Delta <= n/k``;
- unmonitored:  ``f <= Delta <= n/k``.

Mergeability is then inherited verbatim from the MG merge (combine +
prune with ``k - 1`` counters), which is precisely how the paper proves
SS mergeable.  :mod:`repro.frequency.isomorphism` provides the explicit
state conversions and a reference classic-SS simulator used by the test
suite to validate the isomorphism empirically.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from ..core.base import Summary
from ..core.exceptions import ParameterError
from ..core.registry import register_summary
from .misra_gries import MisraGries

__all__ = ["SpaceSaving"]


@register_summary("space_saving")
class SpaceSaving(Summary):
    """SpaceSaving heavy-hitter summary with ``k`` counters.

    Parameters
    ----------
    k:
        Number of counters (``k >= 2``: SS with one counter carries no
        information beyond ``n``).  For error ``eps`` use
        :meth:`from_epsilon` (picks ``k = ceil(1/eps)`` so the error
        ``n/k <= eps * n``).
    """

    def __init__(self, k: int, prune_rule: str = "paper") -> None:
        super().__init__()
        if not isinstance(k, int) or k < 2:
            raise ParameterError(f"k must be an integer >= 2, got {k!r}")
        self.k = k
        self.prune_rule = prune_rule
        self._core = MisraGries(k - 1, prune_rule=prune_rule)

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "SpaceSaving":
        """Summary guaranteeing error ``<= epsilon * n`` under any merges."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        return cls(k=max(2, math.ceil(1.0 / epsilon)))

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------

    def update(self, item: Any, weight: int = 1) -> None:
        """Fold ``weight`` occurrences of ``item`` into the summary."""
        self._core.update(item, weight)
        self._n = self._core.n

    def update_batch(self, items, weights=None) -> None:
        self._core.update_batch(items, weights)
        self._n = self._core.n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def deduction(self) -> int:
        """Maximum over-estimation of any estimate (``<= n/k``)."""
        return self._core.deduction

    @property
    def error_bound(self) -> float:
        """The a-priori guarantee ``n / k``."""
        return self._n / self.k

    def estimate(self, item: Any) -> int:
        """SS-style upper-bound estimate (``deduction`` for unmonitored items)."""
        return self._core.estimate(item) + self._core.deduction

    def upper_bound(self, item: Any) -> int:
        """Alias of :meth:`estimate` — SS never under-estimates."""
        return self.estimate(item)

    def lower_bound(self, item: Any) -> int:
        """Guaranteed lower bound on the item's true frequency."""
        return self._core.estimate(item)

    def counters(self) -> Dict[Any, int]:
        """Snapshot of monitored items with their SS (upper-bound) estimates."""
        deduction = self._core.deduction
        return {
            item: value + deduction for item, value in self._core.counters().items()
        }

    def __contains__(self, item: Any) -> bool:
        return item in self._core

    def size(self) -> int:
        return self._core.size()

    # ------------------------------------------------------------------
    # Merge — inherited from the MG merge through the isomorphism
    # ------------------------------------------------------------------

    def compatible_with(self, other: "Summary") -> Optional[str]:
        assert isinstance(other, SpaceSaving)
        if other.k != self.k:
            return f"k mismatch: {self.k} vs {other.k}"
        if other.prune_rule != self.prune_rule:
            return f"prune rule mismatch: {self.prune_rule} vs {other.prune_rule}"
        return None

    def _merge_same_type(self, other: "Summary") -> None:
        assert isinstance(other, SpaceSaving)
        self._core.merge(other._core)
        self._n = self._core.n

    def _merge_many_same_type(self, others: Sequence["Summary"]) -> None:
        # one combine + one prune in the underlying MG core
        self._core.merge_many(
            [other._core for other in others]  # type: ignore[attr-defined]
        )
        self._n = self._core.n

    # ------------------------------------------------------------------
    # Heavy hitters
    # ------------------------------------------------------------------

    def heavy_hitters(self, phi: float) -> Dict[Any, int]:
        """Candidates for items with true frequency ``>= phi * n``.

        SS estimates are upper bounds, so keeping every monitored item
        whose estimate reaches ``phi * n`` misses no true heavy hitter.
        """
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        threshold = phi * self._n
        return {
            item: estimate
            for item, estimate in self.counters().items()
            if estimate >= threshold
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.k, "prune_rule": self.prune_rule, "core": self._core.to_dict()}

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict` with the core in its stored form."""
        return {"k": self.k, "prune_rule": self.prune_rule, "core": self._core.to_stored()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpaceSaving":
        summary = cls(k=payload["k"], prune_rule=payload.get("prune_rule", "paper"))
        summary._core = MisraGries.from_dict(payload["core"])
        summary._n = summary._core.n
        return summary
