"""Dyadic hierarchy of Misra-Gries summaries: ranges and hierarchical HH.

A classical composition on top of any mergeable frequency summary: keep
one summary per *dyadic level* of an integer domain ``[0, 2^bits)``.
Level ``0`` monitors the items themselves, level ``j`` monitors dyadic
blocks of length ``2^j`` (item ``x`` maps to block ``x >> j``).  This
single structure answers, with guarantees inherited from MG:

- **range counts**: any interval ``[lo, hi]`` splits into at most
  ``2 * bits`` dyadic blocks, so
  ``range_count`` sums ``O(bits)`` estimates, each with error
  ``<= n/(k+1)`` — total error ``O(bits * n / (k+1))``, deterministic;
- **hierarchical heavy hitters**: prefixes (CIDR-style) whose subtree
  mass reaches ``phi * n`` — the network-monitoring query ("which /16
  is hot?") that flat heavy hitters cannot answer;
- **mergeability**: merging two hierarchies is a level-wise MG merge,
  so every per-level guarantee survives arbitrary merge sequences —
  the paper's composition argument in action.

Space: ``(bits + 1) * k`` counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Summary, normalize_batch
from ..core.exceptions import ParameterError
from ..core.registry import register_summary
from .misra_gries import MisraGries

__all__ = ["DyadicHierarchy"]


@register_summary("dyadic_hierarchy")
class DyadicHierarchy(Summary):
    """Per-dyadic-level MG summaries over an integer domain.

    Parameters
    ----------
    k:
        Counters per level.
    bits:
        Domain is ``[0, 2**bits)``; ``bits + 1`` levels are kept.
    """

    def __init__(self, k: int, bits: int) -> None:
        super().__init__()
        if not isinstance(k, int) or k < 1:
            raise ParameterError(f"k must be a positive integer, got {k!r}")
        if not 1 <= bits <= 40:
            raise ParameterError(f"bits must be in [1, 40], got {bits!r}")
        self.k = k
        self.bits = int(bits)
        self._levels: List[MisraGries] = [
            MisraGries(k) for _ in range(self.bits + 1)
        ]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _check_item(self, item: Any) -> int:
        value = int(item)
        if not 0 <= value < (1 << self.bits):
            raise ParameterError(
                f"item {value} outside the domain [0, 2^{self.bits})"
            )
        return value

    def update(self, item: Any, weight: int = 1) -> None:
        value = self._check_item(item)
        for level, summary in enumerate(self._levels):
            summary.update(value >> level, weight)
        self._n += weight

    def update_batch(self, items, weights=None) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        values = np.asarray(items)
        if values.dtype.kind not in ("i", "u"):
            values = np.array([int(item) for item in items])
        values = values.astype(np.int64)
        if (values < 0).any() or (values >= (1 << self.bits)).any():
            bad = values[(values < 0) | (values >= (1 << self.bits))][0]
            raise ParameterError(
                f"item {int(bad)} outside the domain [0, 2^{self.bits})"
            )
        for level, summary in enumerate(self._levels):
            summary.update_batch((values >> level).tolist(), weights)
        self._n += total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def estimate(self, item: Any) -> int:
        """Lower-bound frequency of a single item (level 0)."""
        return self._levels[0].estimate(self._check_item(item))

    def prefix_estimate(self, prefix: int, level: int) -> int:
        """Lower-bound mass of the dyadic block ``prefix`` at ``level``
        (all items ``x`` with ``x >> level == prefix``)."""
        if not 0 <= level <= self.bits:
            raise ParameterError(f"level must be in [0, {self.bits}], got {level!r}")
        return self._levels[level].estimate(prefix)

    @property
    def deduction_per_level(self) -> int:
        """Worst per-estimate under-count at any level (``<= n/(k+1)``)."""
        return max(summary.deduction for summary in self._levels)

    def _dyadic_cover(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Decompose ``[lo, hi]`` into maximal dyadic blocks
        (``(level, prefix)`` pairs, at most ``2 * bits`` of them)."""
        blocks: List[Tuple[int, int]] = []
        position = lo
        end = hi + 1
        while position < end:
            level = 0
            # grow the block while aligned and fitting
            while level < self.bits:
                size = 1 << (level + 1)
                if position % size == 0 and position + size <= end:
                    level += 1
                else:
                    break
            blocks.append((level, position >> level))
            position += 1 << level
        return blocks

    def range_count(self, lo: int, hi: int) -> int:
        """Lower-bound count of items in ``[lo, hi]`` (inclusive).

        Error: at most ``2 * bits * n/(k+1)`` below the truth, never
        above (MG under-estimates).
        """
        lo = self._check_item(lo)
        hi = self._check_item(hi)
        if lo > hi:
            raise ParameterError(f"empty range [{lo}, {hi}]")
        return sum(
            self._levels[level].estimate(prefix)
            for level, prefix in self._dyadic_cover(lo, hi)
        )

    def range_count_upper(self, lo: int, hi: int) -> int:
        """Upper bound on the count of items in ``[lo, hi]``."""
        lo = self._check_item(lo)
        hi = self._check_item(hi)
        if lo > hi:
            raise ParameterError(f"empty range [{lo}, {hi}]")
        return sum(
            self._levels[level].upper_bound(prefix)
            for level, prefix in self._dyadic_cover(lo, hi)
        )

    def hierarchical_heavy_hitters(self, phi: float) -> Dict[Tuple[int, int], int]:
        """Dyadic blocks with (possibly) ``>= phi * n`` mass, all levels.

        Returns ``{(level, prefix): lower_bound_estimate}``.  No true
        phi-heavy block is missed (each level keeps the MG
        no-false-negative property); blocks below
        ``(phi - 1/(k+1)) * n`` are guaranteed absent.
        """
        if not 0 < phi <= 1:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        result: Dict[Tuple[int, int], int] = {}
        for level, summary in enumerate(self._levels):
            for prefix, estimate in summary.heavy_hitters(phi).items():
                result[(level, int(prefix))] = estimate
        return result

    def size(self) -> int:
        return sum(summary.size() for summary in self._levels)

    # ------------------------------------------------------------------
    # Merge — level-wise
    # ------------------------------------------------------------------

    def compatible_with(self, other: "DyadicHierarchy") -> Optional[str]:
        assert isinstance(other, DyadicHierarchy)
        if (self.k, self.bits) != (other.k, other.bits):
            return (
                f"hierarchy mismatch: (k={self.k}, bits={self.bits}) vs "
                f"(k={other.k}, bits={other.bits})"
            )
        return None

    def _merge_same_type(self, other: "DyadicHierarchy") -> None:
        assert isinstance(other, DyadicHierarchy)
        for mine, theirs in zip(self._levels, other._levels):
            mine.merge(theirs)
        self._n += other._n

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return self._state([summary.to_dict() for summary in self._levels])

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict` with each level in its stored form."""
        return self._state([summary.to_stored() for summary in self._levels])

    def _state(self, levels: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {"k": self.k, "bits": self.bits, "n": self._n, "levels": levels}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DyadicHierarchy":
        hierarchy = cls(k=payload["k"], bits=payload["bits"])
        hierarchy._levels = [
            MisraGries.from_dict(state) for state in payload["levels"]
        ]
        hierarchy._n = payload["n"]
        return hierarchy
