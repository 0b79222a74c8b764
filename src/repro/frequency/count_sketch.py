"""CountSketch — the unbiased linear-sketch baseline.

CountSketch (Charikar, Chen, Farach-Colton) hashes each item to one
counter per row with a random sign; the median-of-rows estimator is
unbiased with standard deviation ``O(sqrt(F2)/sqrt(width))``.  Like
CountMin it is a linear sketch and therefore trivially mergeable by
entry-wise addition; it appears in the benchmarks as the second
linear-sketch baseline, stronger on low-skew streams (error scales with
the residual L2 norm rather than L1).  The table, its merge and its
serialization are :class:`~repro.core.counter_table.CounterTable`'s.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import normalize_batch
from ..core.counter_table import CounterTable
from ..core.exceptions import ParameterError
from ..core.registry import register_summary

__all__ = ["CountSketch"]


@register_summary("count_sketch")
class CountSketch(CounterTable):
    """CountSketch with ``depth`` rows of ``width`` signed counters."""

    # an odd depth makes the median an actual table entry
    odd_depth = True

    @classmethod
    def from_error(cls, epsilon: float, delta: float, seed: int = 0) -> "CountSketch":
        """Sketch with additive error ``eps * sqrt(F2)`` w.p. ``1 - delta``."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not 0 < delta < 1:
            raise ParameterError(f"delta must be in (0, 1), got {delta!r}")
        width = math.ceil(3.0 / (epsilon * epsilon))
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(width=width, depth=depth, seed=seed)

    def _buckets_and_signs(self, item: Any) -> List[Tuple[int, int]]:
        """``(bucket, sign)`` of ``item`` in every row."""
        return [
            (h % self.width, 1 if (h >> 32) & 1 else -1) for h in self._row_hashes(item)
        ]

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        for row, (bucket, sign) in enumerate(self._buckets_and_signs(item)):
            self._table[row, bucket] += sign * weight
        self._n += weight

    def update_batch(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        for row, hashes, buckets in self._batch_columns(items):
            signs = np.where(
                (hashes >> np.uint64(32)) & np.uint64(1), np.int64(1), np.int64(-1)
            )
            deltas = signs if weights is None else signs * weights
            np.add.at(self._table[row], buckets, deltas)
        self._n += total

    def estimate(self, item: Any) -> int:
        """Median-of-rows unbiased frequency estimate (may be negative)."""
        values = [
            sign * self._table[row, bucket]
            for row, (bucket, sign) in enumerate(self._buckets_and_signs(item))
        ]
        return int(np.median(values))
