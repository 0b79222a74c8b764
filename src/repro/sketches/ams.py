"""AMS (tug-of-war) sketch for the second frequency moment F2.

Alon, Matias and Szegedy's estimator: each cell holds
``Z = sum_x f(x) * sigma(x)`` for a random sign function ``sigma``;
``E[Z^2] = F2`` and averaging/median-ing over independent cells
concentrates the estimate.  The sketch is *linear* — merging is
cell-wise addition — making it the F2 member of the trivially
mergeable linear-sketch family the paper contrasts its deterministic
summaries with.

Geometry: ``depth`` rows (medianed) of ``width`` independent estimators
(averaged).  Standard guarantee: relative error ``O(1/sqrt(width))``
with probability ``1 - 2^-Omega(depth)``.  The cells are a
:class:`~repro.core.counter_table.CounterTable` (serialized under
``"cells"``), hashed per cell rather than per row.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from ..core.base import normalize_batch
from ..core.counter_table import CounterTable
from ..core.exceptions import ParameterError
from ..core.hashing import stable_hash
from ..core.registry import register_summary

__all__ = ["AmsF2Sketch"]


@register_summary("ams_f2")
class AmsF2Sketch(CounterTable):
    """Tug-of-war F2 sketch: ``depth`` x ``width`` signed accumulators."""

    odd_depth = True  # odd depth -> median is an actual estimate
    table_key = "cells"

    def __init__(self, width: int = 16, depth: int = 5, seed: int = 0) -> None:
        super().__init__(width, depth, seed)

    def _signs(self, item: Any) -> np.ndarray:
        h = stable_hash(item, seed=self.seed)
        bits = np.array(
            [
                (stable_hash(h ^ (row * self.width + col), seed=self.seed + 1) & 1)
                for row in range(self.depth)
                for col in range(self.width)
            ],
            dtype=np.int64,
        ).reshape(self.depth, self.width)
        return 2 * bits - 1

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        self._table += weight * self._signs(item)
        self._n += weight

    def update_batch(self, items, weights=None) -> None:
        # the sign matrix is the expensive part (depth*width hashes per
        # item), so pre-aggregate and pay it once per distinct item
        items, weights, total = normalize_batch(items, weights)
        aggregated: Counter = Counter()
        if weights is None:
            aggregated.update(
                items.tolist() if hasattr(items, "tolist") else items
            )
        else:
            for item, weight in zip(items, weights.tolist()):
                aggregated[item] += weight
        for item, weight in aggregated.items():
            self._table += weight * self._signs(item)
        self._n += total

    def f2(self) -> float:
        """Estimated second frequency moment ``sum_x f(x)^2``."""
        squares = self._table.astype(np.float64) ** 2
        return float(np.median(squares.mean(axis=1)))
