"""CountMin sketch — the linear-sketch baseline for frequency estimation.

CountMin (Cormode & Muthukrishnan) is a *linear* sketch: the sketch of
``A union B`` is the entry-wise sum of the sketches, so it is trivially
mergeable — the paper cites linear sketches as the easy-but-costly
mergeable baseline: width ``2/eps`` and depth ``log(1/delta)`` counters
versus Misra-Gries' deterministic ``1/eps`` counters, plus randomness
and the need for shared hash functions across all sites.

The benchmark ``bench_heavy_hitters`` quantifies this trade-off
empirically against MG/SS.  The table, its merge and its serialization
are :class:`~repro.core.counter_table.CounterTable`'s.

Guarantee: for every item, ``f(x) <= estimate(x)``, and with probability
``1 - delta``, ``estimate(x) <= f(x) + eps * n``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ..core.base import normalize_batch
from ..core.counter_table import CounterTable
from ..core.exceptions import ParameterError
from ..core.registry import register_summary

__all__ = ["CountMin"]


@register_summary("count_min")
class CountMin(CounterTable):
    """CountMin sketch with ``depth`` rows of ``width`` counters.

    Parameters
    ----------
    width:
        Counters per row; choose ``ceil(2/eps)`` for additive error
        ``eps * n``.
    depth:
        Independent rows; choose ``ceil(log2(1/delta))`` for failure
        probability ``delta``.
    seed:
        Hash seed.  Two sketches merge only when built with identical
        ``width``, ``depth`` and ``seed`` — the coordination cost of
        linear sketches that deterministic mergeable summaries avoid.
    """

    @classmethod
    def from_error(cls, epsilon: float, delta: float, seed: int = 0) -> "CountMin":
        """Sketch with additive error ``eps * n`` w.p. ``1 - delta``."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not 0 < delta < 1:
            raise ParameterError(f"delta must be in (0, 1), got {delta!r}")
        width = math.ceil(math.e / epsilon)
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(width=width, depth=depth, seed=seed)

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        cols = self._row_indices(item)
        self._table[np.arange(self.depth), cols] += weight
        self._n += weight

    def update_batch(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        for row, _hashes, cols in self._batch_columns(items):
            if weights is None:
                self._table[row] += np.bincount(cols, minlength=self.width).astype(
                    np.int64
                )
            else:
                np.add.at(self._table[row], cols, weights)
        self._n += total

    def estimate(self, item: Any) -> int:
        """Upper-bound frequency estimate (min over rows)."""
        cols = self._row_indices(item)
        return int(self._table[np.arange(self.depth), cols].min())

    def upper_bound(self, item: Any) -> int:
        return self.estimate(item)

    def lower_bound(self, item: Any) -> int:
        """CountMin offers no nontrivial per-item lower bound."""
        return 0
