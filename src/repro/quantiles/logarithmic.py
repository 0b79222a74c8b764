"""Fully mergeable randomized quantile summary (paper Section 3.2).

The logarithmic method lifts the equal-weight-merge summary of
Section 3.1 to **arbitrary** merges: the summary is a collection of
*blocks*, one per weight class, like the digits of a binary counter:

- a raw buffer of fewer than ``s`` exact values (weight 1 each);
- at most one block per level ``i``: a sorted array of exactly ``s``
  samples, each of weight ``2^i`` (the block summarizes ``s * 2^i``
  raw values).

``update`` appends to the buffer; a full buffer becomes a level-0
block.  ``merge`` concatenates buffers and per-level block lists, then
*carries*: whenever a level holds two blocks, they are combined by
random halving (the Section 3.1 primitive) into a single block one
level up — exactly a binary-counter addition.  Every random-halving
step is an equal-weight merge, so the Section 3.1 analysis applies
level by level, and the paper shows the total rank error stays
``eps * n`` with probability ``1 - delta`` for
``s = O((1/eps) * sqrt(log(1/delta)))`` — independent of the merge
sequence.  The size is ``s`` per occupied level, i.e.
``O(s * log(n / s))``.

The buffer, the blocks, the carry and the merge are
:class:`~repro.core.merge_reduce.MergeReduce`, which MRL, the hybrid
and the eps-approximation share; this class supplies random halving.

Benchmark E6 verifies the merge-sequence independence empirically
(chain vs balanced vs random trees over adversarially sorted shards).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..core.exceptions import ParameterError
from ..core.merge_reduce import MergeReduce
from ..core.registry import register_summary
from ..core.rng import RngLike, resolve_rng
from .equal_weight import random_halving
from .estimator import QuantileSummary

__all__ = ["MergeableQuantiles"]


@register_summary("mergeable_quantiles")
class MergeableQuantiles(MergeReduce, QuantileSummary):
    """Fully mergeable randomized quantile summary.

    Parameters
    ----------
    s:
        Samples per block.  Use :meth:`from_epsilon` to derive ``s``
        from a target rank error.
    rng:
        Seed or generator for the random halvings.
    """

    def __init__(self, s: int, rng: RngLike = None) -> None:
        if s < 1:
            raise ParameterError(f"block size s must be >= 1, got {s!r}")
        super().__init__(s)
        self._rng = resolve_rng(rng)

    @classmethod
    def from_epsilon(
        cls, epsilon: float, delta: float = 0.01, rng: RngLike = None
    ) -> "MergeableQuantiles":
        """Choose ``s = ceil((2/eps) * sqrt(log2(1/delta)))``.

        The constant 2 absorbs the sum over levels in the paper's
        analysis; E5/E6 measure the realized error against ``eps * n``.
        """
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not 0 < delta < 1:
            raise ParameterError(f"delta must be in (0, 1), got {delta!r}")
        s = math.ceil((2.0 / epsilon) * math.sqrt(max(1.0, math.log2(1.0 / delta))))
        return cls(s=s, rng=rng)

    def _halve(self, left, right):
        return random_halving(left, right, self._rng)

    def rank(self, x: float) -> float:
        return self._view_rank(x)

    def quantile(self, q: float) -> float:
        return self._view_quantile(q)

    def compatible_with(self, other: "MergeableQuantiles") -> Optional[str]:
        assert isinstance(other, MergeableQuantiles)
        if other.s != self.s:
            return f"block size mismatch: s={self.s} vs s={other.s}"
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "s": self.s,
            "n": self._n,
            **self._counter_state(),
            "seed": int(self._rng.integers(0, 2**63 - 1)),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MergeableQuantiles":
        return cls(s=payload["s"], rng=payload["seed"])._load_counter(payload)
