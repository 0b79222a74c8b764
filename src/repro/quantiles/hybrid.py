"""Hybrid quantile summary (paper Section 3.3).

The fully mergeable summary of Section 3.2 keeps one block per weight
class, so its size grows as ``O(s * log(n/s))``.  The paper's hybrid
construction caps that growth: only the bottom ``Lambda ~ log2(1/eps)``
levels keep the randomized block structure; everything heavier is
absorbed into a Greenwald-Khanna summary, giving total size
``O((1/eps) * log^1.5(1/eps))`` — independent of ``n``.

The bottom levels are the Section 3.2 counter
(:class:`~repro.core.merge_reduce.MergeReduce`); this class supplies
random halving and diverts to GK every block a carry would place at
level ``Lambda``, and every bit at or above it of a heavy weight.

The intuition: a level-``Lambda`` block carries weight ``2^Lambda ~
1/eps`` per sample, so the *number of times* heavy content is pushed
into the GK top is bounded, and the GK error contributions stay within
the overall ``eps * n`` budget.

Reproduction note (documented deviation): the paper's hybrid re-builds
its top structure at dyadic ``n`` boundaries to keep the GK merge count
logarithmic; this implementation feeds carries into the GK summary as
*weighted* insertions and merges GK tops by weighted reinsertion.  The
error added per GK merge generation is bounded by the GK epsilon (set
to ``eps/2``), so for realistic merge counts the realized error stays
near ``eps * n``; benchmark E7 measures both the size cap and the
realized error, and EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from ..core.exceptions import ParameterError
from ..core.merge_reduce import MergeReduce
from ..core.registry import register_summary
from ..core.rng import RngLike, resolve_rng
from .equal_weight import random_halving
from .estimator import QuantileSummary
from .gk import GKQuantiles

__all__ = ["HybridQuantiles"]


@register_summary("hybrid_quantiles")
class HybridQuantiles(MergeReduce, QuantileSummary):
    """Size-capped mergeable quantile summary (randomized bottom + GK top).

    Parameters
    ----------
    epsilon:
        Target rank error ``eps * n``.
    rng:
        Seed or generator for the random halvings.
    """

    def __init__(self, epsilon: float, rng: RngLike = None) -> None:
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        inv = 1.0 / epsilon
        # samples per block in the randomized bottom structure
        super().__init__(math.ceil(2.0 * inv * math.sqrt(max(1.0, math.log2(inv)))))
        self.epsilon = float(epsilon)
        #: levels kept by the bottom structure; level Lambda carries to GK
        self.top_level = max(1, math.ceil(math.log2(inv)))
        self._rng = resolve_rng(rng)
        self._gk = GKQuantiles(epsilon / 2.0)

    # ------------------------------------------------------------------
    # Halving, and the GK top: what reaches level Lambda leaves the counter
    # ------------------------------------------------------------------

    def _halve(self, left, right):
        return random_halving(left, right, self._rng)

    def _add_constant(self, value: float, levels) -> None:
        # bits at or above the top level are exact mass and go straight
        # into GK, one weighted insertion each, compressed once
        top = [level for level in levels if level >= self.top_level]
        for level in top:
            self._gk._insert(value, self.s * (1 << level))
        if top:
            self._gk.compress()
        super()._add_constant(value, [level for level in levels if level < self.top_level])

    def _promote(self, block: np.ndarray, level: int) -> None:
        if level < self.top_level:
            super()._promote(block, level)
            return
        # absorb a block that reached the top level into the GK summary;
        # _insert counts weights into gk.n, which its compress threshold
        # needs, while our own n stays authoritative
        weight = 2**level
        for value in block:
            self._gk._insert(float(value), weight)
        self._gk.compress()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rank(self, x: float) -> float:
        x = float(x)
        total = float(sum(1 for v in self._buffer if v <= x))
        for level, blocks in self._blocks.items():
            weight = float(2**level)
            for block in blocks:
                total += weight * float(np.searchsorted(block, x, side="right"))
        total += self._gk.rank(x)
        return total

    def _sample_state(self):
        values, weights = super()._sample_state()
        # GK tuples enter with their gap weights; their value ordering
        # is exact, so this treats the GK part as a weighted sample set.
        if self._gk._tuples:
            values = np.concatenate(
                [values, np.array([v for v, _g, _d in self._gk._tuples], dtype=np.float64)]
            )
            weights = np.concatenate(
                [weights, np.array([float(g) for _v, g, _d in self._gk._tuples])]
            )
        return values, weights

    def quantile(self, q: float) -> float:
        return self._view_quantile(q)

    def size(self) -> int:
        return super().size() + self._gk.size()

    # ------------------------------------------------------------------
    # Merge and serialization
    # ------------------------------------------------------------------

    def compatible_with(self, other: "HybridQuantiles") -> Optional[str]:
        assert isinstance(other, HybridQuantiles)
        if abs(other.epsilon - self.epsilon) > 1e-12:
            return f"epsilon mismatch: {self.epsilon} vs {other.epsilon}"
        return None

    def _absorb(self, other: "HybridQuantiles") -> None:
        # GK tops fold pairwise (GK merge is weighted reinsertion)
        super()._absorb(other)
        if other._gk.size():
            self._gk.merge(other._gk)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "n": self._n,
            **self._counter_state(),
            "gk": self._gk.to_dict(),
            "seed": int(self._rng.integers(0, 2**63 - 1)),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HybridQuantiles":
        summary = cls(epsilon=payload["epsilon"], rng=payload["seed"])
        summary._gk = GKQuantiles.from_dict(payload["gk"])
        return summary._load_counter(payload)
