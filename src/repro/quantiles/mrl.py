"""Munro-Paterson / MRL deterministic merging — the deterministic baseline.

The same counter as :class:`repro.quantiles.MergeableQuantiles` (buffer
+ one block per weight class, binary-counter carries; both are
:class:`~repro.core.merge_reduce.MergeReduce`), but the halving step
is **deterministic**: it always keeps the even-indexed
elements of the merged order.  Deterministic halving biases every rank
estimate downward by up to half the block weight *per level*, and the
biases add up instead of cancelling: the rank error grows as
``Theta(s * ... * log(n/s))`` levels stack — this is precisely why the
paper needs randomization (or GK-style corrections) to get mergeable
quantiles with error independent of the merge history.

Benchmark E8 contrasts this summary's realized error with the
randomized :class:`MergeableQuantiles` at equal size.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..core.exceptions import MergeError, ParameterError
from ..core.merge_reduce import MergeReduce
from ..core.registry import register_summary
from .estimator import QuantileSummary

__all__ = ["MRLQuantiles", "deterministic_halving"]


def deterministic_halving(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keep the even-indexed elements of the sorted union (no coin flip)."""
    if len(left) != len(right):
        raise MergeError(
            f"halving requires equal sample counts, got {len(left)} vs {len(right)}"
        )
    union = np.sort(np.concatenate([left, right]), kind="mergesort")
    return union[0::2]


@register_summary("mrl_quantiles")
class MRLQuantiles(MergeReduce, QuantileSummary):
    """Deterministic merge-halving quantile summary (biased baseline)."""

    def __init__(self, s: int) -> None:
        if s < 1:
            raise ParameterError(f"block size s must be >= 1, got {s!r}")
        super().__init__(s)

    def _halve(self, left, right):
        return deterministic_halving(left, right)

    def rank(self, x: float) -> float:
        return self._view_rank(x)

    def quantile(self, q: float) -> float:
        return self._view_quantile(q)

    def compatible_with(self, other: "MRLQuantiles") -> Optional[str]:
        assert isinstance(other, MRLQuantiles)
        if other.s != self.s:
            return f"block size mismatch: s={self.s} vs s={other.s}"
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"s": self.s, "n": self._n, **self._counter_state()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MRLQuantiles":
        return cls(s=payload["s"])._load_counter(payload)
