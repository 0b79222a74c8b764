"""Mergeable eps-approximations via merge-reduce (paper Section 4).

Structure: identical to the fully mergeable quantile summary (Section
3.2) with geometric points in place of reals and low-discrepancy
halving in place of the 1-D random halving — indeed the paper presents
Section 3.2 as the 1-D special case of this construction.

- buffer of fewer than ``s`` raw points (weight 1);
- at most one *block* per level ``i``: exactly ``s`` points of weight
  ``2^i`` each, produced by halving two level-``i-1`` blocks;
- merge = concatenate buffers and block lists, then binary-counter
  carry with low-discrepancy halving.

The buffer, the blocks, the carry and the merge are the quantiles' own
code, :class:`~repro.core.merge_reduce.MergeReduce`; this class
supplies the halving, unsorted point blocks, its weighted update (which
replicates points into the buffer) and the range queries.  Its
``merge_many`` stays a fold: one carry per operand.

Queries estimate ``|P ∩ R|`` as the weighted count over buffer and
blocks.  With the randomized pair coloring the per-level errors are
independent zero-mean, giving counting error ``O(eps * n)`` for
``s = O~(1/eps)`` on constant-VC ranges, under arbitrary merges —
benchmark E9 measures this against the random-sample baseline.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.base import Summary, normalize_batch
from ..core.exceptions import EmptySummaryError, ParameterError
from ..core.merge_reduce import MergeReduce
from ..core.registry import register_summary
from ..core.rng import RngLike, resolve_rng
from .discrepancy import halve_points
from .range_spaces import RangeSpace, get_range_space

__all__ = ["EpsApproximation"]


@register_summary("eps_approximation")
class EpsApproximation(MergeReduce):
    """Mergeable eps-approximation of a point set for a range family.

    Parameters
    ----------
    space:
        A :class:`RangeSpace` instance (or its registry name).
    s:
        Points per block; drives the error (roughly ``eps ~ 1/s`` per
        level for the geometric families here).
    method:
        Halving coloring: ``"pair_random"`` (default) or ``"greedy"``.
    """

    sorted_blocks = False

    def __init__(
        self,
        space: RangeSpace | str,
        s: int,
        method: str = "pair_random",
        rng: RngLike = None,
    ) -> None:
        if isinstance(space, str):
            space = get_range_space(space)
        if not isinstance(space, RangeSpace):
            raise ParameterError(f"space must be a RangeSpace, got {type(space)!r}")
        if s < 2 or s % 2 != 0:
            raise ParameterError(f"block size s must be an even integer >= 2, got {s!r}")
        if method not in ("pair_random", "greedy"):
            raise ParameterError(
                f"method must be 'pair_random' or 'greedy', got {method!r}"
            )
        super().__init__(s)  # the buffer holds raw points, weight 1
        self.space = space
        self.method = method
        self._rng = resolve_rng(rng)

    @classmethod
    def from_epsilon(
        cls,
        space: RangeSpace | str,
        epsilon: float,
        method: str = "pair_random",
        rng: RngLike = None,
    ) -> "EpsApproximation":
        """Choose ``s`` ~ ``4/eps`` (rounded to even)."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        s = 2 * math.ceil(2.0 / epsilon)
        return cls(space, s=s, method=method, rng=rng)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: Any, weight: int = 1) -> None:
        """Add a point (1-D scalar or a length-``d`` coordinate array)."""
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        # a copy: the buffer must not see later writes to the caller's array
        point = self.space.check_points(
            np.array(item, dtype=np.float64).reshape(1, -1)
            if np.ndim(item) > 0
            else np.array([[float(item)]])
        )[0]
        # replicate at C speed; blocks form in the flush, not per copy
        self._buffer.extend([point] * int(weight))
        self._n += int(weight)
        if len(self._buffer) >= self.s:
            self._flush_buffer()

    def extend_points(self, points: np.ndarray) -> "EpsApproximation":
        """Bulk-add a point array of shape ``(n, d)`` (or ``(n,)`` in 1-D).

        The summary keeps copies, so the caller may reuse ``points``.
        """
        pts = self.space.check_points(points)
        self._buffer.extend(pts)
        self._n += len(pts)
        if len(self._buffer) >= self.s:
            self._flush_buffer()
        # sealed blocks are copies; the rows still buffered from this
        # call are views of ``points``
        tail = max(0, len(self._buffer) - len(pts))
        self._buffer[tail:] = [p.copy() for p in self._buffer[tail:]]
        return self

    def update_batch(self, items, weights=None) -> None:
        items, weights, _ = normalize_batch(items, weights)
        if not len(items):
            return
        pts = np.asarray(items, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if weights is not None:
            pts = np.repeat(pts, weights, axis=0)
        self.extend_points(pts)

    def _halve(self, left, right):
        return halve_points(
            np.concatenate([left, right]), self.space, rng=self._rng, method=self.method
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def count(self, range_params: Any) -> float:
        """Estimated ``|P ∩ R|`` for a range of the family."""
        total = 0.0
        if self._buffer:
            buffer_pts = np.array(self._buffer, dtype=np.float64)
            total += float(self.space.contains(buffer_pts, range_params).sum())
        for level, blocks in self._blocks.items():
            weight = float(2**level)
            for block in blocks:
                total += weight * float(
                    self.space.contains(block, range_params).sum()
                )
        return total

    def fraction(self, range_params: Any) -> float:
        """Estimated ``|P ∩ R| / |P|`` (the eps-approximation guarantee)."""
        if self.is_empty:
            raise EmptySummaryError("fraction query on an empty approximation")
        return self.count(range_params) / self._n

    def points(self) -> List[np.ndarray]:
        """All stored (point, weight) pairs — for inspection/plotting."""
        out = [(p.copy(), 1.0) for p in self._buffer]
        for level, blocks in self._blocks.items():
            for block in blocks:
                out.extend((p.copy(), float(2**level)) for p in block)
        return out

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def compatible_with(self, other: "EpsApproximation") -> Optional[str]:
        assert isinstance(other, EpsApproximation)
        if other.space.name != self.space.name:
            return f"range space mismatch: {self.space.name} vs {other.space.name}"
        if other.s != self.s:
            return f"block size mismatch: s={self.s} vs s={other.s}"
        if other.method != self.method:
            return f"halving method mismatch: {self.method} vs {other.method}"
        return None

    def _absorb(self, other: "EpsApproximation") -> None:
        # buffered points are array rows: take copies, as of the blocks
        start = len(self._buffer)
        super()._absorb(other)
        self._buffer[start:] = [p.copy() for p in self._buffer[start:]]

    # a fold, one carry per operand (no single carry over all operands)
    _merge_many_same_type = Summary._merge_many_same_type

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "space": self.space.name,
            "s": self.s,
            "method": self.method,
            "n": self._n,
            **self._counter_state(),
            "seed": int(self._rng.integers(0, 2**63 - 1)),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EpsApproximation":
        summary = cls(
            payload["space"],
            s=payload["s"],
            method=payload["method"],
            rng=payload["seed"],
        )
        return summary._load_counter(
            payload, item=lambda p: np.array(p, dtype=np.float64)
        )
