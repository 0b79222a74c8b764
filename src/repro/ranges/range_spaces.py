"""Range spaces: the query families for eps-approximations (paper Section 4).

A range space ``(X, R)`` pairs a point set with a family of ranges; an
*eps-approximation* ``Q`` of ``P`` guarantees for every range ``R``::

    | |P ∩ R| / |P|  -  |Q ∩ R| / |Q| |  <=  eps

Three concrete instances are provided, all with constant VC dimension
so the paper's merge-reduce bounds apply:

- :class:`Intervals1D` — one-dimensional intervals ``(a, b]``;
- :class:`Rectangles2D` — axis-aligned rectangles;
- :class:`Halfplanes2D` — closed halfplanes ``a*x + b*y <= c``.

Each instance knows how to (a) test point membership vectorized, and
(b) generate a *canonical test set* of ranges anchored at data points —
used both by the greedy low-discrepancy halving and by the benchmark
harness to measure realized approximation error.
"""

from __future__ import annotations

import abc
from typing import Any, List

import numpy as np

from ..core.exceptions import ParameterError
from ..core.rng import RngLike, resolve_rng

__all__ = ["RangeSpace", "Intervals1D", "Rectangles2D", "Halfplanes2D", "RANGE_SPACES"]


class RangeSpace(abc.ABC):
    """A family of ranges over points in ``dimension`` dimensions."""

    #: registry name, also used for merge-compatibility checks
    name: str = ""
    dimension: int = 0

    @abc.abstractmethod
    def contains(self, points: np.ndarray, range_params: Any) -> np.ndarray:
        """Boolean mask: which of ``points`` lie inside the range."""

    @abc.abstractmethod
    def canonical_ranges(
        self, points: np.ndarray, budget: int, rng: RngLike = None
    ) -> List[Any]:
        """Up to ``budget`` test ranges anchored at ``points``.

        The test set is rich enough that low discrepancy on it implies
        low discrepancy on all ranges of the family (up to constants),
        which is what the greedy halving optimizes.
        """

    def check_points(self, points: np.ndarray) -> np.ndarray:
        """Validate and canonicalize a point array to shape (n, dimension)."""
        arr = np.asarray(points, dtype=np.float64)
        if self.dimension == 1:
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ParameterError(
                f"{self.name} expects points of shape (n, {self.dimension}), "
                f"got {arr.shape}"
            )
        return arr

    def count(self, points: np.ndarray, range_params: Any) -> int:
        """Number of ``points`` inside the range."""
        return int(self.contains(points, range_params).sum())


class Intervals1D(RangeSpace):
    """Intervals ``(a, b]`` over the real line (VC dimension 2)."""

    name = "intervals_1d"
    dimension = 1

    def contains(self, points: np.ndarray, range_params: Any) -> np.ndarray:
        a, b = range_params
        x = self.check_points(points)[:, 0]
        return (x > a) & (x <= b)

    def canonical_ranges(
        self, points: np.ndarray, budget: int, rng: RngLike = None
    ) -> List[Any]:
        x = np.unique(self.check_points(points)[:, 0])
        # prefixes suffice: an interval is the difference of two prefixes,
        # so discrepancy on prefixes bounds interval discrepancy within 2x.
        if len(x) > budget:
            idx = np.linspace(0, len(x) - 1, budget).astype(int)
            x = x[idx]
        return [(-np.inf, b) for b in x]


class Rectangles2D(RangeSpace):
    """Axis-aligned rectangles ``(x1, x2] x (y1, y2]`` (VC dimension 4)."""

    name = "rectangles_2d"
    dimension = 2

    def contains(self, points: np.ndarray, range_params: Any) -> np.ndarray:
        x1, x2, y1, y2 = range_params
        pts = self.check_points(points)
        return (
            (pts[:, 0] > x1) & (pts[:, 0] <= x2) & (pts[:, 1] > y1) & (pts[:, 1] <= y2)
        )

    def canonical_ranges(
        self, points: np.ndarray, budget: int, rng: RngLike = None
    ) -> List[Any]:
        pts = self.check_points(points)
        gen = resolve_rng(rng)
        # dominance (two-sided prefix) ranges anchored at data coordinates;
        # rectangles are signed combinations of four such anchors.
        xs = np.unique(pts[:, 0])
        ys = np.unique(pts[:, 1])
        side = max(2, int(np.sqrt(budget)))
        if len(xs) > side:
            xs = xs[np.linspace(0, len(xs) - 1, side).astype(int)]
        if len(ys) > side:
            ys = ys[np.linspace(0, len(ys) - 1, side).astype(int)]
        ranges: List[Any] = [
            (-np.inf, x, -np.inf, y) for x in xs for y in ys
        ]
        if len(ranges) > budget:
            keep = gen.choice(len(ranges), size=budget, replace=False)
            ranges = [ranges[i] for i in keep]
        return ranges


class Halfplanes2D(RangeSpace):
    """Closed halfplanes ``a*x + b*y <= c`` (VC dimension 3)."""

    name = "halfplanes_2d"
    dimension = 2

    def contains(self, points: np.ndarray, range_params: Any) -> np.ndarray:
        a, b, c = range_params
        pts = self.check_points(points)
        return a * pts[:, 0] + b * pts[:, 1] <= c + 1e-12

    def canonical_ranges(
        self, points: np.ndarray, budget: int, rng: RngLike = None
    ) -> List[Any]:
        pts = self.check_points(points)
        gen = resolve_rng(rng)
        n = len(pts)
        ranges: List[Any] = []
        # halfplanes through pairs of data points capture every distinct
        # bipartition the family induces; sample `budget` of them.
        for _ in range(budget):
            i, j = gen.choice(n, size=2, replace=False) if n >= 2 else (0, 0)
            p, q = pts[int(i)], pts[int(j)]
            direction = q - p
            if np.allclose(direction, 0):
                direction = np.array([1.0, 0.0])
            normal = np.array([-direction[1], direction[0]])
            norm = np.linalg.norm(normal)
            if norm == 0:
                continue
            normal /= norm
            c = float(normal @ p)
            ranges.append((float(normal[0]), float(normal[1]), c))
        return ranges


RANGE_SPACES = {
    cls.name: cls for cls in (Intervals1D, Rectangles2D, Halfplanes2D)
}


def get_range_space(name: str) -> RangeSpace:
    """Instantiate a range space by registry name."""
    try:
        return RANGE_SPACES[name]()
    except KeyError:
        raise ParameterError(
            f"unknown range space {name!r}; choose from {sorted(RANGE_SPACES)}"
        ) from None
