"""Shared query interface for quantile summaries.

Rank conventions used throughout the library:

- ``rank(x)`` estimates ``|{y in D : y <= x}|`` (0 for x below the
  minimum, ``n`` for x at or above the maximum);
- ``quantile(q)`` for ``q in [0, 1]`` returns a stored value whose rank
  is within the summary's error of ``q * n`` (``q = 0`` targets the
  minimum, ``q = 1`` the maximum);
- ``cdf(x) = rank(x) / n``.

A summary with additive rank error ``eps * n`` answers both queries
within ``eps``: ranks are off by at most ``eps * n`` and quantile
values have true rank within ``(q ± eps) * n``.

Query caching
-------------

Sample-based summaries (KLL, the logarithmic method, MRL, the hybrid)
answer every query from the same weighted sample set, yet re-derived it
from the level structure on every call.  :meth:`QuantileSummary._sorted_view`
materializes the sorted values and their cumulative weights **once per
summary generation**: the view is keyed on ``n``, which strictly
increases on every state mutation (updates and merges only accept
positive weights), so a stale view can never be served.  Summaries opt
in by implementing :meth:`_sample_state`; queries then collapse to
``np.searchsorted`` lookups and :meth:`quantiles` answers a whole batch
of probabilities with one vectorized search.  ``view_stats`` exposes
hit/miss counters for the benchmarks.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import Summary
from ..core.exceptions import EmptySummaryError, ParameterError

__all__ = ["QuantileSummary", "check_quantile"]


def check_quantile(q: float) -> float:
    """Validate a quantile argument."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"quantile q must be in [0, 1], got {q!r}")
    return float(q)


class QuantileSummary(Summary):
    """Abstract base of all quantile summaries.

    Subclasses implement :meth:`rank` and :meth:`quantile`; the derived
    queries (:meth:`cdf`, :meth:`quantiles`, :meth:`median`) are shared.
    Subclasses whose queries reduce to a weighted sample set also
    implement :meth:`_sample_state` to get the cached sorted view.
    """

    # class-level defaults so the cache works even for subclasses with
    # exotic __init__ chains; instance assignment overrides on first use
    _view: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
    _view_hits: int = 0
    _view_misses: int = 0

    @abc.abstractmethod
    def rank(self, x: float) -> float:
        """Estimated number of summarized values ``<= x``."""

    @abc.abstractmethod
    def quantile(self, q: float) -> float:
        """A value whose rank approximates ``q * n``."""

    def cdf(self, x: float) -> float:
        """Estimated fraction of values ``<= x``."""
        if self.is_empty:
            raise EmptySummaryError("cdf query on an empty summary")
        return self.rank(x) / self.n

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Batch :meth:`quantile` over an iterable of probabilities.

        With a cached view this is one vectorized ``np.searchsorted``
        over all probabilities; summaries without :meth:`_sample_state`
        (and empty summaries, which must raise per-call) fall back to
        the per-quantile loop.
        """
        qs = list(qs)
        if not qs or self.is_empty:
            return [self.quantile(q) for q in qs]
        view = self._sorted_view()
        if view is None:
            return [self.quantile(q) for q in qs]
        _, values, cumweights = view
        targets = np.array([check_quantile(q) for q in qs]) * self._n
        idx = np.minimum(
            cumweights.searchsorted(targets, side="left"), len(values) - 1
        )
        return values[idx].tolist()

    def median(self) -> float:
        """The estimated median (``quantile(0.5)``)."""
        return self.quantile(0.5)

    def update(self, item: float, weight: int = 1) -> None:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cached sorted view
    # ------------------------------------------------------------------

    def _sample_state(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The summary's weighted sample set, or ``None`` (no fast path).

        Implementations return ``(values, weights)`` — parallel float
        arrays listing every stored sample with its weight, in the same
        order the summary's scalar queries would enumerate them (ties
        are broken stably, so the view reproduces the scalar results
        bit for bit).
        """
        return None

    def _sorted_view(self) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
        """``(generation, sorted values, cumulative weights)`` or ``None``.

        Rebuilt at most once per summary generation: the key is ``n``,
        which every mutation strictly increases (weights are validated
        positive everywhere), so serving a view with matching ``n`` is
        always sound.
        """
        generation = self._n
        view = self._view
        if view is not None and view[0] == generation:
            self._view_hits += 1
            return view
        state = self._sample_state()
        if state is None:
            return None
        self._view_misses += 1
        values = np.ascontiguousarray(state[0], dtype=np.float64)
        weights = np.asarray(state[1], dtype=np.float64)
        order = np.argsort(values, kind="stable")
        view = (generation, values[order], np.cumsum(weights[order]))
        self._view = view
        return view

    def invalidate_view(self) -> None:
        """Drop the cached view (only needed after out-of-band state edits)."""
        self._view = None

    @property
    def view_stats(self) -> Dict[str, int]:
        """Cache instrumentation: ``{"hits": ..., "misses": ...}``."""
        return {"hits": self._view_hits, "misses": self._view_misses}

    # shared view-backed query implementations — subclasses with a
    # `_sample_state` delegate their rank/quantile here

    def _view_rank(self, x: float) -> float:
        _, values, cumweights = self._sorted_view()
        idx = int(np.searchsorted(values, float(x), side="right"))
        return float(cumweights[idx - 1]) if idx else 0.0

    def _view_quantile(self, q: float) -> float:
        q = check_quantile(q)
        if self.is_empty:
            raise EmptySummaryError("quantile query on an empty summary")
        _, values, cumweights = self._sorted_view()
        target = q * self._n
        idx = min(
            int(np.searchsorted(cumweights, target, side="left")), len(values) - 1
        )
        return float(values[idx])


def weighted_select(
    pairs: Sequence[tuple], target: float, total: float
) -> float:
    """Select the value reaching cumulative weight ``target``.

    ``pairs`` is a sequence of ``(value, weight)`` sorted by value;
    returns the first value whose cumulative weight reaches ``target``
    (clamped to ``[min, max]``).  Shared by the sample-based summaries.
    """
    if not pairs:
        raise EmptySummaryError("selection from an empty summary")
    target = min(max(target, 0.0), total)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target:
            return value
    return pairs[-1][0]
