"""Sliding-window Misra-Gries — now a shim over :mod:`repro.windows`.

.. deprecated::
    ``WindowedMisraGries`` predates the generic sliding-window
    combinator and is retained as a compatibility alias.  New code
    should use ``MisraGries(k).windowed(...)`` (or the registered
    ``windowed.misra_gries`` variant), which adds exponential-histogram
    compaction, count-based windows and the ``(1 + eps)`` mass
    envelope this fixed-bucket layout lacks.

The class subclasses the auto-derived ``windowed.misra_gries``
combinator in *time* mode with one level-0 bucket per fixed
``bucket_width`` stripe, and overrides bucket routing, eviction and
merging to the legacy index-aligned semantics: every event lands in the
bucket ``floor(t / bucket_width)``, exactly ``num_buckets`` recent
buckets are retained (index-based, not watermark-based), and merges
align buckets by absolute index.  ``eps`` is chosen so the EH per-level
cap exceeds ``num_buckets`` — the cascade never fires, so the layout
stays plain fixed-width buckets and every historical answer is
preserved bit for bit.  Legacy serialized payloads (dict-shaped
``buckets`` keyed by absolute index) migrate transparently in
:meth:`~WindowedMisraGries.from_dict`.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Any, Dict, Optional

from ..core.base import normalize_batch
from ..core.exceptions import ParameterError, QueryError
from ..core.registry import register_summary
from ..frequency.misra_gries import MisraGries
from ..windows.eh import Bucket, sorted_union
from ..windows.windowed import windowed_class

__all__ = ["WindowedMisraGries", "WindowQueryResult"]


class WindowQueryResult:
    """Outcome of a sliding-window heavy-hitter query."""

    def __init__(
        self,
        summary: MisraGries,
        buckets_covered: int,
        window_start: float,
        window_end: float,
    ) -> None:
        #: merged MG summary over the covered buckets
        self.summary = summary
        self.buckets_covered = buckets_covered
        #: actual (bucket-aligned) span the answer covers
        self.window_start = window_start
        self.window_end = window_end

    def heavy_hitters(self, phi: float) -> Dict[Any, int]:
        """phi-heavy hitters over the covered span (no false negatives)."""
        return self.summary.heavy_hitters(phi)

    def estimate(self, item: Any) -> int:
        return self.summary.estimate(item)

    @property
    def n(self) -> int:
        """Items in the covered span."""
        return self.summary.n

    @property
    def error_bound(self) -> float:
        return self.summary.error_bound


@register_summary("windowed_misra_gries")
class WindowedMisraGries(windowed_class("misra_gries")):
    """Bucketed sliding-window Misra-Gries (legacy fixed-bucket layout).

    Parameters
    ----------
    k:
        Counters per bucket.
    bucket_width:
        Time width of one bucket (same unit as timestamps).
    num_buckets:
        Retained horizon, in buckets; older buckets are evicted.
    """

    def __init__(self, k: int, bucket_width: float, num_buckets: int) -> None:
        warnings.warn(
            "WindowedMisraGries is deprecated; use "
            "MisraGries(k).windowed(eps=..., window=..., mode='time') "
            "or any other base summary's .windowed(...) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if not isinstance(k, int) or k < 1:
            raise ParameterError(f"k must be a positive integer, got {k!r}")
        if bucket_width <= 0:
            raise ParameterError(
                f"bucket_width must be positive, got {bucket_width!r}"
            )
        if num_buckets < 1:
            raise ParameterError(f"num_buckets must be >= 1, got {num_buckets!r}")
        # cap = num_buckets + 1 > live buckets, so the EH cascade never
        # merges across the fixed bucket boundaries
        super().__init__(
            eps=1.0 / int(num_buckets),
            window=float(bucket_width) * int(num_buckets),
            mode="time",
            granularity=float(bucket_width),
            k=k,
        )

    # legacy geometry, derived from the combinator configuration

    @property
    def k(self) -> int:
        return json.loads(self._proto_json)["k"]

    @property
    def bucket_width(self) -> float:
        return self.granularity

    @property
    def num_buckets(self) -> int:
        return round(self.window / self.granularity)

    @property
    def horizon(self) -> float:
        """Queryable time span: ``num_buckets * bucket_width``."""
        return self.window

    # ------------------------------------------------------------------
    # Updates (index-aligned routing, no pending bucket)
    # ------------------------------------------------------------------

    def _time_target(self, timestamp: float) -> Bucket:
        """The level-0 bucket for index ``floor(t / width)``, created
        in span order if absent — the legacy dict-by-index layout."""
        width = self.granularity
        aligned = math.floor(timestamp / width) * width
        for bucket in reversed(self._buckets):
            if bucket.start == aligned:
                return bucket
            if bucket.start < aligned:
                break
        fresh = Bucket(self._spawn(), 0, 0, aligned, aligned + width)
        self._buckets = sorted_union(self._buckets, [fresh])
        return fresh

    def update(self, item: Any, weight: int = 1) -> None:
        """Timestamp-less update lands in the most recent bucket."""
        latest = max((b.start for b in self._buckets), default=0.0)
        self.observe(item, latest, weight)

    def update_batch(
        self,
        items: Any,
        weights: Optional[Any] = None,
    ) -> None:
        """Batch ingestion into the most recent bucket.

        Every timestamp-less update lands in the latest bucket, and
        observing into the latest bucket never changes which bucket is
        latest — so the whole batch delegates to that single bucket's
        Misra-Gries batch fast path (Counter pre-aggregation) instead
        of paying the bucket lookup and eviction scan per item.
        """
        items, weights, total = normalize_batch(items, weights)
        if len(items) == 0:
            return
        latest = max((b.start for b in self._buckets), default=0.0)
        target = self._time_target(latest)
        before = target.summary.n
        target.summary.update_batch(items, weights)
        self._n += target.summary.n - before
        target.count += total
        if self._clock is None or latest > self._clock:
            self._clock = latest
        self._expire()

    def _expire(self) -> None:
        """Legacy index-based eviction: keep ``num_buckets`` recent
        bucket *indices* counted from the newest live bucket (the
        combinator's watermark-based cutoff would retain one extra
        straddling bucket mid-stripe)."""
        if not self._buckets:
            return
        latest = max(b.start for b in self._buckets)
        floor = latest - (self.num_buckets - 1) * self.granularity
        kept = []
        for bucket in self._buckets:
            if bucket.start < floor:
                self._n -= bucket.summary.n
                if self._expired_end is None or bucket.end > self._expired_end:
                    self._expired_end = bucket.end
            else:
                kept.append(bucket)
        self._buckets = kept

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def live_buckets(self) -> Dict[int, int]:
        """Bucket index -> item count (diagnostics)."""
        width = self.granularity
        return {
            int(math.floor(b.start / width)): b.summary.n
            for b in self._buckets
        }

    def estimate(self, item: Any) -> int:
        """Lower-bound count of ``item`` across all live buckets.

        Sum of the per-bucket MG estimates: each underestimates by at
        most its bucket's ``n / (k + 1)``, so the total underestimate is
        at most ``n_live / (k + 1)`` over the retained horizon.
        """
        return sum(b.summary.estimate(item) for b in self._buckets)

    def query(self, window_end: float, window_length: float) -> WindowQueryResult:
        """Heavy-hitter summary of ``[window_end - window_length, window_end]``.

        The window is rounded outward to whole buckets; the result
        reports the actual covered span.  Raises :class:`QueryError`
        when the requested window reaches past the retained horizon.
        """
        if window_length <= 0:
            raise ParameterError(
                f"window_length must be positive, got {window_length!r}"
            )
        if not self._buckets:
            raise QueryError("windowed summary holds no data")
        width = self.granularity
        last_index = int(math.floor(window_end / width))
        first_index = int(math.floor((window_end - window_length) / width))
        if (
            self._expired_end is not None
            and first_index * width < self._expired_end
        ):
            evicted_through = int(round(self._expired_end / width)) - 1
            raise QueryError(
                f"window reaches bucket {first_index} but buckets up to "
                f"{evicted_through} have expired (horizon {self.horizon})"
            )
        merged = self._spawn()
        covered = 0
        for bucket in self._buckets:
            index = int(math.floor(bucket.start / width))
            if first_index <= index <= last_index:
                merged.merge(bucket.summary)
                covered += 1
        return WindowQueryResult(
            summary=merged,
            buckets_covered=covered,
            window_start=first_index * width,
            window_end=(last_index + 1) * width,
        )

    # ------------------------------------------------------------------
    # Merge (absolute-index alignment)
    # ------------------------------------------------------------------

    def compatible_with(self, other: "WindowedMisraGries") -> Optional[str]:
        mine = (self.k, self.bucket_width, self.num_buckets)
        theirs = (other.k, other.bucket_width, other.num_buckets)
        if mine != theirs:
            return f"window geometry mismatch: {mine} vs {theirs}"
        return None

    def _merge_same_type(self, other: "WindowedMisraGries") -> None:
        for theirs in other._buckets:
            clone = theirs.clone()
            mine = next(
                (b for b in self._buckets if b.start == clone.start), None
            )
            if mine is None:
                self._buckets = sorted_union(self._buckets, [clone])
            else:
                mine.summary.merge(clone.summary)
                mine.count += clone.count
        self._n += other._n
        if other._expired_end is not None and (
            self._expired_end is None
            or other._expired_end > self._expired_end
        ):
            self._expired_end = other._expired_end
        if other._clock is not None and (
            self._clock is None or other._clock > self._clock
        ):
            self._clock = other._clock
        self._expire()

    # ------------------------------------------------------------------
    # Serialization (combinator schema, with legacy-payload migration)
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WindowedMisraGries":
        if isinstance(payload.get("buckets"), dict):
            # legacy fixed-bucket payload: {k, bucket_width, num_buckets,
            # n, evicted_through, buckets: {str(index): mg_state}}
            width = float(payload["bucket_width"])
            summary = cls(
                k=payload["k"],
                bucket_width=width,
                num_buckets=payload["num_buckets"],
            )
            for index, state in sorted(
                payload["buckets"].items(), key=lambda kv: int(kv[0])
            ):
                mg = MisraGries.from_dict(state)
                start = int(index) * width
                summary._buckets.append(
                    Bucket(mg, mg.n, 0, start, start + width)
                )
            summary._n = payload["n"]
            if summary._buckets:
                summary._clock = max(b.start for b in summary._buckets)
            evicted_through = payload.get("evicted_through")
            if evicted_through is not None:
                summary._expired_end = (evicted_through + 1) * width
            return summary
        return super().from_dict(payload)
