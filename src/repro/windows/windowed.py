"""The :class:`WindowedSummary` combinator and its derived registry.

``WindowedSummary`` lifts a base mergeable summary type to sliding
windows: updates land in an open *pending* bucket that seals every
``granularity`` units of mass (count mode) or event time (time mode);
sealed buckets live in an exponential histogram (:mod:`.eh`) whose
cascade keeps ``O(cap * log W)`` sub-summaries; expired buckets drop
wholesale as the window slides.  A window query merges the covering
buckets' sub-summaries — mergeability makes the merged answer carry
the base type's own guarantee over the covered span — and reports the
``(1 + eps)`` mass envelope whose only slack is the straddling oldest
bucket.

Merging two windowed summaries is bucket-wise union followed by
re-canonicalization under the k-per-level invariant: count mode
concatenates (the right operand's stream is taken to follow the
left's, clocks rebased), time mode interleaves buckets by span.  Both
are deterministic, so engine folds over windowed summaries are
byte-reproducible.

A registration hook derives one concrete subclass per windowable base
type and registers it as ``windowed.<name>``, giving every variant a
stable envelope identity for the codec stack, the stores and the CLI.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Type

from ..core.base import Summary
from ..core.exceptions import ParameterError, QueryError
from ..core.registry import (
    add_registration_hook,
    get_summary_class,
    register_summary,
)
from .eh import Bucket, canonicalize, sorted_union

__all__ = [
    "WindowedSummary",
    "WindowView",
    "windowed_class",
    "windowed_names",
]


class WindowBounds(NamedTuple):
    """Mass of the queried window: certain core, envelope, midpoint."""

    lower: float
    estimate: float
    upper: float


class WindowView:
    """Outcome of a sliding-window query.

    ``summary`` merges the sub-summaries of every bucket that overlaps
    the window, so its answers carry the base type's guarantee over the
    covered span ``[covered_start, covered_end]`` — which contains the
    requested window and exceeds it by at most the straddling bucket.
    """

    def __init__(
        self,
        summary: Summary,
        bounds: WindowBounds,
        buckets_covered: int,
        covered_start,
        covered_end,
    ) -> None:
        self.summary = summary
        self.bounds = bounds
        self.buckets_covered = buckets_covered
        self.covered_start = covered_start
        self.covered_end = covered_end

    @property
    def n(self) -> int:
        return self.summary.n

    @property
    def lower(self) -> float:
        return self.bounds.lower

    @property
    def estimate(self) -> float:
        return self.bounds.estimate

    @property
    def upper(self) -> float:
        return self.bounds.upper


class WindowedSummary(Summary):
    """Generic EH lifting of a base summary type to sliding windows.

    Abstract over its base type: concrete subclasses (one per
    registered base summary, created by the registration hook and
    registered as ``windowed.<name>``) pin ``base_cls``/``base_name``.

    Parameters
    ----------
    eps:
        Window-mass accuracy: per-level bucket cap is
        ``ceil(1/eps) + 1``, so a window-count query is exact up to the
        straddling oldest bucket — a ``<= eps`` fraction of the window
        under sealed-granularity ingest.
    window:
        Retained horizon — mass units in count mode, time units in time
        mode.  ``None`` disables expiry (the structure still buckets,
        so sub-window queries work over the whole history).
    mode:
        ``"count"`` slides over total update weight; ``"time"`` slides
        over event timestamps fed through :meth:`observe`
        (out-of-order tolerant).
    granularity:
        Mass (count mode) or time span (time mode) sealed into one
        level-0 bucket — the resolution of the window edge.
    **base_kwargs:
        Forwarded to the base type's constructor to build the empty
        *prototype* from which every bucket sub-summary is spawned.
    """

    #: pinned by the derived concrete subclasses
    base_cls: Optional[Type[Summary]] = None
    base_name: Optional[str] = None

    summary_kind = "windowed"
    #: window-of-window semantics is ill-defined (inner expiry races
    #: outer expiry), so windowed variants are not themselves windowable
    windowable = False

    def __init__(
        self,
        eps: float = 0.25,
        window: Optional[float] = None,
        mode: str = "count",
        granularity: float = 1,
        **base_kwargs: Any,
    ) -> None:
        cls = type(self)
        if cls.base_cls is None:
            raise ParameterError(
                "WindowedSummary is abstract; construct a registered "
                "windowed.<name> variant, or use Summary.windowed() / "
                "WindowedSummary.from_prototype()"
            )
        proto = cls.base_cls(**base_kwargs)
        self._configure(proto.to_dict(), eps, window, mode, granularity)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _configure(
        self,
        proto_state: Dict[str, Any],
        eps: float,
        window: Optional[float],
        mode: str,
        granularity: float,
    ) -> None:
        Summary.__init__(self)
        if not 0 < eps <= 1:
            raise ParameterError(f"eps must be in (0, 1], got {eps!r}")
        # written as "not > 0" so that NaN is refused too
        if window is not None and not window > 0:
            raise ParameterError(f"window must be positive, got {window!r}")
        if mode not in ("count", "time"):
            raise ParameterError(
                f"mode must be 'count' or 'time', got {mode!r}"
            )
        if not 0 < granularity < math.inf:
            raise ParameterError(
                f"granularity must be positive and finite, got {granularity!r}"
            )
        self.eps = float(eps)
        self.window = window
        self.mode = mode
        self.granularity = granularity
        #: per-level bucket cap: straddler <= 1/(cap-1) of the window
        self.cap = max(2, math.ceil(1.0 / self.eps) + 1)
        self._proto_json = json.dumps(proto_state, sort_keys=True)
        self._buckets: List[Bucket] = []
        self._pending: Optional[Bucket] = None
        #: count mode: total mass ever ingested; time mode: watermark
        #: (max event timestamp seen), ``None`` until the first event
        self._clock = 0 if mode == "count" else None
        #: furthest span end among expired buckets (query horizon)
        self._expired_end = None

    @classmethod
    def from_prototype(
        cls,
        proto: Summary,
        eps: float = 0.25,
        window: Optional[float] = None,
        mode: str = "count",
        granularity: float = 1,
    ) -> "WindowedSummary":
        """Lift an *empty* base summary (the prototype) to a window.

        Callable on a concrete variant or on :class:`WindowedSummary`
        itself, which dispatches through the registry on the
        prototype's type.
        """
        if cls.base_cls is None:
            cls = windowed_class(type(proto))
        if type(proto) is not cls.base_cls:
            raise ParameterError(
                f"{cls.__name__} expects a {cls.base_cls.__name__} "
                f"prototype, got {type(proto).__name__}"
            )
        if not proto.is_empty:
            raise ParameterError(
                "window prototype must be empty: it defines the base "
                "parameters, not data"
            )
        self = cls.__new__(cls)
        self._configure(proto.to_dict(), eps, window, mode, granularity)
        return self

    def _spawn(self) -> Summary:
        """A fresh sub-summary cloned from the prototype state."""
        return type(self).base_cls.from_dict(json.loads(self._proto_json))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: Any, weight: int = 1) -> None:
        """Fold ``weight`` occurrences of ``item`` into the window.

        Count mode advances the mass clock by ``weight``; time mode
        stamps the item at the current watermark (use :meth:`observe`
        for explicit event times).
        """
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        if self.mode == "time":
            self.observe(item, self._clock if self._clock is not None else 0.0, weight)
            return
        if self._pending is None:
            self._pending = Bucket(self._spawn(), 0, 0, self._clock, self._clock)
        bucket = self._pending
        before = bucket.summary.n
        bucket.summary.update(item, weight)
        self._n += bucket.summary.n - before
        bucket.count += weight
        self._clock += weight
        bucket.end = self._clock
        if bucket.count >= self.granularity:
            self._seal()

    def observe(self, item: Any, timestamp: float, weight: int = 1) -> None:
        """Record ``weight`` occurrences of ``item`` at ``timestamp``.

        Time mode only.  Out-of-order events are tolerated: a late item
        folds into the sealed bucket whose span covers it (or the
        oldest live bucket when it predates everything retained), at
        the cost of that bucket's span widening to admit it.
        """
        if self.mode != "time":
            raise ParameterError(
                "observe() requires mode='time'; count-mode windows "
                "advance by update weight"
            )
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        timestamp = float(timestamp)
        if not math.isfinite(timestamp):
            raise ParameterError(f"timestamp must be finite, got {timestamp!r}")
        target = self._time_target(timestamp)
        before = target.summary.n
        target.summary.update(item, weight)
        self._n += target.summary.n - before
        target.count += weight
        target.start = min(target.start, timestamp)
        target.end = max(target.end, timestamp)
        if self._clock is None or timestamp > self._clock:
            self._clock = timestamp
        self._expire()

    def _time_target(self, timestamp: float) -> Bucket:
        """The bucket a timestamped event folds into (opening/sealing)."""
        grain = self.granularity
        pending = self._pending
        if pending is not None and timestamp >= pending.start:
            if timestamp < pending.start + grain:
                return pending
            self._seal()
            pending = None
        if pending is None:
            aligned = math.floor(timestamp / grain) * grain
            newest_end = self._buckets[-1].end if self._buckets else None
            if newest_end is None or timestamp >= newest_end:
                self._pending = Bucket(self._spawn(), 0, 0, aligned, aligned)
                return self._pending
        # late arrival: newest sealed bucket whose span starts at or
        # before the event; predating everything -> the oldest live
        # bucket, which is the pending one while nothing is sealed
        for bucket in reversed(self._buckets):
            if bucket.start <= timestamp:
                return bucket
        return self._buckets[0] if self._buckets else pending

    def _seal(self) -> None:
        """Close the pending bucket into the histogram and cascade."""
        if self._pending is None:
            return
        self._buckets.append(self._pending)
        self._pending = None
        canonicalize(self._buckets, self.cap)
        self._expire()

    def _expire(self) -> None:
        """Drop buckets wholly older than the window."""
        if self.window is None or self._clock is None:
            return
        cutoff = self._clock - self.window
        expired = [b.end for b in self._buckets if b.end <= cutoff]
        pending = self._pending
        if pending is not None and pending.count and pending.end <= cutoff:
            expired.append(pending.end)
            self._pending = None
        if not expired:
            return
        self._buckets = [b for b in self._buckets if b.end > cutoff]
        if self._expired_end is None or max(expired) > self._expired_end:
            self._expired_end = max(expired)
        # recounted, not subtracted: float weights would leave a residue
        self._n = self._held()

    def _held(self) -> Any:
        """The mass the live buckets and the open bucket hold."""
        held = sum(b.summary.n for b in self._buckets)
        if self._pending is not None:
            held += self._pending.summary.n
        return held

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def compatible_with(self, other: "WindowedSummary") -> Optional[str]:
        mine = (self.eps, self.window, self.mode, self.granularity)
        theirs = (other.eps, other.window, other.mode, other.granularity)
        if mine != theirs:
            return f"window geometry mismatch: {mine} vs {theirs}"
        if _strip_seeds(json.loads(self._proto_json)) != _strip_seeds(
            json.loads(other._proto_json)
        ):
            return "window prototype parameters differ"
        return None

    def _merge_same_type(self, other: "WindowedSummary") -> None:
        if self.mode == "time":
            self._merge_aligned(other)
        else:
            self._merge_concat(other)

    def _merge_concat(self, other: "WindowedSummary") -> None:
        """Count-mode union: ``other``'s stream follows ``self``'s."""
        offset = self._clock
        if self._pending is not None:
            # self's open bucket predates everything in other
            self._buckets.append(self._pending)
            self._pending = None
        self._buckets.extend(b.clone(offset) for b in other._buckets)
        if other._pending is not None:
            self._pending = other._pending.clone(offset)
        self._clock += other._clock
        self._n += other._n
        if other._expired_end is not None:
            shifted = other._expired_end + offset
            if self._expired_end is None or shifted > self._expired_end:
                self._expired_end = shifted
        canonicalize(self._buckets, self.cap)
        self._expire()

    def _merge_aligned(self, other: "WindowedSummary") -> None:
        """Span-ordered union (time mode)."""
        self._buckets = sorted_union(
            self._buckets, [b.clone() for b in other._buckets]
        )
        if other._pending is not None:
            theirs = other._pending.clone()
            if self._pending is None:
                self._pending = theirs
            else:
                # seal the older open bucket, keep the newer one open
                older, newer = (
                    (self._pending, theirs)
                    if self._pending.start <= theirs.start
                    else (theirs, self._pending)
                )
                self._buckets = sorted_union(self._buckets, [older])
                self._pending = newer
        if other._clock is not None and (
            self._clock is None or other._clock > self._clock
        ):
            self._clock = other._clock
        self._n += other._n
        if other._expired_end is not None and (
            self._expired_end is None
            or other._expired_end > self._expired_end
        ):
            self._expired_end = other._expired_end
        canonicalize(self._buckets, self.cap)
        self._expire()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """Live histogram buckets (excluding the open pending bucket)."""
        return len(self._buckets)

    @property
    def max_level(self) -> int:
        return max((b.level for b in self._buckets), default=0)

    def live_buckets(self) -> List[Dict[str, Any]]:
        """Span/level/mass of every live bucket (diagnostics)."""
        rows = [
            {
                "level": b.level,
                "count": b.count,
                "start": b.start,
                "end": b.end,
                "n": b.summary.n,
            }
            for b in self._buckets
        ]
        if self._pending is not None:
            p = self._pending
            rows.append(
                {
                    "level": -1,
                    "count": p.count,
                    "start": p.start,
                    "end": p.end,
                    "n": p.summary.n,
                }
            )
        return rows

    def _cutoff(self, window, end):
        if window is None:
            window = self.window  # default: the configured window
        if end is None:
            end = self._clock
        if end is None:  # no data yet (time mode)
            return None, None
        if window is None:
            return None, end
        return end - window, end

    def _covering(self, window=None, end=None):
        cutoff, end = self._cutoff(window, end)
        if (
            cutoff is not None
            and self._expired_end is not None
            and cutoff < self._expired_end
        ):
            raise QueryError(
                f"window reaches back to {cutoff}, but data through "
                f"{self._expired_end} has expired (window={self.window})"
            )
        covered = []
        for bucket in self._buckets:
            if cutoff is not None and bucket.end <= cutoff:
                continue
            if end is not None and bucket.start > end:
                continue
            covered.append(bucket)
        pending = self._pending
        if pending is not None and pending.count:
            if (cutoff is None or pending.end > cutoff) and (
                end is None or pending.start <= end
            ):
                covered.append(pending)
        return covered, cutoff, end

    def window_count_bounds(
        self, window: Optional[float] = None, end=None
    ) -> WindowBounds:
        """Mass envelope of the trailing window.

        ``lower`` counts buckets wholly inside the window; ``upper``
        adds every straddling bucket.  The true in-window mass lies in
        ``[lower, upper]``; under sealed sequential ingest the slack is
        a single straddler of at most an ``eps`` fraction of the
        window's mass.
        """
        covered, cutoff, _ = self._covering(window, end)
        upper = sum(b.count for b in covered)
        if cutoff is None:
            lower = upper
        else:
            lower = sum(b.count for b in covered if b.start >= cutoff)
        return WindowBounds(lower, (lower + upper) / 2.0, upper)

    def window_query(
        self, window: Optional[float] = None, end=None
    ) -> WindowView:
        """Merged base-summary view of the trailing window.

        Merges the sub-summaries of every bucket overlapping
        ``(end - window, end]`` (defaults: the configured window,
        ending now).  The merged summary covers the reported span —
        window queries are bucket-aligned, exceeding the request by at
        most the straddling bucket, which is what the ``(1 + eps)``
        envelope prices.
        """
        if window is not None and window <= 0:
            raise ParameterError(f"window must be positive, got {window!r}")
        covered, cutoff, end = self._covering(window, end)
        merged = self._spawn()
        merged.merge_many([b.summary for b in covered])
        upper = sum(b.count for b in covered)
        lower = (
            upper
            if cutoff is None
            else sum(b.count for b in covered if b.start >= cutoff)
        )
        return WindowView(
            merged,
            WindowBounds(lower, (lower + upper) / 2.0, upper),
            buckets_covered=len(covered),
            covered_start=min((b.start for b in covered), default=cutoff),
            covered_end=max((b.end for b in covered), default=end),
        )

    def size(self) -> int:
        total = sum(b.summary.size() for b in self._buckets)
        if self._pending is not None:
            total += self._pending.summary.size()
        return total

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return self._state(Bucket.to_dict)

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict` with each bucket's sub-summary in its stored
        form, making the same seed draws in the same order."""
        return self._state(Bucket.to_stored)

    def _state(self, row: Callable[[Bucket], Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "eps": self.eps,
            "window": self.window,
            "mode": self.mode,
            "granularity": self.granularity,
            "proto": json.loads(self._proto_json),
            "clock": self._clock,
            "n": self._n,
            "expired_end": self._expired_end,
            # kept so saved states stay byte-identical
            "prealigned": False,
            "buckets": [row(b) for b in self._buckets],
            "pending": row(self._pending) if self._pending is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WindowedSummary":
        """Read :meth:`to_dict` or :meth:`to_stored` output.

        Raises :class:`ParameterError` for a state no window reaches: a
        bucket whose level is not a non-negative int, whose count is
        not a non-negative number, whose span is not finite with
        ``start <= end``, or whose sub-summary the prototype would not
        merge; an ``n`` other than the sum of its buckets' ``n`` (up to
        rounding once a weight was a float); a clock that is not a
        number (``None`` only in time mode); or an ``expired_end`` that
        is neither ``None`` nor finite.
        """
        if cls.base_cls is None:
            raise ParameterError(
                "WindowedSummary is abstract; deserialize through a "
                "registered windowed.<name> variant"
            )
        self = cls.__new__(cls)
        self._configure(
            payload["proto"],
            payload["eps"],
            payload["window"],
            payload["mode"],
            payload["granularity"],
        )
        proto = self._spawn()

        def bucket(row: Dict[str, Any]) -> Bucket:
            level, count, start, end = (
                row["level"], row["count"], row["start"], row["end"]
            )
            if type(level) is not int or level < 0:
                raise ParameterError(
                    f"bucket level must be a non-negative int, got {level!r}"
                )
            if not _is_number(count) or not count >= 0:
                raise ParameterError(
                    f"bucket count must be a non-negative number, got {count!r}"
                )
            if not (_is_finite(start) and _is_finite(end) and start <= end):
                raise ParameterError(
                    f"bucket span must be finite with start <= end, got "
                    f"({start!r}, {end!r})"
                )
            summary = cls.base_cls.from_dict(row["state"])
            reason = proto.compatible_with(summary)
            if reason is not None:
                raise ParameterError(f"bucket does not fit the prototype: {reason}")
            return Bucket(summary, count, level, start, end)

        self._buckets = [bucket(row) for row in payload["buckets"]]
        if payload.get("pending") is not None:
            self._pending = bucket(payload["pending"])
        clock, n = payload["clock"], payload["n"]
        expired_end = payload.get("expired_end")
        if not (_is_finite(clock) or (clock is None and self.mode == "time")):
            raise ParameterError(f"clock must be a number, got {clock!r}")
        if expired_end is not None and not _is_finite(expired_end):
            raise ParameterError(
                f"expired_end must be None or finite, got {expired_end!r}"
            )
        held = self._held()
        # float weights round the running n (each update by about 1e-16 of
        # it), so only integer states must match exactly
        exact = isinstance(n, numbers.Integral) and isinstance(held, numbers.Integral)
        if not _is_number(n) or not (
            n == held if exact else math.isclose(n, held, rel_tol=1e-6, abs_tol=1e-9)
        ):
            raise ParameterError(f"n = {n!r}, but the buckets hold {held}")
        self._clock = clock
        self._n = n
        self._expired_end = expired_end
        return self


def _is_number(value: Any) -> bool:
    """A real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return _is_number(value) and math.isfinite(value)


def _strip_seeds(value: Any) -> Any:
    """Recursively drop volatile RNG re-seed fields for comparisons."""
    if isinstance(value, dict):
        return {k: _strip_seeds(v) for k, v in value.items() if k != "seed"}
    if isinstance(value, list):
        return [_strip_seeds(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Derived registry: one windowed.<name> variant per windowable base type
# ---------------------------------------------------------------------------

#: registered windowed variants: ``windowed.<base>`` -> subclass
_DERIVED: Dict[str, Type[WindowedSummary]] = {}


def windowed_class(base: Any) -> Type[WindowedSummary]:
    """The registered windowed variant for a base type, name or class."""
    if isinstance(base, str):
        name = base
    else:
        name = getattr(base, "registry_name", None)
        if name is None:
            raise ParameterError(
                f"{base!r} is not a registered summary type"
            )
    return get_summary_class(f"windowed.{name}")


def windowed_names() -> List[str]:
    """Sorted registered ``windowed.<name>`` variant names."""
    return sorted(_DERIVED)


def _derive_windowed(name: str, cls: Type[Summary]) -> None:
    """Registration hook: lift every windowable base registration."""
    if name.startswith("windowed."):
        return
    if getattr(cls, "summary_kind", "base") != "base":
        return
    if not getattr(cls, "windowable", True):
        return
    derived_name = f"windowed.{name}"
    if derived_name in _DERIVED:
        return
    attribute = f"Windowed_{name}"
    derived = type(
        attribute,
        (WindowedSummary,),
        {
            "base_cls": cls,
            "base_name": name,
            "__module__": __name__,
            "__doc__": (
                f"Sliding-window lifting of :class:`{cls.__name__}` "
                f"(registered as ``{derived_name}``); see "
                ":class:`WindowedSummary`."
            ),
        },
    )
    # module attribute so pickling by reference works across processes
    globals()[attribute] = derived
    _DERIVED[derived_name] = derived
    register_summary(derived_name)(derived)


add_registration_hook(_derive_windowed)
