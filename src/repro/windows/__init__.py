"""Sliding-window mergeability: lift any summary to windowed semantics.

The paper's mergeability guarantee composes summaries across *space*
(arbitrary merge trees over data partitions); this package adds the
missing composition across *time*.  :class:`WindowedSummary` lifts any
registered mergeable summary to count-based and time-based sliding
windows by maintaining exponential-histogram (Datar et al.) dyadic
buckets of sub-summaries: at most ``ceil(1/eps) + 1`` buckets per
level, two oldest same-level buckets merge on overflow, closed buckets
expire as the window slides, and only the straddling oldest bucket is
uncertain — a ``(1 + eps)`` window-count error envelope.

A registration hook derives a ``windowed.<name>`` variant for every
windowable registered summary type, so the codec stack, the merge
engine, the stores and the conformance suites cover windowed variants
with zero per-type code.
"""

from .windowed import (
    WindowView,
    WindowedSummary,
    windowed_class,
    windowed_names,
)

__all__ = [
    "WindowedSummary",
    "WindowView",
    "windowed_class",
    "windowed_names",
]
