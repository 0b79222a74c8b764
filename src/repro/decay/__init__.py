"""Time-decayed mergeable heavy hitters (paper future work).

Sliding windows over any windowable summary, Misra-Gries included,
live in :mod:`repro.windows`: ``MisraGries(k).windowed(...)``.
"""

from .decayed_mg import DecayedMisraGries

__all__ = ["DecayedMisraGries"]
