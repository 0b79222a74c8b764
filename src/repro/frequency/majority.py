"""Boyer-Moore majority vote: the ``k = 1`` corner of Misra-Gries.

The majority-vote algorithm is exactly a Misra-Gries summary with a
single counter; it finds the (unique, if any) item occurring more than
``n/2`` times.  The paper's merge rule specializes to the well-known
"weighted majority combine": when two votes disagree, the larger count
absorbs the smaller as deduction.

Provided both as a pedagogical minimal mergeable summary and as a test
fixture (its behaviour is simple enough to verify by hand).
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.base import Summary
from ..core.exceptions import EmptySummaryError, ParameterError
from ..core.items import plain
from ..core.registry import register_summary

__all__ = ["MajorityVote"]


@register_summary("majority_vote")
class MajorityVote(Summary):
    """Single-counter mergeable majority-candidate summary."""

    def __init__(self) -> None:
        super().__init__()
        self._candidate: Any = None
        self._count = 0
        self._deduction = 0

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        self._n += weight
        if self._count == 0:
            self._candidate = item
            self._count = weight
        elif item == self._candidate:
            self._count += weight
        else:
            absorbed = min(weight, self._count)
            self._count -= absorbed
            self._deduction += absorbed
            if weight > absorbed:
                self._candidate = item
                self._count = weight - absorbed
            elif self._count == 0:
                self._candidate = None

    @property
    def candidate(self) -> Any:
        """The current majority candidate (None when no counter survives)."""
        if self.is_empty:
            raise EmptySummaryError("majority vote over an empty summary")
        return self._candidate

    @property
    def deduction(self) -> int:
        """Maximum under-estimation of the candidate's true count (``<= n/2``)."""
        return self._deduction

    def estimate(self, item: Any) -> int:
        """Lower-bound count (nonzero only for the surviving candidate)."""
        if self._count > 0 and item == self._candidate:
            return self._count
        return 0

    def upper_bound(self, item: Any) -> int:
        return self.estimate(item) + self._deduction

    def size(self) -> int:
        return 1 if self._count > 0 else 0

    def _merge_same_type(self, other: "Summary") -> None:
        assert isinstance(other, MajorityVote)
        self._n += other._n
        self._deduction += other._deduction
        if other._count == 0:
            return
        if self._count == 0 or other._candidate == self._candidate:
            if self._count == 0:
                self._candidate = other._candidate
                self._count = other._count
            else:
                self._count += other._count
            return
        absorbed = min(self._count, other._count)
        self._deduction += absorbed
        if other._count > self._count:
            self._candidate = other._candidate
        self._count = abs(self._count - other._count)
        if self._count == 0:
            self._candidate = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "candidate": plain(self._candidate),
            "count": self._count,
            "deduction": self._deduction,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MajorityVote":
        summary = cls()
        summary._n = payload["n"]
        summary._candidate = payload["candidate"]
        summary._count = payload["count"]
        summary._deduction = payload["deduction"]
        return summary
