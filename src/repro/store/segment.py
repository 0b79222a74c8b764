"""Immutable segments: one key-range slice of the stream, pre-summarized.

A :class:`Segment` is the store's unit of pre-computation, the shape
Storyboard-style serving systems persist: it covers a half-open key
range (time range, usually) and holds one summary per configured store
member, built from exactly the records whose key fell in that range.
Segments are *immutable* — ingesting more data into a covered range
produces a replacement segment (built by merging, never by mutating),
so any segment ever handed out stays valid and roll-ups/caches key off
segment identity.

Base segments (level 0) cover one *epoch* — one ``width``-wide slot of
the key axis.  Roll-up segments (level ``ℓ >= 1``) cover an aligned
dyadic block of ``2**ℓ`` epochs and hold the merge of their children;
:mod:`repro.store.planner` serves range queries from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from ..core.base import Summary
from ..core.exceptions import ParameterError
from ..core.registry import get_summary_class

__all__ = [
    "MemberSpec",
    "Segment",
    "build_members",
    "copy_summary",
]


def copy_summary(summary: Summary) -> Summary:
    """An independent copy of ``summary``: the left operand of a store merge.

    Every merge the store performs (ingest replacement, roll-up,
    query) folds into such a copy, never into a stored segment's
    summary, and that is what keeps segments immutable.  It is
    :meth:`Summary.copy`, whose state always equals
    ``from_dict(to_dict())``; the types the store serves most override
    it natively, so the copy runs without serializing.
    """
    return summary.copy()


@dataclass(frozen=True)
class MemberSpec:
    """One configured summary of the store schema.

    ``type_name`` is a registry name, ``kwargs`` its constructor
    arguments (JSON-compatible, so the schema persists in the
    manifest), and ``field`` the record field the member ingests.
    """

    type_name: str
    field: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Summary:
        """Construct an empty summary for one segment."""
        cls = get_summary_class(self.type_name)
        try:
            return cls(**self.kwargs)
        except TypeError as exc:
            raise ParameterError(
                f"cannot construct {self.type_name} with {self.kwargs!r}: {exc}"
            ) from exc

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.type_name, "field": self.field, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MemberSpec":
        return cls(
            type_name=payload["type"],
            field=payload["field"],
            kwargs=dict(payload.get("kwargs", {})),
        )


@dataclass
class Segment:
    """An immutable pre-summarized slice ``[start, start + span)`` of epochs.

    ``level`` 0 segments are ingest output (``span == 1``); higher
    levels are dyadic roll-ups (``span == 2**level``, ``start`` aligned
    to ``span``).  ``members`` maps member name to that member's
    summary over the covered records; treat both the mapping and the
    summaries as frozen — the store only ever *replaces* segments.
    """

    segment_id: str
    level: int
    start: int
    count: int
    members: Dict[str, Summary]

    @property
    def span(self) -> int:
        """Number of base epochs covered (``2**level``)."""
        return 1 << self.level

    @property
    def end(self) -> int:
        """One past the last covered epoch."""
        return self.start + self.span

    def key_range(self, width: float) -> tuple:
        """The half-open key range ``[lo, hi)`` this segment covers."""
        return (self.start * width, self.end * width)

    def meta(self) -> Dict[str, Any]:
        """JSON-compatible descriptor (no summary payloads)."""
        return {
            "id": self.segment_id,
            "level": self.level,
            "start": self.start,
            "count": self.count,
            "members": sorted(self.members),
        }

    def fingerprint(self) -> str:
        """Digest of the full logical segment state (meta + member states).

        The unit the crash-safety proofs compare: two segments with
        equal fingerprints are indistinguishable to every query, so
        "recovery restored this segment" can be asserted byte-for-byte
        without comparing container files (which may differ in codec).
        Some types draw the next seed from their coin stream in
        ``to_dict``; the digest hashes the state of a deep copy, which
        copies the stream, so it repeats and moves no stream.
        """
        import copy
        import hashlib
        import json

        state = {
            "meta": self.meta(),
            "members": {
                name: copy.deepcopy(summary).to_dict()
                for name, summary in sorted(self.members.items())
            },
        }
        canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Segment {self.segment_id} level={self.level} "
            f"epochs=[{self.start},{self.end}) count={self.count}>"
        )


def build_members(
    schema: Dict[str, MemberSpec],
    records,
    weights,
) -> Dict[str, Summary]:
    """Fold ``records`` into one fresh summary per schema member.

    The shared ingest kernel of :class:`~repro.store.store.SegmentStore`
    base segments and :class:`~repro.store.cube.CubeStore` cells: each
    member ingests the values of its configured field (records missing
    the field are skipped for that member) through the vectorized
    ``update_batch`` path, with ``weights`` (when given) subset in
    parallel.
    """
    members: Dict[str, Summary] = {}
    for name, spec in schema.items():
        summary = spec.build()
        values = []
        value_weights = [] if weights is not None else None
        for index, record in enumerate(records):
            if spec.field in record:
                values.append(record[spec.field])
                if value_weights is not None:
                    value_weights.append(weights[index])
        if values:
            summary.update_batch(values, value_weights)
        members[name] = summary
    return members

