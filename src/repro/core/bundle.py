"""SummaryBundle: several mergeable summaries over one record stream.

Real deployments rarely maintain a single summary: a monitoring node
tracks hot keys *and* distinct users *and* latency percentiles from the
same event stream.  A :class:`SummaryBundle` groups named summaries,
each bound to a field of the incoming records, so the node-side code is
one ``update`` and the collector-side code is one ``merge`` — and the
bundle as a whole rides the same wire format as individual summaries.

Example::

    bundle = SummaryBundle()
    bundle.add("hot_pages", MisraGries(64), field="page")
    bundle.add("users", HyperLogLog(p=12, seed=1), field="user")
    bundle.add("latency", MergeableQuantiles(256, rng=2), field="ms")

    bundle.update({"page": "/home", "user": 42, "ms": 12.5})
    ...
    collector.merge(bundle)                  # member-wise, checked
    collector["latency"].quantile(0.99)

Records missing a bound field simply skip that member (sparse events
are normal); ``strict=True`` on :meth:`update` makes that an error.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional

from .base import Summary, normalize_batch
from .exceptions import MergeError, ParameterError
from .codecs import from_envelope, to_envelope

__all__ = ["SummaryBundle"]


class SummaryBundle:
    """A named collection of mergeable summaries over record streams."""

    def __init__(self) -> None:
        self._members: Dict[str, Summary] = {}
        self._fields: Dict[str, str] = {}
        self._n = 0

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def add(self, name: str, summary: Summary, field: str) -> "SummaryBundle":
        """Register ``summary`` under ``name``, fed from record ``field``."""
        if name in self._members:
            raise ParameterError(f"bundle already has a member named {name!r}")
        if not isinstance(summary, Summary):
            raise ParameterError(
                f"member must be a Summary, got {type(summary).__name__}"
            )
        self._members[name] = summary
        self._fields[name] = field
        return self

    def __getitem__(self, name: str) -> Summary:
        try:
            return self._members[name]
        except KeyError:
            raise ParameterError(
                f"no bundle member named {name!r}; members: {sorted(self._members)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def members(self) -> Dict[str, Summary]:
        """Snapshot of the name -> summary mapping."""
        return dict(self._members)

    @property
    def n(self) -> int:
        """Number of records folded in."""
        return self._n

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, record: Mapping[str, Any], strict: bool = False) -> None:
        """Feed one record; each member consumes its bound field.

        Fields absent from the record are skipped unless ``strict``.
        """
        if not self._members:
            raise ParameterError("bundle has no members; add() some first")
        self._n += 1
        for name, summary in self._members.items():
            field = self._fields[name]
            if field in record:
                summary.update(record[field])
            elif strict:
                raise ParameterError(
                    f"record is missing field {field!r} required by member {name!r}"
                )

    def update_batch(
        self,
        records,
        weights: Optional[Any] = None,
        strict: bool = False,
    ) -> None:
        """Feed a batch of records; each member ingests its field batched.

        ``weights`` is an optional parallel sequence of positive integer
        record multiplicities (a record with weight ``w`` counts as ``w``
        identical records).  Per member, the bound field's values are
        collected across the batch and handed to that member's
        :meth:`Summary.update_batch` — one vectorized ingestion per
        member instead of one Python call per record per member.
        """
        if not self._members:
            raise ParameterError("bundle has no members; add() some first")
        records, weights, total = normalize_batch(records, weights)
        if not len(records):
            return
        weight_list = None if weights is None else weights.tolist()
        for name, summary in self._members.items():
            field = self._fields[name]
            values = []
            value_weights = [] if weight_list is not None else None
            for index, record in enumerate(records):
                if field in record:
                    values.append(record[field])
                    if value_weights is not None:
                        value_weights.append(weight_list[index])
                elif strict:
                    raise ParameterError(
                        f"record is missing field {field!r} required by "
                        f"member {name!r}"
                    )
            if values:
                summary.update_batch(values, value_weights)
        self._n += total

    def extend(self, records, weights: Optional[Any] = None) -> "SummaryBundle":
        """Feed an iterable of records (optionally weighted); returns ``self``."""
        self.update_batch(records, weights)
        return self

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge(self, other: "SummaryBundle") -> "SummaryBundle":
        """Member-wise merge; bundles must have identical member layouts.

        Validates the full layout *before* mutating anything, so a
        failed merge leaves the receiver untouched.
        """
        if not isinstance(other, SummaryBundle):
            raise MergeError(
                f"cannot merge SummaryBundle with {type(other).__name__}"
            )
        if set(self._members) != set(other._members):
            raise MergeError(
                f"bundle member mismatch: {sorted(self._members)} vs "
                f"{sorted(other._members)}"
            )
        for name in self._members:
            if self._fields[name] != other._fields[name]:
                raise MergeError(
                    f"member {name!r} bound to field {self._fields[name]!r} here "
                    f"but {other._fields[name]!r} there"
                )
            mine, theirs = self._members[name], other._members[name]
            if type(mine) is not type(theirs):
                raise MergeError(
                    f"member {name!r} type mismatch: {type(mine).__name__} vs "
                    f"{type(theirs).__name__}"
                )
            problem = mine.compatible_with(theirs)
            if problem is not None:
                raise MergeError(f"member {name!r} incompatible: {problem}")
        for name in self._members:
            self._members[name].merge(other._members[name])
        self._n += other._n
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "members": {
                name: {
                    "field": self._fields[name],
                    "envelope": to_envelope(summary),
                }
                for name, summary in self._members.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SummaryBundle":
        bundle = cls()
        for name, entry in payload["members"].items():
            bundle.add(name, from_envelope(entry["envelope"]), entry["field"])
        bundle._n = payload["n"]
        return bundle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SummaryBundle n={self._n} members={sorted(self._members)}>"
