"""The :class:`Summary` abstract base class.

A *summary* in the sense of the paper is a small data structure ``S(D)``
computed from a dataset ``D`` that supports three operations:

``update``
    fold one more item into the summary (streaming insertion);

``merge``
    combine this summary with another summary of the *same type and
    parameters* so that the result summarizes the union of the two
    underlying datasets — with **no loss of guarantee**: the error
    parameter and the size bound of the merged summary equal those of
    the inputs, no matter how many merges happened before (this is the
    paper's definition of *mergeability*);

``query``-style accessors
    summary-type specific (frequency estimates, rank/quantile estimates,
    range counts, directional width), defined by subclasses.

Implementations must keep :attr:`n` equal to the total weight of all
items folded in through ``update`` and ``merge`` — every error bound in
the paper is relative to this quantity.
"""

from __future__ import annotations

import abc
import copy
import weakref
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .exceptions import MergeError, ParameterError

__all__ = ["Summary", "normalize_batch"]


def normalize_batch(
    items: Iterable[Any], weights: Optional[Sequence[int]]
) -> Tuple[Sequence[Any], Optional[np.ndarray], int]:
    """Validate and materialize a batch for :meth:`Summary.update_batch`.

    Returns ``(items, weights, total)`` where ``items`` is a sized
    sequence (list or numpy array), ``weights`` is either ``None`` or an
    ``int64`` array of per-item positive weights aligned with ``items``,
    and ``total`` is the total weight of the batch (what ``n`` must grow
    by once the batch is folded in).
    """
    if isinstance(items, np.ndarray):
        if items.ndim == 0:
            raise ParameterError("update_batch expects a sequence of items")
    elif not isinstance(items, (list, tuple)):
        items = list(items)
    if weights is None:
        return items, None, len(items)
    w = np.asarray(weights)
    if w.ndim != 1 or len(w) != len(items):
        raise ParameterError(
            f"weights must align with items: got {len(items)} item(s) "
            f"and weights of shape {w.shape}"
        )
    if w.dtype.kind == "f":
        if not np.all(w == np.floor(w)):
            raise ParameterError("weights must be integer-valued")
        # casting a float past int64 is platform-defined (wraps or clamps)
        if not np.all(np.abs(w) < 2.0**63):
            raise ParameterError("weights must be below 2**63")
        w = w.astype(np.int64)
    elif w.dtype.kind in ("i", "u"):
        w = w.astype(np.int64)
    else:
        raise ParameterError(f"weights must be numeric, got dtype {w.dtype}")
    if len(w) and int(w.min()) <= 0:
        raise ParameterError("weights must be positive")
    return items, w, int(w.sum())


class Summary(abc.ABC):
    """Abstract mergeable summary.

    Subclasses must implement :meth:`update`, :meth:`_merge_same_type`,
    :meth:`size`, :meth:`to_dict` and :meth:`from_dict`, and must keep
    the item count :attr:`n` correct (overriding :meth:`copy` is
    optional).  The public :meth:`merge` performs the type/compatibility
    checks common to all summaries and then delegates to
    ``_merge_same_type``.
    """

    #: total weight (number of item occurrences) summarized so far.
    _n: int

    #: whether the type supports the generic sliding-window lifting of
    #: :mod:`repro.windows`.  ``False`` for types whose merge carries
    #: structural preconditions the window combinator cannot honor
    #: (e.g. ``EqualWeightQuantiles`` requires equal-weight operands,
    #: and window buckets have arbitrary masses).
    windowable: bool = True

    #: "base" for directly implemented summaries; "windowed" for the
    #: auto-derived ``windowed.<name>`` combinator variants.  Drives the
    #: ``kind`` filter of :func:`repro.core.registry.registered_names`.
    summary_kind: str = "base"

    #: ``(weak reference to the summary this one was copied from, n at
    #: the copy)``, set by :meth:`_share_answer` and consumed by the
    #: first :meth:`_kept_answer`; never pickled
    _source: Optional[Tuple["weakref.ReferenceType[Summary]", int]] = None

    def __init__(self) -> None:
        self._n = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Total weight of the summarized dataset (the paper's ``n``)."""
        return self._n

    @property
    def is_empty(self) -> bool:
        """True when no items have been folded in yet."""
        return self._n == 0

    def extend(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> "Summary":
        """Fold every item of ``items`` into the summary; return ``self``.

        ``weights`` is an optional parallel sequence of positive integer
        multiplicities — ``extend(items, weights)`` is equivalent to
        ``update(item, weight)`` for each pair.  Ingestion routes through
        :meth:`update_batch`, so summaries with vectorized batch paths
        ingest at array speed.
        """
        self.update_batch(items, weights)
        return self

    @classmethod
    def from_items(
        cls,
        items: Iterable[Any],
        /,
        weights: Optional[Sequence[int]] = None,
        **kwargs: Any,
    ) -> "Summary":
        """Build a summary of ``items`` (optionally weighted) with ``kwargs``."""
        summary = cls(**kwargs)
        summary.extend(items, weights)
        return summary

    def update_batch(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        """Fold a batch of items (optionally weighted) into the summary.

        Semantically identical to calling :meth:`update` once per item
        with the matching weight; subclasses override this with
        vectorized fast paths (bulk hashing, single compaction passes,
        pre-aggregation) that preserve those semantics.  The generic
        fallback simply loops.
        """
        items, weights, _ = normalize_batch(items, weights)
        if weights is None:
            for item in items:
                self.update(item)
        else:
            for item, weight in zip(items, weights.tolist()):
                self.update(item, weight)

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def update(self, item: Any, weight: int = 1) -> None:
        """Fold ``weight`` occurrences of ``item`` into the summary."""

    @abc.abstractmethod
    def _merge_same_type(self, other: "Summary") -> None:
        """Merge ``other`` (already checked to be compatible) into ``self``."""

    @abc.abstractmethod
    def size(self) -> int:
        """Number of stored entries (counters, samples, points, ...).

        This is the quantity bounded by the paper's Table 1 — *not* the
        byte size of the Python object.
        """

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """Serialize state to a JSON-compatible dictionary.

        The dictionary must round-trip through :meth:`from_dict` and is
        what :mod:`repro.core.codecs` embeds in its envelope.
        """

    @classmethod
    @abc.abstractmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Summary":
        """Reconstruct a summary from :meth:`to_dict` output."""

    def copy(self) -> "Summary":
        """Return an independent copy: ``type(self).from_dict(self.to_dict())``.

        The generic fallback is that state round-trip.  Subclasses may
        override it with a native copy that yields the same state,
        including any RNG draw ``to_dict`` makes, without serializing.
        """
        return type(self).from_dict(self.to_dict())

    # ------------------------------------------------------------------
    # Answer state kept across copies
    # ------------------------------------------------------------------

    def _share_answer(self, clone: "Summary", attr: str) -> None:
        """Let ``clone``, a fresh copy of ``self``, reuse ``self``'s answer state.

        ``attr`` names the attribute where the type keeps the state its
        queries answer from, an ``(n, ...)`` tuple built for one ``n``.
        If ``self`` holds it for its current ``n``, the clone shares it
        now; otherwise the clone keeps a weak link to ``self``, which
        its first :meth:`_kept_answer` consumes.  The link is weak so
        that a replaced summary stays collectable.  A merge that moves
        the clone's ``n`` drops either (:meth:`_drop_answer`).
        """
        state = getattr(self, attr)
        if state is not None and state[0] == self._n:
            setattr(clone, attr, state)
        else:
            clone._source = (weakref.ref(self), self._n)

    def _drop_answer(self, attr: str) -> None:
        """Forget the answer state in ``attr`` and any link to a copy source.

        A merge that moves ``n`` calls it.  Whatever the summary held or
        inherited was built for the old ``n`` and can never be served,
        yet a copy merged at once (a store roll-up, a replaced cell)
        would keep it in memory until its first answer.  Attributes
        already ``None`` are not assigned, so a summary that never held
        one does not grow it.
        """
        if getattr(self, attr) is not None:
            setattr(self, attr, None)
        if self._source is not None:
            self._source = None

    def _kept_answer(self, attr: str, build: Callable[[Any], Any]) -> Any:
        """The answer state in ``attr`` for the current ``n``, built once.

        ``build(summary)`` returns the state for ``summary``'s current
        ``n`` as an ``(n, ...)`` tuple, or ``None``.  A copy whose link
        is still good (neither it nor its source has moved ``n`` since
        the copy) takes the state from its source, which builds and
        keeps it, so every later copy of the source starts with it.  Any
        other copy drops the link and builds its own state.  ``n`` keys
        the state because every state change raises it (weights are
        positive, and an operand of ``n = 0`` changes nothing), so equal
        ``n`` means equal state.  Shared state is never written in place.
        """
        state = getattr(self, attr)
        if state is not None and state[0] == self._n:
            return state
        link = self._source
        if link is not None:
            self._source = None
            source = link[0]()
            if source is not None and link[1] == self._n == source._n:
                state = source._kept_answer(attr, build)
                setattr(self, attr, state)
                return state
        state = build(self)
        setattr(self, attr, state)
        return state

    def __getstate__(self) -> Dict[str, Any]:
        # a weak reference cannot be pickled; a restored summary builds
        # its own answer state
        state = dict(self.__dict__)
        state.pop("_source", None)
        return state

    # ------------------------------------------------------------------
    # Merge protocol
    # ------------------------------------------------------------------

    def merge(self, other: "Summary") -> "Summary":
        """Merge ``other`` into ``self`` and return ``self``.

        ``other`` is left unchanged.  Raises :class:`MergeError` when the
        operands are of different concrete types or carry incompatible
        parameters (as reported by :meth:`compatible_with`).
        ``s.merge(s)`` merges a snapshot of ``s`` taken before the merge.
        """
        if other is self:
            # merge code walks the operand while it grows its own state,
            # which never ends (or goes wrong) on one object; deepcopy,
            # unlike some native copy(), draws nothing from a coin stream
            other = copy.deepcopy(self)
        if type(other) is not type(self):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}; "
                "mergeability requires identical summary types"
            )
        problem = self.compatible_with(other)
        if problem is not None:
            raise MergeError(
                f"incompatible {type(self).__name__} operands: {problem}"
            )
        self._merge_same_type(other)
        return self

    def merge_many(self, others: Iterable["Summary"]) -> "Summary":
        """Merge every summary in ``others`` into ``self``; return ``self``.

        Semantically identical to folding :meth:`merge` over ``others``
        left to right, but a single call lets subclasses perform an
        s-way combine in one pass (one table sum, one register max, one
        compaction cascade) instead of ``s - 1`` sequential merges with
        ``s - 1`` intermediate prunes.  The generic fallback loops over
        :meth:`_merge_same_type`.

        All operands are checked before any state changes, so a type or
        parameter mismatch anywhere in ``others`` raises
        :class:`MergeError` leaving ``self`` untouched.  An operand that
        is ``self`` is a snapshot of ``self`` taken before the merge.
        """
        others = list(others)
        if any(other is self for other in others):
            snapshot = copy.deepcopy(self)  # as in merge()
            others = [snapshot if other is self else other for other in others]
        for other in others:
            if type(other) is not type(self):
                raise MergeError(
                    f"cannot merge {type(self).__name__} with "
                    f"{type(other).__name__}; mergeability requires identical "
                    "summary types"
                )
            problem = self.compatible_with(other)
            if problem is not None:
                raise MergeError(
                    f"incompatible {type(self).__name__} operands: {problem}"
                )
        if others:
            self._merge_many_same_type(others)
        return self

    def _merge_many_same_type(self, others: Sequence["Summary"]) -> None:
        """k-way merge of pre-checked same-type operands (override me).

        The generic fallback is the sequential fold; subclasses with
        vectorizable state override this with a single-pass combine.
        """
        for other in others:
            self._merge_same_type(other)

    def windowed(
        self,
        eps: float = 0.25,
        window: Optional[float] = None,
        mode: str = "count",
        granularity: float = 1,
    ) -> "Summary":
        """Lift this (empty) summary to sliding-window semantics.

        Returns a fresh instance of the auto-registered
        ``windowed.<name>`` variant for this summary type, using ``self``
        as the prototype from which the window's per-bucket sub-summaries
        are spawned.  ``self`` must be empty (it defines parameters, not
        data) and its type must be windowable.  See
        :class:`repro.windows.WindowedSummary` for the semantics of
        ``eps``, ``window``, ``mode`` and ``granularity``.
        """
        from .registry import get_summary_class

        if not self.windowable:
            raise ParameterError(
                f"{type(self).__name__} is not windowable: "
                "its merge preconditions are incompatible with "
                "window-bucket masses"
            )
        name = getattr(type(self), "registry_name", None)
        if name is None:
            raise ParameterError(
                f"{type(self).__name__} is not a registered summary type"
            )
        cls = get_summary_class(f"windowed.{name}")
        return cls.from_prototype(
            self, eps=eps, window=window, mode=mode, granularity=granularity
        )

    def compatible_with(self, other: "Summary") -> str | None:
        """Return ``None`` when ``other`` can merge into ``self``.

        Otherwise return a human-readable description of the mismatch.
        Subclasses with parameters (``k``, ``epsilon``, hash seeds, range
        spaces, ...) override this; the default accepts any same-type
        operand.
        """
        return None

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} n={self._n} size={self.size()}>"
