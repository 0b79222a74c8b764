"""Merge strategies: folds that replay one merge schedule.

The paper's central claim is that its summaries keep their guarantees
under *any* merge sequence.  A sequence is plain data here — a
:class:`~repro.core.topology.MergeSchedule` of ``(dst, src)`` pairs —
and the reduction strategies used throughout the tests and benchmarks
build one from :mod:`repro.core.topology`, the same shapes the
distributed simulator runs, and replay it:

- :func:`merge_chain` — the caterpillar/left-fold order
  (:func:`~repro.core.topology.chain`), the worst case for
  non-mergeable summaries whose error grows per merge;
- :func:`merge_tree` — balanced binary reduction
  (:func:`~repro.core.topology.balanced_tree`), the friendly case (all
  merges roughly equal weight);
- :func:`merge_random_tree` — a uniformly random binary merge tree
  (:func:`~repro.core.topology.random_tree`), the "arbitrary sequence"
  the definition of mergeability quantifies over;
- :func:`merge_kway` — one s-way :meth:`~repro.core.base.Summary.merge_many`
  call (single combine pass, no intermediate compactions);
- :func:`merge_all` — strategy dispatcher over :data:`MERGE_STRATEGIES`.

All strategies mutate the *first* operand of every pairwise merge and
never touch later inputs more than once, mirroring how an in-network
aggregation consumes child summaries.  Callers that need the inputs
preserved should pass copies.

``rng`` belongs to ``"random"``; passing it to another strategy raises
:class:`~repro.core.exceptions.ParameterError` instead of being
silently dropped.
"""

from __future__ import annotations

from typing import Sequence

from .base import Summary
from .exceptions import MergeError, ParameterError
from .rng import RngLike
from .topology import MergeSchedule, balanced_tree, chain, random_tree

__all__ = [
    "merge_chain",
    "merge_tree",
    "merge_random_tree",
    "merge_kway",
    "merge_all",
    "MERGE_STRATEGIES",
]


def _require_nonempty(summaries: Sequence[Summary]) -> None:
    if not summaries:
        raise MergeError("cannot merge an empty list of summaries")


def _replay(schedule: MergeSchedule, summaries: Sequence[Summary]) -> Summary:
    for dst, src in schedule.steps:
        summaries[dst].merge(summaries[src])
    return summaries[schedule.root]


def merge_chain(summaries: Sequence[Summary]) -> Summary:
    """Left-fold merge: ``((s0 ⊎ s1) ⊎ s2) ⊎ ...``.

    Produces a maximally unbalanced (depth ``m-1``) merge tree — the
    adversarial shape for summaries that are only "one-way" mergeable.
    """
    _require_nonempty(summaries)
    return _replay(chain(len(summaries)), summaries)


def merge_tree(summaries: Sequence[Summary]) -> Summary:
    """Balanced binary reduction (depth ``ceil(log2 m)``).

    Every merge combines summaries of (nearly) equal total weight when
    the inputs have equal weight — the "equal-weight merge" model of
    paper Section 3.1.
    """
    _require_nonempty(summaries)
    return _replay(balanced_tree(len(summaries)), summaries)


def merge_random_tree(summaries: Sequence[Summary], rng: RngLike = None) -> Summary:
    """Merge along a uniformly random binary tree.

    Repeatedly picks two distinct surviving summaries at random and
    merges the later-positioned one into the earlier, realizing an
    arbitrary merge sequence.  Deterministic under a fixed ``rng``
    seed: the randomness is spent building the schedule, and the
    replay is deterministic.
    """
    _require_nonempty(summaries)
    return _replay(random_tree(len(summaries), rng), summaries)


def merge_kway(summaries: Sequence[Summary]) -> Summary:
    """One s-way combine: ``summaries[0].merge_many(summaries[1:])``.

    Summaries with a vectorized ``_merge_many_same_type`` pay one table
    sum / register max / compaction cascade for the whole fan-in
    instead of ``s - 1`` sequential merges.
    """
    _require_nonempty(summaries)
    return summaries[0].merge_many(summaries[1:])


#: strategy registry: ``merge_all`` dispatch, CLI choices, docs; only
#: ``"random"`` takes an ``rng``
MERGE_STRATEGIES = {
    "chain": merge_chain,
    "tree": merge_tree,
    "random": merge_random_tree,
    "kway": merge_kway,
}


def merge_all(
    summaries: Sequence[Summary],
    strategy: str = "tree",
    rng: RngLike = None,
) -> Summary:
    """Merge ``summaries`` with the named strategy.

    ``strategy`` is one of :data:`MERGE_STRATEGIES` (``"chain"``,
    ``"tree"``, ``"random"``, ``"kway"``).  ``rng`` is honored only by
    ``"random"``; passing it to another strategy raises
    :class:`~repro.core.exceptions.ParameterError` rather than silently
    ignoring it.
    """
    try:
        fold = MERGE_STRATEGIES[strategy]
    except KeyError:
        raise ParameterError(
            f"unknown merge strategy {strategy!r}; choose from {sorted(MERGE_STRATEGIES)}"
        ) from None
    if strategy == "random":
        return fold(summaries, rng=rng)
    if rng is not None:
        raise ParameterError(
            f"strategy {strategy!r} does not use rng; only ['random'] does"
        )
    return fold(summaries)
