"""Merge strategies, executed through the shared merge engine.

The paper's central claim is that its summaries keep their guarantees
under *any* merge sequence.  This module exposes the reduction
strategies used throughout the tests and benchmarks — but since the
engine refactor it no longer executes anything itself: each strategy is
a *plan compiler* (see :mod:`repro.engine.compilers`) and every merge
runs through :func:`repro.engine.execute_plan`, the same runner behind
the distributed simulator and the store's compaction:

- :func:`merge_chain` — the caterpillar/left-fold order, the worst case
  for non-mergeable summaries whose error grows per merge;
- :func:`merge_tree` — balanced binary reduction, the friendly case
  (all merges roughly equal weight);
- :func:`merge_random_tree` — a uniformly random binary merge tree, the
  "arbitrary sequence" the definition of mergeability quantifies over;
- :func:`merge_kway` — one s-way :meth:`~repro.core.base.Summary.merge_many`
  call (single combine pass, no intermediate compactions);
- :func:`merge_all` — strategy dispatcher over :data:`MERGE_STRATEGIES`.

All strategies mutate the *first* operand of every pairwise merge and
never touch later inputs more than once, mirroring how an in-network
aggregation consumes child summaries.  Callers that need the inputs
preserved should pass copies.

``rng`` is validated against the strategy: it belongs to ``"random"``,
and passing it to a strategy that cannot honor it raises
:class:`~repro.core.exceptions.ParameterError` instead of being
silently dropped.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ..engine.compilers import MERGE_STRATEGIES, MergeStrategy, fold_slots
from ..engine.executor import execute_plan
from .base import Summary
from .exceptions import MergeError, ParameterError
from .rng import RngLike

__all__ = [
    "merge_chain",
    "merge_tree",
    "merge_random_tree",
    "merge_kway",
    "merge_all",
    "MergeStrategy",
    "MERGE_STRATEGIES",
]


def _require_nonempty(summaries: Sequence[Summary]) -> None:
    if not summaries:
        raise MergeError("cannot merge an empty list of summaries")


@lru_cache(maxsize=256)
def _cached_fold_plan(strategy: str, count: int):
    """Deterministic fold plans depend only on (strategy, count)."""
    return MERGE_STRATEGIES[strategy].compile(fold_slots(count), None)


def _run_fold(
    strategy: str,
    summaries: Sequence[Summary],
    rng: RngLike = None,
) -> Summary:
    """Compile the strategy over the summaries and execute the plan."""
    _require_nonempty(summaries)
    slots = fold_slots(len(summaries))
    descriptor = MERGE_STRATEGIES[strategy]
    if descriptor.uses_rng:
        plan = descriptor.compile(slots, rng)
    else:
        # plans are immutable programs: reuse the compiled shape
        plan = _cached_fold_plan(strategy, len(summaries))
    # the fold result is the merged summary alone; skip the report's
    # size/coverage accounting on this hot path
    result = execute_plan(plan, dict(zip(slots, summaries)), accounting=False)
    return result.value


def merge_chain(summaries: Sequence[Summary]) -> Summary:
    """Left-fold merge: ``((s0 ⊎ s1) ⊎ s2) ⊎ ...``.

    Produces a maximally unbalanced (depth ``m-1``) merge tree — the
    adversarial shape for summaries that are only "one-way" mergeable.
    """
    return _run_fold("chain", summaries)


def merge_tree(summaries: Sequence[Summary]) -> Summary:
    """Balanced binary reduction (depth ``ceil(log2 m)``).

    Every merge combines summaries of (nearly) equal total weight when
    the inputs have equal weight — the "equal-weight merge" model of
    paper Section 3.1.
    """
    return _run_fold("tree", summaries)


def merge_random_tree(summaries: Sequence[Summary], rng: RngLike = None) -> Summary:
    """Merge along a uniformly random binary tree.

    Repeatedly picks two distinct surviving summaries at random and
    merges them, realizing an arbitrary merge sequence.  Deterministic
    under a fixed ``rng`` seed (the randomness is consumed at plan
    compile time; execution replays the realized tree).
    """
    return _run_fold("random", summaries, rng=rng)


def merge_kway(summaries: Sequence[Summary]) -> Summary:
    """One s-way combine: ``summaries[0].merge_many(summaries[1:])``.

    Summaries with a vectorized ``_merge_many_same_type`` pay one table
    sum / register max / compaction cascade for the whole fan-in
    instead of ``s - 1`` sequential merges.
    """
    return _run_fold("kway", summaries)


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
        descriptor = MERGE_STRATEGIES[strategy]
    except KeyError:
        raise ParameterError(
            f"unknown merge strategy {strategy!r}; choose from {sorted(MERGE_STRATEGIES)}"
        ) from None
    if rng is not None and not descriptor.uses_rng:
        raise ParameterError(
            f"strategy {strategy!r} does not use rng; only "
            f"{sorted(n for n, s in MERGE_STRATEGIES.items() if s.uses_rng)} do"
        )
    return _run_fold(strategy, summaries, rng=rng)
