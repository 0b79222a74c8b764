"""Bucket-aware engine folds over windowed summaries.

A :class:`~repro.windows.WindowedSummary` is itself mergeable, so the
generic fold strategies (``merge_all``) already work on windowed
operands.  This module compiles the *bucket-aware* alternative: instead
of treating each operand as opaque, the plan slices every operand into
pre-aligned per-level partials (:meth:`~WindowedSummary.level_slice`),
k-way merges each level's slices, and stitches the level results into
a fresh accumulator whose final merge performs the one cascade/expiry
pass.  Pre-aligned partials defer canonicalization, so the per-level
merges are pure bucket unions — cheap, commutation-free, and
deterministic.

The compiled plan is ordinary engine IR: it runs through
:func:`repro.engine.execute_plan` unchanged, which means windowed
folds inherit the fault/retry/ledger machinery and the execution
report for free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.exceptions import MergeError
from ..engine.plan import MergePlan, MergeStep

__all__ = ["compile_windowed_fold", "windowed_merge_all"]


def _take_first(first):
    """Copy-on-write seed for per-level unions: adopt the first slice.

    Level slices are plan-private objects built by this very plan, so
    adopting (and mutating) the first one is safe and skips a deep
    copy.
    """
    return first


def _stitch_seed(first):
    """Seed the final accumulator: fresh, *not* pre-aligned.

    Merging the pre-aligned level partials into a non-pre-aligned twin
    is what triggers the single canonicalization/expiry pass.
    """
    acc = first._spawn_like()
    return acc.merge(first)


def compile_windowed_fold(summaries: Sequence) -> MergePlan:
    """Compile a bucket-aware fold plan over windowed operands.

    Build steps slice each operand into per-level pre-aligned partials
    (plus one pending-bucket slice per operand), rebased into the
    global stream frame (count mode: each operand's buckets shift by
    the total mass of the operands before it — operand order *is*
    stream order, exactly like a plain windowed chain merge).  Each
    level's slices then k-way merge as lazy bucket unions, and a final
    fan-in stitches level results oldest-level-first into a fresh
    accumulator, whose non-pre-aligned merge path performs the one EH
    cascade and expiry sweep.

    The operands themselves are never mutated (slices are clones).
    """
    if not summaries:
        raise MergeError("cannot merge an empty list of windowed summaries")
    first = summaries[0]
    for other in summaries[1:]:
        if type(other) is not type(first):
            raise MergeError(
                f"cannot merge {type(first).__name__} with "
                f"{type(other).__name__}; mergeability requires identical "
                "summary types"
            )
        problem = first.compatible_with(other)
        if problem is not None:
            raise MergeError(
                f"incompatible {type(first).__name__} operands: {problem}"
            )
    # count mode: operand order is stream order, so operand i's spans
    # shift by the total mass of operands 0..i-1; time mode: spans are
    # already absolute event timestamps
    offsets: List = []
    position = 0
    for summary in summaries:
        offsets.append(position)
        if summary.mode == "count":
            position += summary._clock
    levels = sorted({b.level for s in summaries for b in s._buckets})
    steps: List[MergeStep] = []
    level_slots: List[str] = []
    for level in levels:
        slice_slots = []
        for i, summary in enumerate(summaries):
            if not any(b.level == level for b in summary._buckets):
                continue
            slot = f"L{level}:{i}"
            steps.append(
                MergeStep(
                    "build",
                    slot,
                    builder=(
                        lambda s=summary, lv=level, off=offsets[i]: (
                            s.level_slice(lv, off)
                        )
                    ),
                )
            )
            slice_slots.append(slot)
        if len(slice_slots) == 1:
            level_slots.append(slice_slots[0])
            continue
        dst = f"L{level}"
        steps.append(
            MergeStep("merge", dst, tuple(slice_slots), builder=_take_first)
        )
        level_slots.append(dst)
    pending_slots: List[str] = []
    for i, summary in enumerate(summaries):
        if summary._pending is None:
            continue
        slot = f"pend:{i}"
        steps.append(
            MergeStep(
                "build",
                slot,
                builder=lambda s=summary, off=offsets[i]: s.pending_slice(off),
            )
        )
        pending_slots.append(slot)
    # oldest (finest) levels first, then the open pending buckets in
    # operand order — the order a plain chain merge would see them
    stitch_srcs = tuple(level_slots + pending_slots)
    if stitch_srcs:
        steps.append(MergeStep("merge", "out", stitch_srcs, builder=_stitch_seed))
    else:
        # every operand is empty: build the empty accumulator directly
        steps.append(
            MergeStep("build", "out", builder=lambda s=first: s._spawn_like())
        )
    steps.append(MergeStep("emit", "out"))
    return MergePlan(
        name=f"fold:windowed[{len(summaries)}x{len(levels)}lvl]",
        steps=steps,
        protected=frozenset({"out"}),
    )


def windowed_merge_all(
    parts: Sequence,
    *,
    serialize: bool = False,
    fault_model=None,
    retry_policy=None,
    ledger_factory=None,
):
    """Merge windowed summaries through the bucket-aware engine fold.

    Compiles :func:`compile_windowed_fold` and runs it through
    :func:`repro.engine.execute_plan`, so the merge runs the scalar
    loop, or the fault/retry path when ``fault_model``/``retry_policy``/
    ``ledger_factory`` are given.  Returns a *new* accumulator; ``parts``
    are left untouched.
    """
    from ..engine.executor import execute_plan

    plan = compile_windowed_fold(parts)
    result = execute_plan(
        plan,
        {},
        serialize=serialize,
        fault_model=fault_model,
        retry_policy=retry_policy,
        ledger_factory=ledger_factory,
        accounting=False,
    )
    return result.value
