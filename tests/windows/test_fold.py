"""Folds over windowed operands run on the one merge path.

A :class:`~repro.windows.WindowedSummary` is itself mergeable, so
``merge_all`` and every compiled fold plan
(``execute_plan(compile_fold(...))``) merge windowed operands through
``merge``/``merge_many`` like any other summary, with the engine's
fault/retry/ledger machinery for free.  The acceptance bar: the direct
and serialized payload paths produce *byte-identical* results, fold
orders agree on everything observable, and a faulty fabric that
eventually delivers changes nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.core import MergeError, merge_all
from repro.engine import (
    FaultModel,
    MergeLedger,
    RetryPolicy,
    compile_fold,
    execute_plan,
    fold_slots,
)
from repro.frequency import CountMin, ExactCounter, MisraGries


def _parts(k=5, chunk=40, window=None):
    """Identically-configured count-mode parts over consecutive chunks."""
    parts = []
    for i in range(k):
        win = CountMin(32, 3, seed=1).windowed(
            eps=0.25, window=window, granularity=4
        )
        for j in range(chunk):
            win.update((i * chunk + j) % 17)
        parts.append(win)
    return parts


def _fold(parts, strategy="chain", **kwargs):
    """Execute the compiled ``strategy`` fold plan over ``parts``."""
    plan = compile_fold(strategy, len(parts))
    return execute_plan(plan, dict(zip(fold_slots(len(parts)), parts)), **kwargs)


def _state(win) -> str:
    return json.dumps(win.to_dict(), sort_keys=True)


def _fingerprint(win):
    """Mutation probe that, unlike ``to_dict``, draws no re-seed."""
    return (
        win.n,
        win._clock,
        [(b.level, b.count, b.start, b.end) for b in win._buckets],
        None
        if win._pending is None
        else (win._pending.count, win._pending.start, win._pending.end),
    )


class TestPlanShape:
    def test_compiles_to_engine_ir(self):
        # no windowed fold of its own: the generic tree plan runs it
        parts = _parts()
        result = _fold(parts, "tree")
        assert result.report.merges == 4
        assert result.report.steps_done == 4
        assert type(result.value) is type(parts[0])
        assert result.value.n == 200

    def test_empty_operand_list_rejected(self):
        with pytest.raises(MergeError, match="empty list"):
            merge_all([])

    def test_mixed_types_rejected(self):
        a = CountMin(32, 3, seed=1).windowed(eps=0.25)
        b = MisraGries(8).windowed(eps=0.25)
        with pytest.raises(MergeError, match="identical summary types"):
            merge_all([a, b])

    def test_incompatible_configuration_rejected(self):
        a = CountMin(32, 3, seed=1).windowed(eps=0.25)
        b = CountMin(32, 3, seed=1).windowed(eps=0.5)
        with pytest.raises(MergeError, match="incompatible"):
            merge_all([a, b])


class TestFoldSemantics:
    def test_serialize_payload_path_byte_identical(self):
        direct = _fold(_parts()).value
        serialized = _fold(_parts(), serialize=True).value
        assert _state(direct) == _state(serialized)

    def test_agrees_with_chain_merge(self):
        # unbounded window: full coverage, so a tree fold and a chain
        # fold summarize identical content even though their bucket
        # layouts may differ
        tree = merge_all(_parts(), "tree")
        chain = merge_all(_parts(), "chain")
        assert tree.n == chain.n == 200
        assert tree.window_count_bounds() == chain.window_count_bounds()
        a = tree.window_query()
        b = chain.window_query()
        assert a.summary.n == b.summary.n
        for item in range(17):
            assert a.summary.estimate(item) == b.summary.estimate(item)

    def test_windowed_operands_expire_in_the_stitch(self):
        fold = merge_all(_parts(window=64))
        bounds = fold.window_count_bounds()
        assert bounds.lower <= 64 <= bounds.upper
        # expiry ran: the accumulator does not retain all 200 items
        assert fold.n < 200
        assert fold._expired_end is not None

    def test_operands_left_untouched(self):
        # a fold merges into its first operand and only reads the rest
        parts = _parts()
        before = [_fingerprint(p) for p in parts[1:]]
        merge_all(parts, "kway")
        assert [_fingerprint(p) for p in parts[1:]] == before

    def test_all_empty_operands(self):
        parts = [
            ExactCounter().windowed(eps=0.25, granularity=4) for _ in range(3)
        ]
        fold = merge_all(parts)
        assert fold.is_empty
        assert fold.num_buckets == 0

    def test_single_operand(self):
        (part,) = _parts(k=1)
        before = _fingerprint(part)
        fold = merge_all([part])
        assert fold is part
        assert _fingerprint(fold) == before

    def test_time_mode_operands_align_by_absolute_time(self):
        def part(stripe):
            win = ExactCounter().windowed(
                eps=0.25, mode="time", granularity=5.0
            )
            for i in range(50):
                win.observe(i % 7, stripe * 50.0 + i)
            return win

        fold = merge_all([part(0), part(1), part(2)], "chain")
        assert fold.n == 150
        assert fold._clock == 149.0
        view = fold.window_query(window=75.0)
        assert view.bounds.lower <= 75 + 1 <= view.bounds.upper


class TestFaultPath:
    def test_retry_recovers_lost_partials(self):
        reference = merge_all(_parts(), "chain")
        recovered = _fold(
            _parts(),
            fault_model=FaultModel(loss=0.4, rng=7),
            retry_policy=RetryPolicy(max_attempts=20),
        )
        assert recovered.report.fault_stats.messages_lost > 0
        assert _state(reference) == _state(recovered.value)

    def test_ledger_deduplicates_replayed_merges(self):
        reference = merge_all(_parts(), "chain")
        deduped = _fold(
            _parts(),
            fault_model=FaultModel(duplicate=1.0, rng=3),
            ledger_factory=MergeLedger,
        )
        assert deduped.report.fault_stats.duplicates_suppressed == 4
        assert _state(reference) == _state(deduped.value)

    def test_total_loss_reports_partial_coverage(self):
        # nothing reaches the accumulator: the report says it covers
        # only its own operand, so no caller mistakes it for the fold
        parts = _parts()
        alone = _state(_parts()[0])
        result = _fold(
            parts,
            fault_model=FaultModel(loss=1.0, rng=1),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert result.report.covered["s0"] == {"s0"}
        assert result.report.steps_failed == 4
        assert _state(result.value) == alone
