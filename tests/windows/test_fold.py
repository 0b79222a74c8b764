"""The bucket-aware engine fold over windowed operands.

``windowed_merge_all`` compiles per-level slice/union/stitch steps into
ordinary engine IR, so windowed merges ride the same executor and
fault/retry/ledger machinery as every other fold.  The acceptance bar:
the direct and serialized payload paths produce *byte-identical*
results, and the fold agrees with a plain chain merge on everything
observable.
"""

from __future__ import annotations

import json

import pytest

from repro.core import MergeError
from repro.engine import FaultModel, MergeLedger, MergePlan, RetryPolicy
from repro.frequency import CountMin, ExactCounter, MisraGries
from repro.windows import windowed_merge_all
from repro.windows.fold import compile_windowed_fold


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
        plan = compile_windowed_fold(_parts())
        assert isinstance(plan, MergePlan)
        assert "out" in plan.protected
        assert plan.name.startswith("fold:windowed[")
        ops = [step.op for step in plan.steps]
        assert ops.count("emit") == 1
        assert "build" in ops

    def test_empty_operand_list_rejected(self):
        with pytest.raises(MergeError, match="empty list"):
            compile_windowed_fold([])

    def test_mixed_types_rejected(self):
        a = CountMin(32, 3, seed=1).windowed(eps=0.25)
        b = MisraGries(8).windowed(eps=0.25)
        with pytest.raises(MergeError, match="identical summary types"):
            compile_windowed_fold([a, b])

    def test_incompatible_configuration_rejected(self):
        a = CountMin(32, 3, seed=1).windowed(eps=0.25)
        b = CountMin(32, 3, seed=1).windowed(eps=0.5)
        with pytest.raises(MergeError, match="incompatible"):
            windowed_merge_all([a, b])


class TestFoldSemantics:
    def test_serialize_payload_path_byte_identical(self):
        direct = windowed_merge_all(_parts())
        serialized = windowed_merge_all(_parts(), serialize=True)
        assert _state(direct) == _state(serialized)

    def test_agrees_with_chain_merge(self):
        # unbounded window: full coverage, so the chain and the
        # bucket-aware fold must summarize identical content even
        # though their bucket layouts may differ
        def chained():
            parts = _parts()
            acc = parts[0]._spawn_like()
            acc.merge_many(parts)
            return acc

        fold = windowed_merge_all(_parts())
        chain = chained()
        assert fold.n == chain.n == 200
        assert fold.window_count_bounds() == chain.window_count_bounds()
        a = fold.window_query()
        b = chain.window_query()
        assert a.summary.n == b.summary.n
        for item in range(17):
            assert a.summary.estimate(item) == b.summary.estimate(item)

    def test_windowed_operands_expire_in_the_stitch(self):
        fold = windowed_merge_all(_parts(window=64))
        bounds = fold.window_count_bounds()
        assert bounds.lower <= 64 <= bounds.upper
        # expiry ran: the accumulator does not retain all 200 items
        assert fold.n < 200
        assert fold._expired_end is not None

    def test_operands_left_untouched(self):
        parts = _parts()
        before = [_fingerprint(p) for p in parts]
        windowed_merge_all(parts)
        assert [_fingerprint(p) for p in parts] == before

    def test_all_empty_operands(self):
        parts = [
            ExactCounter().windowed(eps=0.25, granularity=4) for _ in range(3)
        ]
        fold = windowed_merge_all(parts)
        assert fold.is_empty
        assert fold.num_buckets == 0

    def test_single_operand(self):
        (part,) = _parts(k=1)
        fold = windowed_merge_all([part])
        assert fold.n == part.n
        assert fold is not part

    def test_time_mode_operands_align_by_absolute_time(self):
        def part(stripe):
            win = ExactCounter().windowed(
                eps=0.25, mode="time", granularity=5.0
            )
            for i in range(50):
                win.observe(i % 7, stripe * 50.0 + i)
            return win

        fold = windowed_merge_all([part(0), part(1), part(2)])
        assert fold.n == 150
        assert fold._clock == 149.0
        view = fold.window_query(window=75.0)
        assert view.bounds.lower <= 75 + 1 <= view.bounds.upper


class TestFaultPath:
    def test_retry_recovers_lost_partials(self):
        reference = windowed_merge_all(_parts())
        recovered = windowed_merge_all(
            _parts(),
            fault_model=FaultModel(loss=0.4, rng=7),
            retry_policy=RetryPolicy(max_attempts=20),
        )
        assert _state(reference) == _state(recovered)

    def test_ledger_deduplicates_replayed_merges(self):
        reference = windowed_merge_all(_parts())
        deduped = windowed_merge_all(
            _parts(),
            fault_model=FaultModel(duplicate=1.0, rng=3),
            ledger_factory=MergeLedger,
        )
        assert _state(reference) == _state(deduped)

    def test_total_loss_raises_instead_of_partial_answer(self):
        # the accumulator slot is born in the final stitch merge; if
        # deliveries never succeed there is no output at all — the fold
        # surfaces an error rather than a silently partial window
        from repro.core import ParameterError

        with pytest.raises(ParameterError, match="0 outputs"):
            windowed_merge_all(
                _parts(),
                fault_model=FaultModel(loss=1.0, rng=1),
                retry_policy=RetryPolicy(max_attempts=2),
            )
