"""Engine suite: the shared plan IR + executor behind every merge path.

PR-5 routes all three historical execution loops — ``merge_all`` folds,
the distributed simulator, and store compaction — through one compiled
:class:`~repro.engine.plan.MergePlan` and one
:func:`~repro.engine.execute_plan` runner.  This suite pins the
refactor's contract:

- the IR validates its own shape (bad steps, unreadable slots, plans
  that emit nothing);
- for **every registered summary type**, each fold strategy executed
  through the engine is byte-identical to an in-test replica of the
  legacy loop it replaced (the engine performs the *same* merge
  sequence, so even randomized summaries must match bit-for-bit);
- a simulator run equals a manual replay of its schedule;
- the executor's scalar/fault regimes account correctly (step status,
  instrument events, duplicate injection, ledgers);
- fault-injected store compaction is exactly-once or nothing: retries
  converge to byte-identical roll-ups, total loss installs nothing and
  a later plain ``compact()`` fully recovers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParameterError, dumps
from repro.core.merge import merge_all
from repro.core.rng import resolve_rng
from repro.distributed import ContiguousPartitioner, build_topology, run_aggregation
from repro.engine import (
    MERGE_STRATEGIES,
    FaultModel,
    MergeLedger,
    MergePlan,
    MergeStep,
    RetryPolicy,
    compile_aggregation,
    compile_fold,
    execute_plan,
)
from repro.frequency import ExactCounter, MisraGries
from repro.store import SegmentStore
from tests.test_merge_runtime import MERGE_SPECS, SKIPPED_TYPES

# ---------------------------------------------------------------------------
# Plan IR
# ---------------------------------------------------------------------------


class TestPlanIR:
    def test_unknown_op_rejected(self):
        with pytest.raises(ParameterError, match="unknown plan op"):
            MergeStep("frobnicate", "s0")

    def test_merge_needs_sources(self):
        with pytest.raises(ParameterError, match="at least one source"):
            MergeStep("merge", "s0")

    def test_merge_destination_not_a_source(self):
        with pytest.raises(ParameterError, match="appears in its own sources"):
            MergeStep("merge", "s0", ("s0", "s1"))

    def test_build_needs_builder(self):
        with pytest.raises(ParameterError, match="needs a builder"):
            MergeStep("build", "s0")

    def test_emit_takes_no_sources(self):
        with pytest.raises(ParameterError, match="take no source"):
            MergeStep("emit", "s0", ("s1",))

    def test_validate_flags_unknown_source(self):
        plan = MergePlan(
            name="bad",
            steps=(MergeStep("merge", "s0", ("ghost",)), MergeStep("emit", "s0")),
        )
        with pytest.raises(ParameterError, match="unknown slot"):
            plan.validate(["s0"])

    def test_validate_flags_unknown_emit(self):
        plan = MergePlan(name="bad", steps=(MergeStep("emit", "ghost"),))
        with pytest.raises(ParameterError, match="emit of unknown"):
            plan.validate(["s0"])

    def test_validate_requires_an_output(self):
        plan = MergePlan(name="bad", steps=(MergeStep("merge", "s0", ("s1",)),))
        with pytest.raises(ParameterError, match="emits nothing"):
            plan.validate(["s0", "s1"])

    def test_fresh_merge_destination_becomes_known(self):
        # a copy-on-write merge introduces its destination for later steps
        plan = MergePlan(
            name="rollup",
            steps=(
                MergeStep("merge", "up", ("a", "b"), builder=lambda first: first),
                MergeStep("merge", "top", ("up", "c"), builder=lambda first: first),
                MergeStep("emit", "top"),
            ),
        )
        plan.validate(["a", "b", "c"])

    def test_describe_lists_every_step(self):
        plan = compile_fold("tree", 4)
        text = plan.describe()
        assert "fold:tree[4]" in text
        assert text.count("merge") >= 3
        assert "emit" in text

    def test_compile_fold_unknown_strategy(self):
        with pytest.raises(ParameterError, match="unknown merge strategy"):
            compile_fold("bogus", 4)

    def test_every_strategy_compiles_and_emits_one_output(self):
        for name, descriptor in MERGE_STRATEGIES.items():
            plan = descriptor.compile([f"s{i}" for i in range(5)], rng=1)
            assert len(plan.outputs) == 1, name
            plan.validate([f"s{i}" for i in range(5)])


# ---------------------------------------------------------------------------
# Fold equivalence vs the legacy loops, for every registered type
# ---------------------------------------------------------------------------

PARTS = 5


def _legacy_chain(parts):
    acc = parts[0]
    for other in parts[1:]:
        acc.merge(other)
    return acc


def _legacy_tree(parts):
    level = list(parts)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            level[i].merge(level[i + 1])
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _legacy_random(parts, seed):
    gen = resolve_rng(seed)
    pool = list(parts)
    while len(pool) > 1:
        i, j = gen.choice(len(pool), size=2, replace=False)
        i, j = int(i), int(j)
        if i > j:
            i, j = j, i
        right = pool.pop(j)
        pool[i].merge(right)
    return pool[0]


def _legacy_kway(parts):
    return parts[0].merge_many(parts[1:])


LEGACY_FOLDS = {
    "chain": lambda parts: _legacy_chain(parts),
    "tree": lambda parts: _legacy_tree(parts),
    "random": lambda parts: _legacy_random(parts, seed=11),
    "kway": lambda parts: _legacy_kway(parts),
}


def _build_parts(spec, count: int = PARTS):
    return [spec.factory(j).extend(spec.feed(70 + j)) for j in range(count)]


@pytest.fixture(params=sorted(MERGE_SPECS), ids=sorted(MERGE_SPECS))
def spec(request):
    return MERGE_SPECS[request.param]


class TestFoldEquivalence:
    def test_legacy_fold_registry_matches_strategy_registry(self):
        assert set(LEGACY_FOLDS) == set(MERGE_STRATEGIES)

    @pytest.mark.parametrize("strategy", sorted(LEGACY_FOLDS))
    def test_engine_fold_is_byte_identical_to_legacy_loop(self, spec, strategy):
        engine_parts = _build_parts(spec)
        legacy_parts = _build_parts(spec)
        rng = 11 if strategy == "random" else None
        merged = merge_all(engine_parts, strategy=strategy, rng=rng)
        expected = LEGACY_FOLDS[strategy](legacy_parts)
        assert merged.n == expected.n
        assert dumps(merged) == dumps(expected)

    def test_single_summary_returned_as_is(self, spec):
        only = spec.factory(0).extend(spec.feed(99))
        for strategy in sorted(MERGE_STRATEGIES):
            rng = 11 if strategy == "random" else None
            assert merge_all([only], strategy=strategy, rng=rng) is only


# ---------------------------------------------------------------------------
# Simulator equivalence: a run equals a manual schedule replay
# ---------------------------------------------------------------------------


class TestAggregationEquivalence:
    @pytest.mark.parametrize("topology", ["balanced", "chain", "kary"])
    def test_run_matches_manual_schedule_replay(self, topology):
        data = np.random.default_rng(4).integers(0, 60, size=600)
        leaves = 9
        schedule = build_topology(topology, leaves, rng=3)
        shards = ContiguousPartitioner().split(data, leaves)
        replicas = [MisraGries(16).extend(shard) for shard in shards]
        for dst, src in schedule.steps:
            replicas[dst].merge(replicas[src])
        result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(16), schedule
        )
        assert result.merges == len(schedule.steps)
        assert result.coverage == 1.0
        assert dumps(result.summary) == dumps(replicas[schedule.root])

    def test_compiled_schedule_protects_the_root(self):
        schedule = build_topology("balanced", 8, rng=1)
        plan = compile_aggregation(schedule)
        assert plan.protected == frozenset({schedule.root})
        assert len(plan.build_steps) == schedule.leaves
        assert len(plan.merge_steps) == len(schedule.steps)


# ---------------------------------------------------------------------------
# Executor regimes and accounting
# ---------------------------------------------------------------------------


def _counters(count: int, per: int = 40):
    inputs = {}
    for i in range(count):
        feed = np.random.default_rng(300 + i).integers(0, 9, size=per).tolist()
        inputs[f"s{i}"] = ExactCounter().extend(feed)
    return inputs


class TestExecutorAccounting:
    def test_knob_validation(self):
        plan = compile_fold("chain", 2)
        inputs = _counters(2)
        with pytest.raises(ParameterError, match="must be in"):
            FaultModel(duplicate=1.5)
        with pytest.raises(ParameterError, match="requires serialize"):
            execute_plan(
                plan, inputs, fault_model=FaultModel(corruption=0.5, rng=1)
            )

    def test_scalar_report_counts_steps(self):
        inputs = _counters(6)
        total = sum(s.n for s in inputs.values())  # before s0 absorbs the rest
        result = execute_plan(compile_fold("chain", 6), inputs)
        assert result.report.merges == 5
        assert result.report.steps_done == 5
        assert result.value.n == total

    def test_wave_path_groups_and_instruments(self):
        # the scalar loop reports one "step" event per merge, in plan
        # order, and "done" last
        inputs = _counters(8)
        total = sum(s.n for s in inputs.values())
        events = []
        plan = compile_fold("tree", 8)
        result = execute_plan(
            plan,
            inputs,
            instrument=lambda event, info: events.append((event, info)),
        )
        report = result.report
        assert report.merges == 7
        assert report.steps_done == 7
        kinds = [event for event, _ in events]
        assert kinds == ["step"] * 7 + ["done"]
        steps = [info for event, info in events if event == "step"]
        assert [info["index"] for info in steps] == list(range(7))
        assert [info["dst"] for info in steps] == [
            step.slot for step in plan.merge_steps
        ]
        assert all(info["fan_in"] == 1 for info in steps)
        assert events[-1][1]["merges"] == 7
        assert result.value.n == total

    def test_duplicate_knob_double_merges(self):
        inputs = _counters(4)
        expected_extra = sum(
            inputs[f"s{i}"].n for i in range(1, 4)
        )
        clean = sum(s.n for s in inputs.values())
        # no ledger: bare at-least-once delivery, every duplicate lands
        result = execute_plan(
            compile_fold("chain", 4), _counters(4),
            fault_model=FaultModel(duplicate=1.0, rng=5),
        )
        assert result.report.fault_stats.duplicates_delivered == 3
        assert result.value.n == clean + expected_extra

    def test_total_loss_marks_steps_failed_but_keeps_inputs(self):
        inputs = _counters(4)
        own = inputs["s0"].n
        result = execute_plan(
            compile_fold("chain", 4), inputs,
            fault_model=FaultModel(loss=1.0, rng=2),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert result.report.steps_failed == 3
        assert result.report.fault_stats.deliveries_failed == 3
        # the destination survives with only its own data
        assert result.value.n == own
        assert result.report.covered["s0"] == {"s0"}

    def test_ledger_suppresses_injected_duplicates(self):
        clean = execute_plan(compile_fold("chain", 5), _counters(5)).value
        result = execute_plan(
            compile_fold("chain", 5), _counters(5),
            fault_model=FaultModel(duplicate=1.0, rng=3),
            ledger_factory=MergeLedger,
        )
        stats = result.report.fault_stats
        assert stats.duplicates_delivered == 4
        assert stats.duplicates_suppressed == 4
        assert stats.duplicates_merged == 0
        assert dumps(result.value) == dumps(clean)

    def test_without_ledger_duplicates_land(self):
        clean = execute_plan(compile_fold("chain", 5), _counters(5)).value
        result = execute_plan(
            compile_fold("chain", 5), _counters(5),
            fault_model=FaultModel(duplicate=1.0, rng=3),
        )
        assert result.report.fault_stats.duplicates_merged == 4
        assert result.value.n > clean.n


# ---------------------------------------------------------------------------
# Store compaction under fault injection: exactly-once or nothing
# ---------------------------------------------------------------------------

EPOCHS = 12


def _filled_store() -> SegmentStore:
    store = SegmentStore(width=1.0)
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hh", "misra_gries", field="value", k=8)
    gen = np.random.default_rng(21)
    records, keys = [], []
    for epoch in range(EPOCHS):
        for value in gen.integers(0, 12, size=15).tolist():
            records.append({"value": value})
            keys.append(epoch + 0.5)
    store.ingest(records, keys)
    return store


def _rollup_state(store: SegmentStore, with_ids: bool = True) -> dict:
    return {
        key: (
            segment.segment_id if with_ids else None,
            segment.count,
            {name: s.to_dict() for name, s in segment.members.items()},
        )
        for key, segment in store._chain.rollups.items()
    }


class TestFaultInjectedCompaction:
    def test_lossy_compact_retries_to_identical_rollups(self):
        baseline = _filled_store()
        clean_stats = baseline.compact()
        lossy = _filled_store()
        stats = lossy.compact(
            fault_model=FaultModel(loss=0.4, rng=7),
            retry_policy=RetryPolicy(max_attempts=20),
        )
        assert stats["retries"] > 0
        assert stats["rollups_failed"] == 0
        assert stats["rollups_built"] == clean_stats["rollups_built"]
        assert stats["merge_inputs"] == clean_stats["merge_inputs"]
        assert _rollup_state(lossy) == _rollup_state(baseline)

    def test_total_loss_installs_nothing_and_recompact_recovers(self):
        baseline = _filled_store()
        baseline.compact()
        store = _filled_store()
        stats = store.compact(
            fault_model=FaultModel(loss=1.0, rng=1),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert stats["rollups_built"] == 0
        assert stats["rollups_failed"] > 0
        assert store.num_rollups == 0
        # queries still work off base segments, as if never compacted
        q_store = store.query(0.0, float(EPOCHS))
        q_base = baseline.query(0.0, float(EPOCHS))
        assert q_store["count"].n == q_base["count"].n
        # a later fault-free compact rebuilds the full tree
        recovered = store.compact()
        assert recovered["rollups_built"] == baseline.num_rollups
        # the aborted compact consumed segment-id allocations, so ids
        # legitimately differ; the summarized state must not
        assert _rollup_state(store, with_ids=False) == _rollup_state(
            baseline, with_ids=False
        )

    def test_partial_rollups_never_served(self):
        # moderate loss with too few retries: some roll-ups fail; every
        # one that *was* installed covers its entire block
        store = _filled_store()
        store.compact(
            fault_model=FaultModel(loss=0.55, rng=13),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        base = store._chain.base
        for (level, start), segment in store._chain.rollups.items():
            span = 1 << level
            expected = sum(
                base[e].count for e in range(start, start + span) if e in base
            )
            assert segment.count == expected
            assert segment.members["count"].n == expected

    def test_corruption_injection_rejected(self):
        store = _filled_store()
        with pytest.raises(ParameterError, match="never serializes"):
            store.compact(fault_model=FaultModel(corruption=0.5, rng=1))

    def test_coordinator_crash_rejected(self):
        # continuous-only knob: a compaction has no coordinator to crash
        store = _filled_store()
        with pytest.raises(ParameterError, match="coordinator_crash"):
            store.compact(fault_model=FaultModel(coordinator_crash=0.5, rng=1))
        assert store.num_rollups == 0

    def test_fault_free_compact_reports_no_fault_keys(self):
        stats = _filled_store().compact()
        assert set(stats) == {"levels", "rollups_built", "merge_inputs"}


def test_skipped_types_documented():
    # keep the fold-equivalence coverage honest: anything not in
    # MERGE_SPECS must carry an explicit skip reason
    from repro.core import registered_names

    assert set(registered_names()) == set(MERGE_SPECS) | set(SKIPPED_TYPES)
