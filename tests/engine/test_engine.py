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
  duplicate injection, ledgers), and a builder merge hands its builder
  every source while a fault model refuses such a plan;
- store compaction is plain in-process maintenance: ``compact()``
  reports only its build counters, a failed build installs no roll-up,
  and a compaction plan refuses a fault model.
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
from repro.store import SegmentStore, merged_segment
from repro.store import chain as chain_module
from repro.store.chain import compile_rollup_steps, dyadic_levels
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

    def test_builder_merge_receives_every_source(self):
        inputs = _counters(3)
        before = {slot: dumps(summary) for slot, summary in inputs.items()}
        seen = []

        def build(values):
            seen.append(values)
            merged = values[0].copy()
            merged.merge_many(values[1:])
            return merged

        plan = MergePlan(
            name="builder",
            steps=[
                MergeStep("merge", "dst", ("s0", "s1", "s2"), builder=build),
                MergeStep("emit", "dst"),
            ],
        )
        result = execute_plan(plan, inputs)
        assert len(seen) == 1
        assert [id(v) for v in seen[0]] == [id(inputs[f"s{i}"]) for i in range(3)]
        assert {slot: dumps(s) for slot, s in inputs.items()} == before
        assert result.report.merges == 3
        assert result.value.n == sum(s.n for s in inputs.values())

    def test_fault_model_rejected_for_builder_merges(self):
        plan = MergePlan(
            name="builder",
            steps=[
                MergeStep("merge", "dst", ("s0", "s1"), builder=lambda values: values[0]),
                MergeStep("emit", "dst"),
            ],
        )
        with pytest.raises(ParameterError, match="builder merges"):
            execute_plan(plan, _counters(2), fault_model=FaultModel(loss=0.5, rng=1))

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
# Store compaction: plain in-process maintenance
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


def _failing_builder(succeed: int):
    """``merged_segment`` that raises once it has built ``succeed`` segments."""
    built = []

    def build(*args):
        if len(built) >= succeed:
            raise RuntimeError("injected build failure")
        built.append(args)
        return merged_segment(*args)

    return build


def _compaction_plan(store: SegmentStore):
    """The store's pending roll-up tree as one plan, compiled as compact() does."""
    chain = store._chain
    steps, inputs = [], {}
    planned = compile_rollup_steps(
        chain,
        dyadic_levels(chain),
        slot_of=lambda block: block,
        new_segment_id=lambda level, start: f"r{level}.{start}",
        steps=steps,
        inputs=inputs,
    )
    steps.extend(MergeStep("emit", block) for block in sorted(planned))
    return MergePlan(name="compact", steps=steps), inputs


class TestFaultInjectedCompaction:
    def test_total_loss_installs_nothing_and_recompact_recovers(self, monkeypatch):
        baseline = _filled_store()
        baseline.compact()
        store = _filled_store()
        monkeypatch.setattr(chain_module, "merged_segment", _failing_builder(0))
        with pytest.raises(RuntimeError, match="injected build failure"):
            store.compact()
        assert store.num_rollups == 0
        # queries still work off base segments, as if never compacted
        q_store = store.query(0.0, float(EPOCHS))
        q_base = baseline.query(0.0, float(EPOCHS))
        assert q_store["count"].n == q_base["count"].n
        # a later compact with a working builder rebuilds the full tree
        monkeypatch.undo()
        recovered = store.compact()
        assert recovered["rollups_built"] == baseline.num_rollups
        # the aborted compact consumed segment-id allocations, so ids
        # legitimately differ; the summarized state must not
        assert _rollup_state(store, with_ids=False) == _rollup_state(
            baseline, with_ids=False
        )

    def test_partial_rollups_never_served(self, monkeypatch):
        # a build fails midway through the tree: the roll-ups already
        # built are discarded, never installed as a partial tree
        store = _filled_store()
        monkeypatch.setattr(chain_module, "merged_segment", _failing_builder(5))
        with pytest.raises(RuntimeError, match="injected build failure"):
            store.compact()
        assert store.num_rollups == 0
        monkeypatch.undo()
        store.compact()
        assert store.num_rollups > 0
        base = store._chain.base
        for (level, start), segment in store._chain.rollups.items():
            span = 1 << level
            expected = sum(
                base[e].count for e in range(start, start + span) if e in base
            )
            assert segment.count == expected
            assert segment.members["count"].n == expected

    def test_corruption_injection_rejected(self):
        # roll-ups are built in process and never serialized, so the
        # store's compaction plan refuses wire-corruption injection
        store = _filled_store()
        plan, inputs = _compaction_plan(store)
        with pytest.raises(ParameterError, match="never cross a fabric"):
            execute_plan(
                plan,
                inputs,
                serialize=True,
                fault_model=FaultModel(corruption=0.5, rng=1),
            )
        assert store.num_rollups == 0
        built = execute_plan(plan, inputs, accounting=False).outputs
        assert len(built) == store.compact()["rollups_built"]

    def test_coordinator_crash_rejected(self):
        # continuous-only knob: a compaction has no coordinator to crash
        store = _filled_store()
        plan, inputs = _compaction_plan(store)
        with pytest.raises(ParameterError, match="coordinator_crash"):
            execute_plan(
                plan, inputs, fault_model=FaultModel(coordinator_crash=0.5, rng=1)
            )
        assert store.num_rollups == 0

    def test_fault_free_compact_reports_no_fault_keys(self):
        stats = _filled_store().compact()
        assert set(stats) == {"levels", "rollups_built", "merge_inputs"}


def test_skipped_types_documented():
    # keep the fold-equivalence coverage honest: anything not in
    # MERGE_SPECS must carry an explicit skip reason
    from repro.core import registered_names

    assert set(registered_names()) == set(MERGE_SPECS) | set(SKIPPED_TYPES)
