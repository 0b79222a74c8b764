"""Engine suite: the shared plan IR + executor behind merge plans.

``merge_all`` folds and the distributed simulator run through one
compiled :class:`~repro.engine.plan.MergePlan` and one
:func:`~repro.engine.execute_plan` runner.  This suite pins that
contract:

- the IR validates its own shape (bad steps, a builder on a merge or
  emit, unreadable slots, merges into unknown slots, plans that emit
  nothing);
- for **every registered summary type**, each fold strategy executed
  through the engine is byte-identical to an in-test replica of the
  legacy loop it replaced (the engine performs the *same* merge
  sequence, so even randomized summaries must match bit-for-bit);
- a simulator run equals a manual replay of its schedule;
- the executor's scalar/fault regimes account correctly (step status,
  duplicate injection, ledgers).

Store compaction builds its roll-ups without the engine; its tests live
in ``tests/store/test_store.py`` and ``tests/store/test_cube.py``.
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

    def test_merge_into_unknown_slot_rejected(self):
        # a merge absorbs in place, so its destination must already hold
        # a value: a typed ParameterError, not a KeyError mid-execution
        plan = MergePlan(
            "x", [MergeStep("merge", "ghost", ("s0",)), MergeStep("emit", "ghost")]
        )
        with pytest.raises(ParameterError, match="merge into unknown slot 'ghost'"):
            plan.validate(["s0"])
        with pytest.raises(ParameterError, match="merge into unknown slot"):
            execute_plan(plan, _counters(1))

    def test_builder_only_on_build_steps(self):
        with pytest.raises(ParameterError, match="merge steps take no builder"):
            MergeStep("merge", "s0", ("s1",), builder=lambda values: values[0])
        with pytest.raises(ParameterError, match="emit steps take no builder"):
            MergeStep("emit", "s0", builder=lambda: None)

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


def test_skipped_types_documented():
    # keep the fold-equivalence coverage honest: anything not in
    # MERGE_SPECS must carry an explicit skip reason
    from repro.core import registered_names

    assert set(registered_names()) == set(MERGE_SPECS) | set(SKIPPED_TYPES)
