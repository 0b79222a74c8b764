"""Engine suite: folds and the simulator replay one merge schedule.

``merge_all``'s ``chain``/``tree``/``random`` folds replay a
:class:`~repro.core.topology.MergeSchedule` in process, and the
distributed simulator replays one over its nodes.  This suite pins
that contract:

- for **every registered summary type**, each fold strategy is
  byte-identical to an in-test replica of the legacy loop it replaced
  (the fold performs the *same* merge sequence, so even randomized
  summaries must match bit-for-bit);
- a simulator run equals a manual replay of its schedule, and crash
  injection never takes the schedule's root;
- the simulator's fault-free and fault-injected replays account
  correctly (merge counts, coverage, duplicate injection, ledgers).

Store compaction builds its roll-ups without the engine; its tests live
in ``tests/store/test_store.py`` and ``tests/store/test_cube.py``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import MERGE_STRATEGIES, ParameterError, dumps
from repro.core.merge import merge_all
from repro.core.rng import resolve_rng
from repro.distributed import (
    ContiguousPartitioner,
    MergeSchedule,
    build_topology,
    chain,
    run_aggregation,
)
from repro.engine import FaultModel, RetryPolicy
from repro.frequency import ExactCounter, MisraGries
from tests.test_merge_runtime import MERGE_SPECS, SKIPPED_TYPES

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
        # every other node crashes at its first draw; the root (not 0
        # here) is never drawn, so it keeps exactly its own shard
        data = np.arange(10) % 4
        schedule = MergeSchedule("hand", 4, [(2, 0), (2, 1), (2, 3)], root=2)
        result = run_aggregation(
            data, ContiguousPartitioner(), ExactCounter, schedule,
            fault_model=FaultModel(crash=1.0, rng=1),
        )
        assert result.delivered_leaves == [2]
        assert 2 not in result.fault_stats.crashed_nodes
        assert sorted(result.fault_stats.crashed_nodes) == [0, 1, 3]
        assert result.merges == 0
        assert result.summary.n == result.shard_sizes[2]
        root_shard = ContiguousPartitioner().split(data, 4)[2]
        assert result.summary.counters() == dict(Counter(root_shard.tolist()))


# ---------------------------------------------------------------------------
# The simulator's replay and its accounting
# ---------------------------------------------------------------------------


def _chain_run(count: int, per: int = 40, **kwargs):
    """``count`` ExactCounter shards of ``per`` items merged along ``chain``."""
    data = np.concatenate(
        [np.random.default_rng(300 + i).integers(0, 9, size=per) for i in range(count)]
    )
    return run_aggregation(
        data, ContiguousPartitioner(), ExactCounter, chain(count), **kwargs
    )


class TestExecutorAccounting:
    """``run_aggregation`` executes a schedule step by step; what it reports."""

    def test_knob_validation(self):
        with pytest.raises(ParameterError, match="must be in"):
            FaultModel(duplicate=1.5)
        with pytest.raises(ParameterError, match="requires serialize"):
            _chain_run(2, fault_model=FaultModel(corruption=0.5, rng=1))

    def test_scalar_report_counts_steps(self):
        result = _chain_run(6)
        assert result.merges == 5
        assert result.delivered_leaves == list(range(6))
        assert result.summary.n == sum(result.shard_sizes) == 240

    def test_duplicate_knob_double_merges(self):
        # no ledger: bare at-least-once delivery, every duplicate lands
        result = _chain_run(
            4, fault_model=FaultModel(duplicate=1.0, rng=5), exactly_once=False
        )
        assert result.fault_stats.duplicates_delivered == 3
        assert result.summary.n == sum(result.shard_sizes) + sum(result.shard_sizes[1:])

    def test_total_loss_marks_steps_failed_but_keeps_inputs(self):
        result = _chain_run(
            4,
            fault_model=FaultModel(loss=1.0, rng=2),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert result.fault_stats.deliveries_failed == 3
        assert result.merges == 0
        # the root survives with only its own data
        assert result.summary.n == result.shard_sizes[0]
        assert result.delivered_leaves == [0]
        assert result.coverage == 0.25

    def test_ledger_suppresses_injected_duplicates(self):
        clean = _chain_run(5).summary
        result = _chain_run(5, fault_model=FaultModel(duplicate=1.0, rng=3))
        stats = result.fault_stats
        assert stats.duplicates_delivered == 4
        assert stats.duplicates_suppressed == 4
        assert stats.duplicates_merged == 0
        assert dumps(result.summary) == dumps(clean)

    def test_without_ledger_duplicates_land(self):
        clean = _chain_run(5).summary
        result = _chain_run(
            5, fault_model=FaultModel(duplicate=1.0, rng=3), exactly_once=False
        )
        assert result.fault_stats.duplicates_merged == 4
        assert result.summary.n > clean.n


def test_skipped_types_documented():
    # keep the fold-equivalence coverage honest: anything not in
    # MERGE_SPECS must carry an explicit skip reason
    from repro.core import registered_names

    assert set(registered_names()) == set(MERGE_SPECS) | set(SKIPPED_TYPES)
