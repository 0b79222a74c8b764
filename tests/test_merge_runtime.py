"""Merge-runtime suite: k-way merges, parallel execution, query caching.

Registry-driven equivalence tests for the PR-3 runtime:

- ``merge_many(others)`` must agree with the sequential ``merge`` fold —
  bit-for-bit for summaries whose k-way combine commutes exactly
  (linear sketches, lattices, generic-fallback types), error-bounded
  for summaries whose single-pass combine legitimately reorders
  compactions (MG/SS single prune, quantile carry cascades);
- ``run_aggregation(..., executor=k)`` must be byte-identical for every
  worker count (and to the serial executor) for every registered type;
- the cached quantile view must serve repeated queries without
  recomputation and invalidate on any mutation;
- ``KLLQuantiles._compress`` must scan a linear, not quadratic, number
  of levels per flush;
- ``Node.emit`` must serialize each summary generation once, charging
  retransmissions to ``bytes_retransmitted``.

Every registered summary type must appear in ``MERGE_SPECS`` or, with
an explicit reason, in ``SKIPPED_TYPES`` — the suite fails loudly
otherwise, so new types cannot dodge the runtime contract silently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
import pytest

from repro.core import MergeError, Summary, dumps, loads, registered_names
from repro.core.merge import merge_all, merge_chain, merge_kway
from repro.core.parallel import ParallelExecutor, RuntimeUnavailable, resolve_executor
from repro.distributed import (
    ContiguousPartitioner,
    MergeSchedule,
    Node,
    balanced_tree,
    build_topology,
    run_aggregation,
)
from repro.engine import compile_aggregation, compile_fold, execute_plan, plan_step_waves

# ---------------------------------------------------------------------------
# Per-type specifications
# ---------------------------------------------------------------------------

PARTS = 6  # fan-in for the merge_many equivalence checks


def _ints(seed: int, n: int = 160) -> list:
    return np.random.default_rng(seed).integers(0, 50, size=n).tolist()


def _floats(seed: int, n: int = 160) -> list:
    return np.random.default_rng(seed).random(n).tolist()


def _points(seed: int, n: int = 40) -> list:
    return list(np.random.default_rng(seed).random((n, 2)))


@dataclass(frozen=True)
class MergeSpec:
    name: str
    #: factory(instance_index) -> summary (index seeds per-part RNGs)
    factory: Callable[[int], Summary]
    #: feed(seed) -> items for one part
    feed: Callable[[int], list]
    #: "exact" -> k-way state == fold state (serialized comparison);
    #: "bounded" -> k-way result within the type's error guarantee
    mode: str
    #: per-mode error checker for "bounded" specs (fold, kway, feeds)
    check: Optional[Callable[[Summary, Summary, List[list]], None]] = None


def _check_heavy_hitter_bound(fold: Summary, kway: Summary, feeds: List[list]) -> None:
    truth = Counter()
    for feed in feeds:
        truth.update(feed)
    n = sum(truth.values())
    k = fold.k
    bound = n / (k + 1)
    assert kway.n == fold.n == n
    assert kway.size() <= k
    for item, count in truth.most_common(20):
        est = kway.estimate(item)
        if type(kway).__name__ == "SpaceSaving":
            assert est >= count
            assert est - count <= bound
        else:
            assert est <= count
            assert count - est <= bound


def _check_rank_bound(rel_error: float):
    def check(fold: Summary, kway: Summary, feeds: List[list]) -> None:
        data = np.sort(np.concatenate([np.asarray(f) for f in feeds]))
        n = len(data)
        assert kway.n == fold.n == n
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            x = data[int(q * (n - 1))]
            true_rank = np.searchsorted(data, x, side="right")
            assert abs(kway.rank(x) - true_rank) <= rel_error * n

    return check


def _specs() -> List[MergeSpec]:
    from repro.decay import DecayedMisraGries, WindowedMisraGries
    from repro.frequency import (
        ConservativeCountMin,
        CountMin,
        CountSketch,
        DyadicHierarchy,
        ExactCounter,
        MajorityVote,
        MisraGries,
        SpaceSaving,
    )
    from repro.kernels import EpsKernel
    from repro.quantiles import (
        BottomKSample,
        ExactQuantiles,
        GKQuantiles,
        HybridQuantiles,
        KLLQuantiles,
        MergeableQuantiles,
        MomentSketch,
        MRLQuantiles,
    )
    from repro.ranges import EpsApproximation
    from repro.sketches import AmsF2Sketch, BloomFilter, HyperLogLog, KMinValues

    return [
        # exact: vectorized fast paths that commute bit-for-bit
        MergeSpec("count_min", lambda i: CountMin(32, 3, seed=1), _ints, "exact"),
        MergeSpec("count_sketch", lambda i: CountSketch(32, 3, seed=1), _ints, "exact"),
        MergeSpec("hyperloglog", lambda i: HyperLogLog(p=6, seed=1), _ints, "exact"),
        # exact: generic fallback (merge_many IS the fold)
        MergeSpec("exact_counter", lambda i: ExactCounter(), _ints, "exact"),
        MergeSpec("majority_vote", lambda i: MajorityVote(), _ints, "exact"),
        MergeSpec(
            "conservative_count_min",
            lambda i: ConservativeCountMin(32, 3, seed=1),
            _ints,
            "exact",
        ),
        MergeSpec("dyadic_hierarchy", lambda i: DyadicHierarchy(8, 8), _ints, "exact"),
        MergeSpec("exact_quantiles", lambda i: ExactQuantiles(), _floats, "exact"),
        MergeSpec("moment_sketch", lambda i: MomentSketch(10), _floats, "exact"),
        MergeSpec(
            "bottom_k_sample", lambda i: BottomKSample(20, rng=100 + i), _floats, "exact"
        ),
        MergeSpec(
            "eps_approximation",
            lambda i: EpsApproximation("intervals_1d", s=8, rng=100 + i),
            _floats,
            "exact",
        ),
        MergeSpec("eps_kernel", lambda i: EpsKernel(0.2), _points, "exact"),
        MergeSpec("k_min_values", lambda i: KMinValues(16, seed=1), _ints, "exact"),
        MergeSpec("bloom_filter", lambda i: BloomFilter(256, 3, seed=1), _ints, "exact"),
        MergeSpec("ams_f2", lambda i: AmsF2Sketch(8, 3, seed=1), _ints, "exact"),
        MergeSpec(
            "decayed_misra_gries",
            lambda i: DecayedMisraGries(8, half_life=10.0),
            _ints,
            "exact",
        ),
        MergeSpec(
            "windowed_misra_gries",
            lambda i: WindowedMisraGries(8, bucket_width=5.0, num_buckets=8),
            _ints,
            "exact",
        ),
        # bounded: single-pass combines reorder pruning/compaction but
        # must stay inside the type's guarantee
        MergeSpec(
            "misra_gries",
            lambda i: MisraGries(16),
            _ints,
            "bounded",
            _check_heavy_hitter_bound,
        ),
        MergeSpec(
            "space_saving",
            lambda i: SpaceSaving(16),
            _ints,
            "bounded",
            _check_heavy_hitter_bound,
        ),
        MergeSpec(
            # the k-way combine reinserts all operands in one pass, paying
            # one merge generation instead of len(others) — deliberately
            # different (better) state than the sequential fold
            "gk_quantiles",
            lambda i: GKQuantiles(0.1),
            _floats,
            "bounded",
            _check_rank_bound(0.3),
        ),
        MergeSpec(
            "kll_quantiles",
            lambda i: KLLQuantiles(64, rng=100 + i),
            _floats,
            "bounded",
            _check_rank_bound(0.15),
        ),
        MergeSpec(
            "mergeable_quantiles",
            lambda i: MergeableQuantiles(32, rng=100 + i),
            _floats,
            "bounded",
            _check_rank_bound(0.15),
        ),
        MergeSpec(
            "mrl_quantiles",
            lambda i: MRLQuantiles(32),
            _floats,
            "bounded",
            _check_rank_bound(0.2),
        ),
        MergeSpec(
            "hybrid_quantiles",
            lambda i: HybridQuantiles(0.15, rng=100 + i),
            _floats,
            "bounded",
            _check_rank_bound(0.2),
        ),
    ]


def _windowed_specs(base_specs: List[MergeSpec]) -> List[MergeSpec]:
    """Derive a spec for every auto-registered ``windowed.<name>`` variant.

    The windowed combinator inherits the generic sequential
    ``merge_many`` loop, which *is* the chain fold — so every windowed
    variant is "exact", regardless of the base type's own k-way mode:
    the reordering fast paths live inside the bucket sub-summaries and
    both sides replay them in the same order.
    """
    from repro.windows import windowed_names

    derived = set(windowed_names())
    specs = []
    for spec in base_specs:
        name = f"windowed.{spec.name}"
        if name not in derived:
            continue
        specs.append(
            MergeSpec(
                name,
                lambda i, s=spec: s.factory(i).windowed(eps=0.25, granularity=4),
                spec.feed,
                "exact",
            )
        )
    return specs


BASE_MERGE_SPECS = {spec.name: spec for spec in _specs()}
MERGE_SPECS = dict(BASE_MERGE_SPECS)
MERGE_SPECS.update(
    {spec.name: spec for spec in _windowed_specs(list(BASE_MERGE_SPECS.values()))}
)

#: registered types with no meaningful k-way fold, with the reason
SKIPPED_TYPES = {
    "equal_weight_quantiles": (
        "only defined for equal-weight operands: a flat left fold over "
        "k>2 parts is itself a MergeError, so there is no sequential "
        "baseline for merge_many to match (covered by the aggregation "
        "determinism test instead)"
    ),
}


def test_every_registered_type_has_a_merge_spec():
    covered = set(MERGE_SPECS) | set(SKIPPED_TYPES)
    missing = set(registered_names()) - covered
    assert not missing, f"merge-runtime suite misses registered types: {missing}"
    assert not set(MERGE_SPECS) & set(SKIPPED_TYPES)


@pytest.fixture(params=sorted(MERGE_SPECS), ids=sorted(MERGE_SPECS))
def spec(request) -> MergeSpec:
    return MERGE_SPECS[request.param]


def _build_parts(spec: MergeSpec, count: int = PARTS):
    feeds = [spec.feed(50 + j) for j in range(count)]
    return feeds, [spec.factory(j).extend(feeds[j]) for j in range(count)]


def _state(summary: Summary) -> dict:
    """Serialized state minus the volatile RNG re-seed field."""
    payload = summary.to_dict()
    payload.pop("seed", None)
    return payload


# ---------------------------------------------------------------------------
# merge_many ≡ sequential fold
# ---------------------------------------------------------------------------


class TestMergeManyEquivalence:
    def test_kway_matches_or_bounds_sequential_fold(self, spec):
        feeds, parts_fold = _build_parts(spec)
        _, parts_kway = _build_parts(spec)
        fold = merge_chain(parts_fold)
        kway = parts_kway[0].merge_many(parts_kway[1:])
        assert kway.n == fold.n
        if spec.mode == "exact":
            assert _state(kway) == _state(fold)
        else:
            spec.check(fold, kway, feeds)

    def test_merge_many_empty_iterable_is_noop(self, spec):
        summary = spec.factory(0).extend(spec.feed(1))
        before = summary.n
        assert summary.merge_many([]) is summary
        assert summary.n == before

    def test_merge_many_rejects_foreign_type_before_mutating(self, spec):
        from repro.frequency import ExactCounter
        from repro.quantiles import ExactQuantiles

        summary = spec.factory(0).extend(spec.feed(2))
        other = spec.factory(1).extend(spec.feed(3))
        foreign = (
            ExactQuantiles()
            if isinstance(summary, ExactCounter)
            else ExactCounter().extend([1, 2])
        )
        n_before = summary.n
        with pytest.raises(MergeError):
            summary.merge_many([other, foreign])
        assert summary.n == n_before  # checked up front, nothing merged

    def test_merge_many_accepts_roundtripped_operands(self, spec):
        _, parts = _build_parts(spec, count=3)
        total = sum(p.n for p in parts)
        wired = [loads(dumps(p)) for p in parts[1:]]
        assert parts[0].merge_many(wired).n == total

    def test_merge_kway_strategy_dispatch(self, spec):
        _, parts = _build_parts(spec, count=3)
        total = sum(p.n for p in parts)
        assert merge_all(parts, strategy="kway").n == total
        _, parts = _build_parts(spec, count=3)
        assert merge_kway(parts).n == total


# ---------------------------------------------------------------------------
# parallel aggregation determinism
# ---------------------------------------------------------------------------

AGGREGATION_DATA = {
    "ints": lambda: np.random.default_rng(7).integers(0, 200, size=2048),
    "floats": lambda: np.random.default_rng(8).random(2048),
    "points": lambda: np.random.default_rng(9).random((256, 2)),
}


def _aggregation_setup(name: str):
    """(data, factory) for one registered type in the simulator."""
    from repro.decay import DecayedMisraGries, WindowedMisraGries
    from repro.frequency import (
        ConservativeCountMin,
        CountMin,
        CountSketch,
        DyadicHierarchy,
        ExactCounter,
        MajorityVote,
        MisraGries,
        SpaceSaving,
    )
    from repro.kernels import EpsKernel
    from repro.quantiles import (
        BottomKSample,
        EqualWeightQuantiles,
        ExactQuantiles,
        GKQuantiles,
        HybridQuantiles,
        KLLQuantiles,
        MergeableQuantiles,
        MomentSketch,
        MRLQuantiles,
    )
    from repro.ranges import EpsApproximation
    from repro.sketches import AmsF2Sketch, BloomFilter, HyperLogLog, KMinValues

    table = {
        "misra_gries": ("ints", lambda i: MisraGries(16)),
        "space_saving": ("ints", lambda i: SpaceSaving(16)),
        "majority_vote": ("ints", lambda i: MajorityVote()),
        "count_min": ("ints", lambda i: CountMin(32, 3, seed=1)),
        "conservative_count_min": ("ints", lambda i: ConservativeCountMin(32, 3, seed=1)),
        "dyadic_hierarchy": ("ints", lambda i: DyadicHierarchy(8, 8)),
        "count_sketch": ("ints", lambda i: CountSketch(32, 3, seed=1)),
        "exact_counter": ("ints", lambda i: ExactCounter()),
        "exact_quantiles": ("floats", lambda i: ExactQuantiles()),
        "gk_quantiles": ("floats", lambda i: GKQuantiles(0.1)),
        # s must equal the shard size: leaves ingest raw values only
        "equal_weight_quantiles": ("floats", lambda i: EqualWeightQuantiles(256, rng=50 + i)),
        "mergeable_quantiles": ("floats", lambda i: MergeableQuantiles(32, rng=50 + i)),
        "hybrid_quantiles": ("floats", lambda i: HybridQuantiles(0.2, rng=50 + i)),
        "kll_quantiles": ("floats", lambda i: KLLQuantiles(32, rng=50 + i)),
        "moment_sketch": ("floats", lambda i: MomentSketch(10)),
        "mrl_quantiles": ("floats", lambda i: MRLQuantiles(32)),
        "bottom_k_sample": ("floats", lambda i: BottomKSample(20, rng=50 + i)),
        "eps_approximation": ("floats", lambda i: EpsApproximation("intervals_1d", s=8, rng=50 + i)),
        "eps_kernel": ("points", lambda i: EpsKernel(0.2)),
        "k_min_values": ("ints", lambda i: KMinValues(16, seed=1)),
        "hyperloglog": ("ints", lambda i: HyperLogLog(p=6, seed=1)),
        "bloom_filter": ("ints", lambda i: BloomFilter(256, 3, seed=1)),
        "ams_f2": ("ints", lambda i: AmsF2Sketch(8, 3, seed=1)),
        "decayed_misra_gries": ("ints", lambda i: DecayedMisraGries(8, half_life=10.0)),
        "windowed_misra_gries": ("ints", lambda i: WindowedMisraGries(8, bucket_width=5.0, num_buckets=8)),
    }
    from repro.windows import windowed_names

    # every windowed.<name> variant rides its base type's data and
    # factory; coarse granularity keeps the bucket count modest
    for derived in windowed_names():
        base = derived.split(".", 1)[1]
        base_kind, base_factory = table[base]
        table[derived] = (
            base_kind,
            lambda i, f=base_factory: f(i).windowed(eps=0.25, granularity=16),
        )

    kind, factory = table[name]
    return AGGREGATION_DATA[kind](), factory


def test_every_registered_type_has_an_aggregation_setup():
    for name in registered_names():
        data, factory = _aggregation_setup(name)
        assert len(data) and callable(factory)


@pytest.mark.parametrize("name", sorted(registered_names()))
def test_parallel_aggregation_is_byte_identical_to_serial(name):
    data, factory = _aggregation_setup(name)
    roots = [
        run_aggregation(
            data,
            ContiguousPartitioner(),
            factory,
            balanced_tree(8),
            executor=workers,
        ).summary
        for workers in (1, 3)
    ]
    assert dumps(roots[0]) == dumps(roots[1])


def test_executor_path_matches_legacy_for_deterministic_summary():
    from repro.frequency import ExactCounter

    data = AGGREGATION_DATA["ints"]()
    legacy = run_aggregation(
        data, ContiguousPartitioner(), ExactCounter, balanced_tree(16)
    )
    pooled = run_aggregation(
        data, ContiguousPartitioner(), ExactCounter, balanced_tree(16), executor=2
    )
    assert legacy.summary.counters() == pooled.summary.counters()
    assert legacy.merges == pooled.merges
    assert legacy.depth == pooled.depth


@pytest.mark.parametrize("topology", ["star", "kary", "chain"])
def test_executor_handles_grouped_topologies(topology):
    from repro.frequency import MisraGries

    data = AGGREGATION_DATA["ints"]()
    serial = run_aggregation(
        data, ContiguousPartitioner(), lambda: MisraGries(16),
        build_topology(topology, 9, rng=1),
    )
    pooled = run_aggregation(
        data, ContiguousPartitioner(), lambda: MisraGries(16),
        build_topology(topology, 9, rng=1), executor=2,
    )
    assert pooled.summary.n == serial.summary.n == len(data)
    assert pooled.summary.size() <= 16


def test_parallel_aggregation_with_serialization_accounts_bytes():
    from repro.frequency import MisraGries

    data = AGGREGATION_DATA["ints"]()
    result = run_aggregation(
        data, ContiguousPartitioner(), lambda: MisraGries(16),
        balanced_tree(8), serialize=True, executor=2,
    )
    assert result.summary.n == len(data)
    assert result.bytes_shipped > 0
    assert result.bytes_retransmitted == 0


def test_index_aware_factory_receives_node_ids():
    from repro.quantiles import MergeableQuantiles

    seen = []

    def factory(node_id):
        seen.append(node_id)
        return MergeableQuantiles(16, rng=node_id)

    data = AGGREGATION_DATA["floats"]()
    run_aggregation(data, ContiguousPartitioner(), factory, balanced_tree(8))
    assert sorted(seen) == list(range(8))


def test_parallel_build_with_faults_keeps_serial_merge_semantics():
    from repro.distributed import FaultModel, RetryPolicy
    from repro.frequency import MisraGries

    data = AGGREGATION_DATA["ints"]()

    def kwargs():
        # fresh FaultModel per run: its RNG stream is stateful
        return dict(
            serialize=True,
            fault_model=FaultModel(loss=0.3, rng=5),
            retry_policy=RetryPolicy(max_attempts=12),
        )

    plain = run_aggregation(
        data, ContiguousPartitioner(), lambda: MisraGries(16),
        balanced_tree(8), **kwargs(),
    )
    pooled = run_aggregation(
        data, ContiguousPartitioner(), lambda: MisraGries(16),
        balanced_tree(8), executor=2, **kwargs(),
    )
    assert pooled.summary.counters() == plain.summary.counters()
    assert pooled.fault_stats.retries == plain.fault_stats.retries
    assert pooled.bytes_retransmitted == plain.bytes_retransmitted


def test_fault_model_builds_run_on_the_runtime():
    # builds go through the resident runtime in every regime; the retry
    # loop then runs in the coordinator over the drained leaf values
    from repro.distributed import FaultModel, RetryPolicy
    from repro.frequency import MisraGries

    if not ParallelExecutor(max_workers=2).is_parallel:
        pytest.skip("no process pool on this platform")
    data = AGGREGATION_DATA["ints"]()

    def run(executor):
        return run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(16),
            balanced_tree(8), serialize=True,
            fault_model=FaultModel(loss=0.3, duplicate=0.2, rng=5),
            retry_policy=RetryPolicy(max_attempts=12), executor=executor,
        )

    plain, pooled = run(None), run(2)
    assert plain.runtime_stats is None
    assert pooled.runtime_stats is not None
    assert pooled.runtime_stats["dispatch_rounds"] == 1  # the build wave
    assert not pooled.degraded_to_serial
    assert dumps(pooled.summary) == dumps(plain.summary)
    assert pooled.fault_stats.retries == plain.fault_stats.retries
    assert pooled.bytes_shipped == plain.bytes_shipped


# ---------------------------------------------------------------------------
# wave planning
# ---------------------------------------------------------------------------


def _schedule_waves(schedule: MergeSchedule) -> list:
    """A schedule's wave plan as ``(dst, [srcs])`` groups."""
    return [
        [(group.dst, group.srcs) for group in wave]
        for wave in plan_step_waves(compile_aggregation(schedule).merge_steps)
    ]


class TestPlanMergeWaves:
    def test_star_collapses_to_one_kway_group(self):
        schedule = build_topology("star", 9)
        waves = _schedule_waves(schedule)
        assert waves == [[(schedule.root, [s for _d, s in schedule.steps])]]

    def test_waves_never_reuse_a_node(self):
        schedule = balanced_tree(16)
        for wave in _schedule_waves(schedule):
            touched = [n for dst, srcs in wave for n in (dst, *srcs)]
            assert len(touched) == len(set(touched))

    def test_waves_preserve_step_order_per_node(self):
        schedule = balanced_tree(16)
        flattened = [
            (dst, src)
            for wave in _schedule_waves(schedule)
            for dst, srcs in wave
            for src in srcs
        ]
        assert sorted(flattened) == sorted(schedule.steps)
        # per-destination absorb order must match the schedule
        for node in {dst for dst, _src in schedule.steps}:
            expected = [s for d, s in schedule.steps if d == node]
            got = [s for d, s in flattened if d == node]
            assert got == expected

    def test_chain_collapses_to_one_kway_group(self):
        # this repo's chain has a single destination absorbing everyone,
        # so it groups exactly like a star
        schedule = build_topology("chain", 5)
        assert _schedule_waves(schedule) == [[(0, [1, 2, 3, 4])]]

    def test_dependent_steps_stay_fully_sequential(self):
        # each destination was a source of the previous step: no two
        # groups may share a wave
        schedule = MergeSchedule("dependent", 4, [(2, 3), (1, 2), (0, 1)])
        assert _schedule_waves(schedule) == [[(2, [3])], [(1, [2])], [(0, [1])]]


# ---------------------------------------------------------------------------
# ParallelExecutor
# ---------------------------------------------------------------------------


def _raising_factory():
    raise ValueError("task boom")


class TestParallelExecutor:
    def test_serial_executor_never_forks(self):
        pool = ParallelExecutor(max_workers=1)
        assert not pool.is_parallel
        with pytest.raises(RuntimeUnavailable):
            pool.start_runtime(lambda *args: None, None)

    def test_lambdas_cross_the_pool_boundary(self):
        # closures are not picklable; runtime workers inherit the plan's
        # builder closures at fork time (single-worker boxes run them
        # in-process, which trivially supports them)
        from repro.frequency import ExactCounter

        offset = 17
        data = AGGREGATION_DATA["ints"]()

        def run(executor):
            return run_aggregation(
                data, ContiguousPartitioner(),
                lambda: ExactCounter().extend([offset]), balanced_tree(8),
                executor=executor,
            )

        pooled = run(2)
        assert pooled.summary.counters() == run(None).summary.counters()
        assert pooled.summary.estimate(offset) >= 8

    def test_rejects_negative_workers(self):
        from repro.core import ParameterError

        with pytest.raises(ParameterError):
            ParallelExecutor(max_workers=-1)
        with pytest.raises(ParameterError):
            resolve_executor(object())  # type: ignore[arg-type]

    def test_resolve_executor_forms(self):
        assert resolve_executor(None) is None
        assert resolve_executor(4).max_workers == 4
        pool = ParallelExecutor(2)
        assert resolve_executor(pool) is pool

    def test_task_exceptions_propagate(self):
        # a builder raising inside a runtime worker re-raises, unchanged,
        # in the coordinator
        with pytest.raises(ValueError, match="task"):
            run_aggregation(
                AGGREGATION_DATA["ints"](), ContiguousPartitioner(),
                _raising_factory, balanced_tree(4), executor=2,
            )

    def test_fork_payload_is_released_when_tasks_raise(self):
        from repro.core import parallel

        with pytest.raises(ValueError):
            run_aggregation(
                AGGREGATION_DATA["ints"](), ContiguousPartitioner(),
                _raising_factory, balanced_tree(4), executor=2,
            )
        assert parallel._RUNTIME_PAYLOAD is None


class TestRecoverableDegradation:
    """Runtime start failures must degrade *visibly* and heal after a
    cooldown of refused starts: one transient fault must not turn into
    serial-forever."""

    def _broken_context(self, monkeypatch):
        import multiprocessing

        def refuse(method):
            raise OSError("subprocesses forbidden")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)

    def _aggregate(self, executor):
        from repro.frequency import CountMin

        return run_aggregation(
            AGGREGATION_DATA["ints"](), ContiguousPartitioner(),
            lambda: CountMin(64, 3, seed=2), balanced_tree(8),
            executor=executor,
        )

    def _parallel_pool(self):
        pool = ParallelExecutor(max_workers=2)
        if not pool.is_parallel:
            pytest.skip("no process pool on this platform")
        return pool

    def test_pool_failure_degrades_then_reprobes(self, monkeypatch):
        import multiprocessing

        real = multiprocessing.get_context
        pool = self._parallel_pool()
        serial = dumps(self._aggregate(1).summary)
        self._broken_context(monkeypatch)
        failed = self._aggregate(pool)
        assert dumps(failed.summary) == serial
        assert failed.degraded_to_serial and failed.runtime_stats is None
        assert pool.fallbacks == 1
        assert pool.degraded and not pool.is_parallel
        assert any("re-probing after 8" in e for e in pool.degradation_events)
        monkeypatch.setattr(multiprocessing, "get_context", real)
        # every refused start ticks the cooldown and serves serial,
        # visibly and with correct results ...
        for _ in range(8):
            cooling = self._aggregate(pool)
            assert dumps(cooling.summary) == serial
            assert cooling.degraded_to_serial and cooling.runtime_stats is None
        # ... then the runtime is re-probed and parallelism recovers
        assert pool.is_parallel
        healed = self._aggregate(pool)
        assert dumps(healed.summary) == serial
        assert healed.runtime_stats is not None
        assert not healed.degraded_to_serial
        assert pool.fallbacks == 1  # healthy again: no new fallbacks

    def test_consecutive_failures_back_off_exponentially(self, monkeypatch):
        pool = self._parallel_pool()
        self._broken_context(monkeypatch)
        cooldowns = []
        for _ in range(5):
            self._aggregate(pool)  # the runtime start fails, sets the cooldown
            cooldowns.append(pool._cooldown)
            pool._cooldown = 0  # fast-forward to the next re-probe
        assert cooldowns == [8, 16, 32, 64, 64]


class TestWorkerRuntime:
    """The persistent shared-memory runtime behind the wave path."""

    def _count_min_aggregation(self, executor, leaves=16):
        from repro.frequency import CountMin

        data = AGGREGATION_DATA["ints"]()
        return run_aggregation(
            data,
            ContiguousPartitioner(),
            lambda: CountMin(64, 3, seed=2),
            balanced_tree(leaves),
            executor=executor,
        )

    def test_one_ipc_round_trip_per_wave(self):
        pool = ParallelExecutor(max_workers=3)
        result = self._count_min_aggregation(pool)
        if not pool.is_parallel:
            pytest.skip("no process pool on this platform")
        stats = result.runtime_stats
        assert stats is not None, "wave path must report runtime stats"
        # balanced_tree(16): one build round + four merge waves
        assert stats["dispatch_rounds"] == 5
        assert stats["worker_crashes"] == 0
        assert not result.degraded_to_serial
        # commands carry step ids, not summaries: a 16-leaf plan's entire
        # command traffic must stay far below one serialized CountMin
        # table (64*3*8 = 1536 bytes)
        assert stats["cmd_bytes"] < 8 * 1024
        # bulk state moved through shared memory, not the pipes
        assert stats["exported_bytes"] > 16 * 1536

    def test_results_survive_worker_count_sweep(self):
        from repro.core import dumps as _dumps

        baseline = None
        for workers in (1, 2, 3, 5):
            result = self._count_min_aggregation(workers)
            payload = _dumps(result.summary)
            if baseline is None:
                baseline = payload
            assert payload == baseline

    def test_runtime_payload_is_released_after_the_run(self):
        from repro.core import parallel

        self._count_min_aggregation(3)
        assert parallel._RUNTIME_PAYLOAD is None

    def test_runtime_payload_does_not_pin_plan_inputs(self):
        # workers inherit the plan's slots at fork; the coordinator must
        # not keep them (or the summaries they hold) alive afterwards
        import gc
        import weakref

        from repro.frequency import ExactCounter

        inputs = {f"s{i}": ExactCounter().extend([i, i + 1]) for i in range(4)}
        ref = weakref.ref(inputs["s1"])
        execute_plan(compile_fold("tree", 4), inputs, executor=2)
        del inputs
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("skip_runs", [0, 1])
    def test_worker_crash_mid_wave_is_exactly_once(self, skip_runs):
        # skip_runs=0 dies in the build wave; skip_runs=1 lets builds
        # through so the crash lands mid-merge-wave with resident state
        from repro.core import dumps as _dumps

        serial = self._count_min_aggregation(1)
        pool = ParallelExecutor(max_workers=3)
        pool._debug_worker_crash = (1, 0, skip_runs)
        result = self._count_min_aggregation(pool)
        if result.runtime_stats is None:
            pytest.skip("no process pool on this platform")
        assert _dumps(result.summary) == _dumps(serial.summary)
        assert result.runtime_stats["worker_crashes"] == 1
        assert result.degraded_to_serial
        assert any("exactly-once" in e for e in result.degradation_events)

    def test_crash_recovery_leaves_no_shared_memory_behind(self):
        import glob

        before = set(glob.glob("/dev/shm/rs*"))
        pool = ParallelExecutor(max_workers=3)
        pool._debug_worker_crash = (0, 0, 1)
        self._count_min_aggregation(pool)
        assert set(glob.glob("/dev/shm/rs*")) == before

    def test_healthy_runs_report_no_degradation(self):
        result = self._count_min_aggregation(3)
        assert not result.degraded_to_serial
        assert result.degradation_events == []

    def test_serial_executor_is_not_degraded(self):
        # executor=1 is *requested* serial — reporting it as degraded
        # would cry wolf on every single-core box
        result = self._count_min_aggregation(1)
        assert not result.degraded_to_serial
        assert result.degradation_events == []
        assert result.runtime_stats is None


# ---------------------------------------------------------------------------
# cached quantile views
# ---------------------------------------------------------------------------


class TestQueryCache:
    def _sketch(self):
        from repro.quantiles import MergeableQuantiles

        return MergeableQuantiles(64, rng=3).extend(_floats(77, n=4000))

    def test_repeated_queries_hit_the_cache(self):
        sketch = self._sketch()
        qs = np.linspace(0.05, 0.95, 19).tolist()
        first = sketch.quantiles(qs)
        assert sketch.view_stats == {"hits": 0, "misses": 1}
        for _ in range(5):
            assert sketch.quantiles(qs) == first
        assert sketch.view_stats == {"hits": 5, "misses": 1}

    def test_batch_quantiles_match_scalar_quantiles(self):
        from repro.quantiles import HybridQuantiles, KLLQuantiles, MRLQuantiles

        qs = np.linspace(0.0, 1.0, 21).tolist()
        for summary in (
            self._sketch(),
            KLLQuantiles(64, rng=5).extend(_floats(78, n=4000)),
            MRLQuantiles(32).extend(_floats(79, n=4000)),
            HybridQuantiles(0.1, rng=6).extend(_floats(80, n=4000)),
        ):
            assert summary.quantiles(qs) == [summary.quantile(q) for q in qs]

    def test_update_invalidates_the_view(self):
        sketch = self._sketch()
        sketch.median()
        stats = sketch.view_stats
        sketch.update(0.5)
        sketch.median()
        assert sketch.view_stats["misses"] == stats["misses"] + 1

    def test_merge_invalidates_the_view(self):
        from repro.quantiles import MergeableQuantiles

        sketch = self._sketch()
        sketch.median()
        stats = sketch.view_stats
        sketch.merge(MergeableQuantiles(64, rng=9).extend(_floats(81, n=100)))
        sketch.median()
        assert sketch.view_stats["misses"] == stats["misses"] + 1

    def test_rank_cdf_quantile_share_one_view(self):
        sketch = self._sketch()
        sketch.rank(0.3)
        sketch.cdf(0.5)
        sketch.quantile(0.9)
        assert sketch.view_stats["misses"] == 1

    def test_invalidate_view_forces_rebuild(self):
        sketch = self._sketch()
        sketch.median()
        sketch.invalidate_view()
        sketch.median()
        assert sketch.view_stats["misses"] == 2

    def test_summaries_without_sample_state_still_answer(self):
        from repro.quantiles import GKQuantiles

        gk = GKQuantiles(0.1).extend(_floats(82, n=500))
        qs = [0.1, 0.5, 0.9]
        assert gk.quantiles(qs) == [gk.quantile(q) for q in qs]

    def test_empty_summary_batch_raises_like_scalar(self):
        from repro.core import EmptySummaryError
        from repro.quantiles import KLLQuantiles

        empty = KLLQuantiles(16, rng=1)
        assert empty.quantiles([]) == []
        with pytest.raises(EmptySummaryError):
            empty.quantiles([0.5])


# ---------------------------------------------------------------------------
# KLL compress guard
# ---------------------------------------------------------------------------


class TestKLLCompressGuard:
    def test_compress_scan_cost_stays_linear(self):
        """The resume-in-place scan must do O(items) level visits; the
        old restart-from-zero scan was superlinear (O(L) restarts per
        compaction, L levels deep)."""
        from repro.quantiles import KLLQuantiles

        costs = {}
        for n in (2_000, 8_000):
            sketch = KLLQuantiles(16, rng=1)
            sketch.extend(np.random.default_rng(4).random(n))
            costs[n] = sketch._compress_steps
        # linear scan: cost ratio tracks the 4x item ratio with slack;
        # a quadratic scan blows well past it
        assert costs[8_000] <= 8 * costs[2_000]
        assert costs[8_000] <= 6 * 8_000

    def test_streaming_updates_stay_linear_too(self):
        from repro.quantiles import KLLQuantiles

        sketch = KLLQuantiles(16, rng=2)
        for value in np.random.default_rng(5).random(6_000):
            sketch.update(float(value))
        assert sketch._compress_steps <= 6 * 6_000

    def test_compress_still_respects_capacities(self):
        from repro.quantiles import KLLQuantiles

        sketch = KLLQuantiles(32, rng=3)
        sketch.extend(np.random.default_rng(6).random(50_000))
        for level in range(sketch.num_levels()):
            assert len(sketch._levels[level]) <= sketch._capacity(level)
        # rank accuracy unchanged by the scan-order fix
        data = np.sort(np.random.default_rng(6).random(50_000))
        for q in (0.1, 0.5, 0.9):
            x = data[int(q * (len(data) - 1))]
            true_rank = np.searchsorted(data, x, side="right")
            assert abs(sketch.rank(x) - true_rank) <= 0.1 * len(data)


# ---------------------------------------------------------------------------
# Node payload cache / retry-byte accounting
# ---------------------------------------------------------------------------


class TestNodePayloadCache:
    def _built_node(self):
        from repro.frequency import ExactCounter

        node = Node(node_id=0, shard=np.array([1, 2, 2, 3]))
        node.build(ExactCounter)
        return node

    def test_reemit_same_generation_charges_retransmission(self):
        node = self._built_node()
        first = node.emit(serialize=True)
        sent_after_first = node.bytes_sent
        second = node.emit(serialize=True)
        assert second == first  # identical bytes, not a re-serialization
        assert node.bytes_sent == sent_after_first == len(first)
        assert node.bytes_retransmitted == len(first)

    def test_new_generation_reserializes(self):
        node = self._built_node()
        other = self._built_node()
        node.emit(serialize=True)
        node.absorb(other.emit(serialize=True))
        before = node.bytes_sent
        node.emit(serialize=True)
        assert node.bytes_sent > before
        assert node.bytes_retransmitted == 0

    def test_rebuild_drops_cache(self):
        from repro.frequency import ExactCounter

        node = self._built_node()
        node.emit(serialize=True)
        node.build(ExactCounter)
        node.emit(serialize=True)
        assert node.bytes_retransmitted == 0
        assert node.bytes_sent == 2 * len(node.emit(serialize=True)) or node.bytes_sent > 0

    def test_retry_reemit_does_not_advance_randomized_state(self):
        """Serializing a randomized summary draws a seed from its RNG;
        retransmissions must reuse the cached payload so faults cannot
        perturb the summary's RNG stream."""
        from repro.quantiles import MergeableQuantiles

        node = Node(node_id=0, shard=np.random.default_rng(1).random(256))
        node.build(lambda: MergeableQuantiles(16, rng=7))
        assert node.emit(serialize=True) == node.emit(serialize=True)

    def test_absorb_many_merges_group_at_once(self):
        from repro.frequency import ExactCounter

        parent = self._built_node()
        children = []
        for i in range(1, 4):
            child = Node(node_id=i, shard=np.array([i, i]))
            child.build(ExactCounter)
            children.append(child.emit(serialize=True))
        merged = parent.absorb_many(children)
        assert merged == 3
        assert parent.merges_performed == 3
        assert parent.summary.n == 4 + 6

    def test_absorb_many_dedups_via_ledger(self):
        from repro.distributed import MergeLedger
        from repro.frequency import ExactCounter

        parent = self._built_node()
        parent.ledger = MergeLedger()
        child = Node(node_id=1, shard=np.array([9]))
        child.build(ExactCounter)
        payload = child.emit(serialize=True)
        assert parent.absorb_many([payload], delivery_ids=["d1"]) == 1
        assert parent.absorb_many([payload, payload], delivery_ids=["d1", "d2"]) == 1
        assert parent.duplicates_ignored == 1
        assert parent.summary.n == 4 + 2
