"""Merge-runtime suite: k-way merges, aggregation determinism, query caching.

Registry-driven equivalence tests for the PR-3 runtime:

- ``merge_many(others)`` must agree with the sequential ``merge`` fold —
  bit-for-bit for summaries whose k-way combine commutes exactly
  (linear sketches, lattices, generic-fallback types), error-bounded
  for summaries whose single-pass combine legitimately reorders
  compactions (MG/SS single prune, quantile carry cascades);
- two ``run_aggregation`` runs over the same seeded leaves must give
  byte-identical roots covering every record, for every registered type;
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
from repro.distributed import ContiguousPartitioner, Node, balanced_tree, run_aggregation

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
    from repro.decay import DecayedMisraGries
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
# aggregation determinism
# ---------------------------------------------------------------------------

AGGREGATION_DATA = {
    "ints": lambda: np.random.default_rng(7).integers(0, 200, size=2048),
    "floats": lambda: np.random.default_rng(8).random(2048),
    "points": lambda: np.random.default_rng(9).random((256, 2)),
}


def _aggregation_setup(name: str):
    """(data, factory) for one registered type in the simulator."""
    from repro.decay import DecayedMisraGries
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
    # two runs of the in-process engine over the same seeded leaves must
    # produce the same root bytes, and the root must cover every record
    data, factory = _aggregation_setup(name)
    roots = [
        run_aggregation(
            data, ContiguousPartitioner(), factory, balanced_tree(8)
        ).summary
        for _ in range(2)
    ]
    assert dumps(roots[0]) == dumps(roots[1])
    assert roots[0].n == len(data)


def test_index_aware_factory_receives_node_ids():
    from repro.quantiles import MergeableQuantiles

    seen = []

    def factory(node_id):
        seen.append(node_id)
        return MergeableQuantiles(16, rng=node_id)

    data = AGGREGATION_DATA["floats"]()
    run_aggregation(data, ContiguousPartitioner(), factory, balanced_tree(8))
    assert sorted(seen) == list(range(8))


def _raising_factory():
    raise ValueError("task boom")


def test_task_exceptions_propagate():
    # a leaf builder raising mid-plan re-raises, unchanged, to the caller
    with pytest.raises(ValueError, match="task"):
        run_aggregation(
            AGGREGATION_DATA["ints"](), ContiguousPartitioner(),
            _raising_factory, balanced_tree(4),
        )


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
