"""Batch ingestion ≡ sequential weighted updates, for every registered type.

The `update_batch` contract: feeding ``(items, weights)`` in one call is
equivalent to the sequential loop ``for x, w in zip(items, weights):
update(x, w)``.  Equivalence comes in two strengths and every registered
summary is pinned to one of them (the suite fails loudly when a new
registration forgets to classify itself):

- **exact** — the serialized state is identical.  Holds for linear
  sketches (CountMin, CountSketch, AMS), idempotent-join lattices
  (HyperLogLog, Bloom, KMV, EpsKernel), exact baselines, and every type
  that relies on the generic per-item fallback.
- **semantic** — the batch fast path legitimately reorders or
  restructures (Counter pre-aggregation for MG/SS, bulk compaction for
  the quantile summaries), so states may differ; ``n`` must still match
  exactly and queries must agree within the summary's error bound.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.core import ParameterError, SummaryBundle, registered_names
from repro.core.base import normalize_batch

# ---------------------------------------------------------------------------
# Per-type specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    name: str
    factory: Callable[[], Any]
    feed: Callable[[], list]
    #: "exact" | "frequency" | "decay_frequency" | "quantile" | "ranges"
    #: | "kernel"
    mode: str
    #: frequency mode: allowed estimate gap as a fraction of total weight
    freq_bound: float = 0.0
    #: quantile mode: allowed rank error per summary vs the exact stream
    rank_tol: float = 0.1
    #: cap on generated weights (EqualWeightQuantiles has capacity s)
    max_weight: int = 5
    #: canonicalize to_dict payloads before exact comparison
    canon: Optional[Callable[[dict], dict]] = None
    #: False for types whose ``n`` counts observations, not weight mass
    #: (DecayedMisraGries: weight is decayed float mass)
    weight_in_n: bool = True


def _ints(seed: int, n: int = 150, hi: int = 40) -> list:
    return np.random.default_rng(seed).integers(0, hi, size=n).tolist()


def _vals(seed: int, n: int = 150) -> list:
    return np.random.default_rng(seed).random(n).tolist()


def _pts(seed: int, n: int = 40) -> list:
    return list(np.random.default_rng(seed).random((n, 2)))


def _sorted_values(payload: dict) -> dict:
    # KMV's keep-heap order depends on insertion order; the *set* is the state
    out = dict(payload)
    out["values"] = sorted(out["values"])
    return out


def _specs() -> List[BatchSpec]:
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

    return [
        BatchSpec(
            "misra_gries", lambda: MisraGries(8), lambda: _ints(1),
            mode="frequency", freq_bound=1 / 9,
        ),
        BatchSpec(
            "space_saving", lambda: SpaceSaving(8), lambda: _ints(2),
            mode="frequency", freq_bound=1 / 8,
        ),
        BatchSpec("majority_vote", MajorityVote, lambda: _ints(3), mode="exact"),
        BatchSpec(
            "count_min", lambda: CountMin(64, 4, seed=1), lambda: _ints(4),
            mode="exact",
        ),
        BatchSpec(
            "conservative_count_min",
            lambda: ConservativeCountMin(64, 4, seed=1),
            lambda: _ints(5),
            mode="exact",
        ),
        BatchSpec(
            "dyadic_hierarchy",
            lambda: DyadicHierarchy(8, 8),
            lambda: _ints(6, hi=256),
            mode="frequency", freq_bound=1 / 9,
        ),
        BatchSpec(
            "count_sketch", lambda: CountSketch(64, 5, seed=1), lambda: _ints(7),
            mode="exact",
        ),
        BatchSpec("exact_counter", ExactCounter, lambda: _ints(8), mode="exact"),
        BatchSpec("exact_quantiles", ExactQuantiles, lambda: _vals(9), mode="exact"),
        BatchSpec(
            # bulk insertion defers compression to the end of the batch, so
            # states diverge from the per-item schedule; the rank guarantee
            # is what the fast path preserves
            "gk_quantiles", lambda: GKQuantiles(0.05), lambda: _vals(10),
            mode="quantile",
        ),
        BatchSpec(
            "equal_weight_quantiles",
            lambda: EqualWeightQuantiles(32, rng=1),
            lambda: _vals(11, n=6),
            mode="exact", max_weight=3,
        ),
        BatchSpec(
            "mergeable_quantiles",
            lambda: MergeableQuantiles(128, rng=1),
            lambda: _vals(12),
            mode="quantile",
        ),
        BatchSpec(
            "hybrid_quantiles",
            lambda: HybridQuantiles(0.05, rng=1),
            lambda: _vals(13),
            mode="quantile",
        ),
        BatchSpec(
            "kll_quantiles",
            lambda: KLLQuantiles(200, rng=1),
            lambda: _vals(14),
            mode="quantile",
        ),
        BatchSpec(
            # batch ingestion sums the power matrix in one vectorized pass,
            # so the float accumulation order differs from per-item updates;
            # the quantile guarantee is what both schedules preserve
            "moment_sketch",
            lambda: MomentSketch(10),
            lambda: _vals(22),
            mode="quantile",
        ),
        BatchSpec(
            "mrl_quantiles", lambda: MRLQuantiles(128), lambda: _vals(15),
            mode="quantile",
        ),
        BatchSpec(
            "bottom_k_sample",
            lambda: BottomKSample(2000, rng=1),
            lambda: _vals(16),
            mode="quantile", rank_tol=0.05,
        ),
        BatchSpec(
            "eps_approximation",
            lambda: EpsApproximation("intervals_1d", s=64, rng=1),
            lambda: _vals(17),
            mode="ranges",
        ),
        BatchSpec("eps_kernel", lambda: EpsKernel(0.2), lambda: _pts(18), mode="kernel"),
        BatchSpec(
            "k_min_values", lambda: KMinValues(16, seed=1), lambda: _ints(19),
            mode="exact", canon=_sorted_values,
        ),
        BatchSpec(
            "hyperloglog", lambda: HyperLogLog(p=4, seed=1), lambda: _ints(20),
            mode="exact",
        ),
        BatchSpec(
            "bloom_filter", lambda: BloomFilter(256, 3, seed=1), lambda: _ints(21),
            mode="exact",
        ),
        BatchSpec(
            "ams_f2", lambda: AmsF2Sketch(8, 3, seed=1), lambda: _ints(22),
            mode="exact",
        ),
        BatchSpec(
            # Counter pre-aggregation reorders decrements; each run stays
            # within N_decayed/(k+1) of truth, so runs differ by at most 2x
            "decayed_misra_gries",
            lambda: DecayedMisraGries(8, half_life=10.0),
            lambda: _ints(23),
            mode="decay_frequency", freq_bound=2 / 9, weight_in_n=False,
        ),
    ]


def _windowed_specs(base_specs: List[BatchSpec]) -> List[BatchSpec]:
    """Derive a spec for every auto-registered ``windowed.<name>`` variant.

    The combinator inherits the generic per-item ``update_batch``
    fallback, so batch ingestion is *exactly* the sequential loop —
    every derived spec pins mode="exact" (``weight_in_n`` follows the
    base type, since the window's ``n`` is the sum of its bucket
    sub-summaries' ``n``).
    """
    from repro.windows import windowed_names

    derived = set(windowed_names())
    specs = []
    for spec in base_specs:
        name = f"windowed.{spec.name}"
        if name not in derived:
            continue
        specs.append(
            BatchSpec(
                name,
                lambda s=spec: s.factory().windowed(eps=0.25, granularity=4),
                spec.feed,
                mode="exact",
                max_weight=spec.max_weight,
                weight_in_n=spec.weight_in_n,
            )
        )
    return specs


BASE_SPECS: Dict[str, BatchSpec] = {spec.name: spec for spec in _specs()}
SPECS: Dict[str, BatchSpec] = dict(BASE_SPECS)
SPECS.update({spec.name: spec for spec in _windowed_specs(list(BASE_SPECS.values()))})


def test_every_registered_type_has_a_batch_spec():
    missing = set(registered_names()) - set(SPECS)
    assert not missing, f"batch suite misses registered types: {missing}"


@pytest.fixture(params=sorted(SPECS), ids=sorted(SPECS))
def spec(request) -> BatchSpec:
    return SPECS[request.param]


# ---------------------------------------------------------------------------
# Equivalence machinery
# ---------------------------------------------------------------------------


def _weights_for(spec: BatchSpec, n: int) -> list:
    return (
        np.random.default_rng(1000 + hash(spec.name) % 1000)
        .integers(1, spec.max_weight + 1, size=n)
        .tolist()
    )


def _sequential(spec: BatchSpec, items, weights):
    summary = spec.factory()
    if weights is None:
        for item in items:
            summary.update(item)
    else:
        for item, weight in zip(items, weights):
            summary.update(item, weight=weight)
    return summary


def _batched(spec: BatchSpec, items, weights):
    summary = spec.factory()
    summary.update_batch(items, weights)
    return summary


def _exact_rank(items, weights) -> Callable[[float], float]:
    reps = np.repeat(
        np.asarray(items, dtype=np.float64),
        np.ones(len(items), dtype=np.int64) if weights is None else weights,
    )
    total = len(reps)

    def rank(x: float) -> float:
        return float((reps <= x).sum()) / total

    return rank


def _assert_equivalent(spec: BatchSpec, seq, bat, items, weights) -> None:
    assert bat.n == seq.n
    if spec.mode == "exact":
        a, b = seq.to_dict(), bat.to_dict()
        if spec.canon is not None:
            a, b = spec.canon(a), spec.canon(b)
        assert a == b
    elif spec.mode == "frequency":
        allowed = spec.freq_bound * seq.n + 1
        for item in set(items):
            assert abs(seq.estimate(item) - bat.estimate(item)) <= allowed
    elif spec.mode == "decay_frequency":
        # estimates live in decayed-mass units; the bound's denominator is
        # the decayed total, not the observation count n
        assert abs(seq.decayed_total - bat.decayed_total) <= 1e-9 * max(
            1.0, seq.decayed_total
        )
        allowed = spec.freq_bound * seq.decayed_total + 1
        for item in set(items):
            assert abs(seq.estimate(item) - bat.estimate(item)) <= allowed
    elif spec.mode == "quantile":
        rank = _exact_rank(items, weights)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            for summary in (seq, bat):
                assert abs(rank(summary.quantile(q)) - q) <= spec.rank_tol
    elif spec.mode == "ranges":
        rank = _exact_rank(items, weights)
        for lo, hi in ((0.2, 0.7), (0.0, 0.5)):
            true = (rank(hi) - rank(lo)) * seq.n
            for summary in (seq, bat):
                assert abs(summary.count((lo, hi)) - true) <= 0.3 * seq.n + 1
    elif spec.mode == "kernel":
        np.testing.assert_allclose(seq.kernel_points(), bat.kernel_points())
    else:  # pragma: no cover - spec table bug
        raise AssertionError(f"unknown mode {spec.mode!r}")


class TestBatchEquivalence:
    def test_unweighted(self, spec):
        items = spec.feed()
        seq = _sequential(spec, items, None)
        bat = _batched(spec, items, None)
        _assert_equivalent(spec, seq, bat, items, None)

    def test_weighted(self, spec):
        items = spec.feed()
        weights = _weights_for(spec, len(items))
        seq = _sequential(spec, items, weights)
        bat = _batched(spec, items, weights)
        if spec.weight_in_n:
            assert bat.n == sum(weights)
        _assert_equivalent(spec, seq, bat, items, weights)

    def test_numpy_weights_accepted(self, spec):
        items = spec.feed()
        weights = np.asarray(_weights_for(spec, len(items)), dtype=np.int64)
        summary = _batched(spec, items, weights)
        expected = int(weights.sum()) if spec.weight_in_n else len(items)
        assert summary.n == expected

    def test_extend_and_from_items_take_weights(self, spec):
        items = spec.feed()
        weights = _weights_for(spec, len(items))
        via_extend = spec.factory().extend(items, weights)
        via_batch = _batched(spec, items, weights)
        expected = sum(weights) if spec.weight_in_n else len(items)
        assert via_extend.n == via_batch.n == expected
        cls = type(via_batch)
        try:
            via_ctor = cls.from_items(items, weights=weights, **{})
        except TypeError:
            pytest.skip("type needs constructor arguments; covered via extend")
        assert via_ctor.n == expected

    def test_empty_batch_is_noop(self, spec):
        summary = spec.factory()
        summary.update_batch([])
        assert summary.n == 0
        assert summary.is_empty


# ---------------------------------------------------------------------------
# normalize_batch validation
# ---------------------------------------------------------------------------


class TestNormalizeBatch:
    def test_weight_length_mismatch(self):
        with pytest.raises(ParameterError):
            normalize_batch([1, 2, 3], [1, 2])

    def test_nonpositive_weights(self):
        for bad in ([1, 0, 1], [1, -2, 1]):
            with pytest.raises(ParameterError):
                normalize_batch([1, 2, 3], bad)

    def test_fractional_weights(self):
        with pytest.raises(ParameterError):
            normalize_batch([1, 2], [1.5, 2.0])

    def test_float_weights_past_int64_rejected_before_the_cast(self):
        # the cast's result past int64 is platform-defined: it may clamp
        # to a positive weight instead of wrapping to a negative one
        for bad in ([1e19, 1.0], [float("inf"), 1.0], [-1e19, 1.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ParameterError, match="below 2\\*\\*63"):
                    normalize_batch([1, 2], bad)

    def test_integer_valued_float_weights_ok(self):
        _, weights, total = normalize_batch([1, 2], [2.0, 3.0])
        assert weights.tolist() == [2, 3]
        assert total == 5

    def test_no_weights(self):
        items, weights, total = normalize_batch([7, 8, 9], None)
        assert list(items) == [7, 8, 9]
        assert weights is None
        assert total == 3


# ---------------------------------------------------------------------------
# The headline bugfix: O(polylog) weighted updates for quantile summaries
# ---------------------------------------------------------------------------


class TestWeightedUpdateComplexity:
    @pytest.mark.parametrize(
        "name", ["kll_quantiles", "mergeable_quantiles", "mrl_quantiles",
                 "hybrid_quantiles"],
    )
    def test_huge_weight_is_fast_and_correct(self, name):
        spec = SPECS[name]
        summary = spec.factory()
        start = time.perf_counter()
        summary.update(3.5, weight=10**6)
        elapsed = time.perf_counter() - start
        # the old code looped range(weight): ~seconds.  Polylog: ~microseconds.
        assert elapsed < 0.5, f"weighted update took {elapsed:.3f}s"
        assert summary.n == 10**6
        assert summary.quantile(0.5) == 3.5

    def test_kll_mixed_weighted_stream_stays_accurate(self):
        spec = SPECS["kll_quantiles"]
        rng = np.random.default_rng(7)
        items = rng.random(2000)
        weights = rng.integers(1, 2000, size=2000)
        summary = spec.factory()
        summary.update_batch(items, weights)
        rank = _exact_rank(items, weights)
        for q in (0.1, 0.5, 0.9):
            assert abs(rank(summary.quantile(q)) - q) <= 0.05


# ---------------------------------------------------------------------------
# HyperLogLog register encoding
# ---------------------------------------------------------------------------


class TestHllRegisterEncoding:
    def test_registers_serialize_compact_and_roundtrip(self):
        from repro.sketches import HyperLogLog

        hll = HyperLogLog(p=8, seed=3).extend(_ints(30, n=500, hi=10_000))
        payload = hll.to_dict()
        assert isinstance(payload["registers"], str)  # base64, not a list
        restored = HyperLogLog.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.distinct() == hll.distinct()

    def test_legacy_list_registers_still_accepted(self):
        from repro.sketches import HyperLogLog

        hll = HyperLogLog(p=8, seed=3).extend(_ints(31, n=500, hi=10_000))
        payload = hll.to_dict()
        legacy = dict(payload)
        legacy["registers"] = np.frombuffer(
            __import__("base64").b64decode(payload["registers"]), dtype=np.uint8
        ).tolist()
        restored = HyperLogLog.from_dict(legacy)
        assert restored.to_dict() == payload

    @pytest.mark.parametrize(
        "registers",
        [
            [1, 2, 3],  # 3 registers where p=4 has 16
            [300] * 16,  # overflows a uint8 register
            [62] * 16,  # above the largest rank, 65 - p = 61
            __import__("base64").b64encode(bytes([200] * 16)).decode("ascii"),
        ],
        ids=["list-short", "list-overflow", "list-rank", "base64-rank"],
    )
    def test_bad_registers_rejected(self, registers):
        import json

        from repro.core.codecs import decode_summary

        # a checksum-less json.v1 envelope, still accepted for legacy data
        envelope = {
            "format": 1,
            "type": "hyperloglog",
            "state": {"p": 4, "seed": 0, "n": 5, "registers": registers},
        }
        with pytest.raises(ParameterError):
            decode_summary(json.dumps(envelope))


# ---------------------------------------------------------------------------
# Bundle-level batched ingestion
# ---------------------------------------------------------------------------


class TestBundleBatch:
    def _bundle(self):
        from repro.frequency import CountMin
        from repro.sketches import HyperLogLog

        return (
            SummaryBundle()
            .add("hot", CountMin(64, 4, seed=1), field="page")
            .add("users", HyperLogLog(p=6, seed=2), field="user")
        )

    def test_weighted_extend_matches_per_record_update(self):
        records = [
            {"page": f"/p{i % 7}", "user": i % 13} for i in range(60)
        ]
        weights = np.random.default_rng(33).integers(1, 5, size=60).tolist()
        batched = self._bundle().extend(records, weights)
        looped = self._bundle()
        for record, weight in zip(records, weights):
            for _ in range(weight):
                looped.update(record)
        assert batched.n == sum(weights) == looped.n
        assert batched["hot"].to_dict() == looped["hot"].to_dict()
        assert batched["users"].to_dict() == looped["users"].to_dict()

    def test_sparse_records_skip_members(self):
        bundle = self._bundle()
        bundle.update_batch([{"page": "/a"}, {"user": 1}, {"page": "/a", "user": 2}])
        assert bundle.n == 3
        assert bundle["hot"].n == 2
        assert bundle["users"].n == 2

    def test_strict_raises_on_missing_field(self):
        with pytest.raises(ParameterError):
            self._bundle().update_batch([{"page": "/a"}], strict=True)
