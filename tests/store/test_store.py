"""SegmentStore behavior + the planner ≡ naive-scan equivalence proof.

The equivalence class covers **every registered summary type** (the
suite fails loudly when a new registration dodges it): one store with
one member per type ingests S = 64 epochs, compacts the roll-up tree,
and answers a wide range query twice — through the planner's O(log S)
cover and through the naive full scan.  Both answers summarize exactly
the same records; how strongly they must agree is pinned per type:

- ``STATE_IDENTICAL`` — merge is associative (linear sketches,
  lattices, exact baselines): canonical serialized state must match
  bit-for-bit;
- bounded types reuse the merge-runtime suite's checkers (the roll-up
  tree is just another merge order, which mergeability says costs no
  accuracy);
- the rest get per-type answer checks against ground truth computed
  from the covered records.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.core import ParameterError, QueryError, registered_names
from repro.store import SegmentStore, fan_in_bound, merged_segment
from repro.store import chain as chain_module
from tests.test_merge_runtime import MERGE_SPECS, SKIPPED_TYPES

# ---------------------------------------------------------------------------
# Store mechanics
# ---------------------------------------------------------------------------


def _counter_store(width: float = 1.0, **kwargs) -> SegmentStore:
    store = SegmentStore(width=width, **kwargs)
    store.add_member("count", "exact_counter", field="value")
    return store


class TestSchema:
    def test_members_fixed_after_first_ingest(self):
        store = _counter_store()
        store.ingest([{"value": 1}], [0.0])
        with pytest.raises(ParameterError, match="after ingest"):
            store.add_member("late", "exact_counter", field="value")

    def test_duplicate_member_name_rejected(self):
        store = _counter_store()
        with pytest.raises(ParameterError, match="already has a member"):
            store.add_member("count", "exact_counter", field="value")

    def test_bad_constructor_kwargs_fail_eagerly(self):
        store = SegmentStore(width=1.0)
        with pytest.raises(ParameterError, match="cannot construct"):
            store.add_member("bad", "misra_gries", field="v", wrong_kwarg=3)

    def test_unknown_codec_rejected(self):
        from repro.core import SerializationError

        with pytest.raises(SerializationError, match="unknown codec"):
            SegmentStore(width=1.0, codec="nope")

    def test_nonpositive_width_rejected(self):
        for width in (0, -1.5):
            with pytest.raises(ParameterError):
                SegmentStore(width=width)

    def test_ingest_without_members_rejected(self):
        with pytest.raises(ParameterError, match="no members"):
            SegmentStore(width=1.0).ingest([{"value": 1}])
        with pytest.raises(QueryError, match="no members"):
            SegmentStore(width=1.0).query(0.0, 1.0)


class TestIngest:
    def test_partitioning_by_key(self):
        store = _counter_store(width=10.0)
        stats = store.ingest(
            [{"value": i} for i in range(6)],
            keys=[0.0, 5.0, 10.0, 19.9, 20.0, 35.0],
        )
        assert stats == {
            "segments_created": 4,
            "segments_replaced": 0,
            "rollups_invalidated": 0,
            "records": 6,
        }
        assert store.key_span() == (0.0, 40.0)

    def test_default_keys_are_arrival_index(self):
        store = _counter_store(width=2.0)
        store.ingest([{"value": i} for i in range(4)])  # keys 0..3
        store.ingest([{"value": i} for i in range(2)])  # keys 4..5
        assert store.num_segments == 3

    def test_misaligned_keys_rejected(self):
        store = _counter_store()
        with pytest.raises(ParameterError, match="keys must align"):
            store.ingest([{"value": 1}, {"value": 2}], keys=[0.0])

    def test_non_finite_keys_rejected(self):
        store = _counter_store()
        with pytest.raises(ParameterError, match="finite"):
            store.ingest([{"value": 1}], keys=[float("nan")])

    @pytest.mark.parametrize("operation", ["ingest", "query", "compact"])
    @pytest.mark.parametrize(
        "type_name, kwargs",
        [
            ("exact_counter", {}),
            ("misra_gries", {"k": 4}),
            ("kll_quantiles", {"k": 16, "rng": 1}),
            ("hyperloglog", {"p": 4, "seed": 1}),
        ],
        ids=["ec", "mg", "kll", "hll"],
    )
    def test_reingest_replaces_without_mutating_old_segment(
        self, type_name, kwargs, operation
    ):
        # every store merge folds into a copy of its first operand; the
        # old segment is that operand at all three copy sites
        store = SegmentStore(width=1.0)
        store.add_member("m", type_name, field="value", **kwargs)
        store.ingest([{"value": v % 13} for v in range(60)], [0.0] * 60)
        store.ingest([{"value": v % 17} for v in range(60)], [1.0] * 60)
        old = store.segments()[0]
        old_state = _canon(old.members["m"])
        if operation == "ingest":
            store.ingest([{"value": v % 7} for v in range(60)], [0.0] * 60)
            new = store.segments()[0]
            assert new.segment_id != old.segment_id
            assert new.count == 120
        elif operation == "query":
            assert store.query(0.0, 2.0)["m"].n == 120
        else:
            assert store.compact()["rollups_built"] == 1
        assert _canon(old.members["m"]) == old_state

    def test_weighted_ingest(self):
        store = SegmentStore(width=1.0)
        store.add_member("hot", "misra_gries", field="value", k=4)
        store.ingest(
            [{"value": "a"}, {"value": "b"}], keys=[0.0, 0.0], weights=[5, 2]
        )
        result = store.query(0.0, 1.0)
        assert result["hot"].n == 7
        assert result["hot"].estimate("a") == 5

    def test_generation_bumps_on_ingest_and_compact(self):
        store = _counter_store()
        g0 = store.generation
        store.ingest([{"value": 1}, {"value": 2}], [0.0, 1.0])
        g1 = store.generation
        assert g1 > g0
        store.compact()
        assert store.generation > g1
        # compacting an already-compacted store builds nothing, keeps
        # the generation (cached views stay valid)
        g2 = store.generation
        assert store.compact()["rollups_built"] == 0
        assert store.generation == g2


class TestQueryCache:
    def test_repeat_query_served_from_cache(self):
        store = _counter_store()
        store.ingest([{"value": i} for i in range(8)], [float(i) for i in range(8)])
        first = store.query(0.0, 8.0)
        assert store.query(0.0, 8.0) is first
        assert store.stats()["view_cache"]["hits"] == 1

    def test_ingest_invalidates_cached_views(self):
        store = _counter_store()
        store.ingest([{"value": 1}], [0.0])
        first = store.query(0.0, 1.0)
        store.ingest([{"value": 2}], [0.0])
        second = store.query(0.0, 1.0)
        assert second is not first
        assert second.n == 2 and first.n == 1

    def test_rollup_and_naive_views_cached_separately(self):
        store = _counter_store()
        store.ingest([{"value": i} for i in range(8)], [float(i) for i in range(8)])
        store.compact()
        fast = store.query(0.0, 8.0)
        naive = store.query(0.0, 8.0, use_rollups=False)
        assert fast is not naive
        assert fast.plan.fan_in < naive.plan.fan_in

    def test_view_capacity_zero_disables_cache(self):
        store = _counter_store(view_capacity=0)
        store.ingest([{"value": 1}], [0.0])
        assert store.query(0.0, 1.0) is not store.query(0.0, 1.0)


class TestQueryResult:
    def test_member_access_and_metadata(self):
        store = _counter_store(width=10.0)
        store.ingest([{"value": i} for i in range(5)], [float(i * 7) for i in range(5)])
        result = store.query(0.0, 30.0)
        assert result["count"].n == result.n == 5
        assert "count" in result and "other" not in result
        assert result.key_range == (0.0, 30.0)
        assert set(result.members()) == {"count"}
        with pytest.raises(ParameterError, match="no store member"):
            result["other"]

    def test_empty_range_over_data_gap_yields_empty_summaries(self):
        store = _counter_store(width=1.0)
        store.ingest([{"value": 1}], [0.0])
        result = store.query(5.0, 6.0)
        assert result.n == 0
        assert result["count"].is_empty

    def test_invalid_range_rejected(self):
        store = _counter_store()
        store.ingest([{"value": 1}], [0.0])
        with pytest.raises(ParameterError, match="lo < hi"):
            store.query(3.0, 3.0)


COMPACT_EPOCHS = 12


def _filled_store() -> SegmentStore:
    store = SegmentStore(width=1.0)
    store.add_member("count", "exact_counter", field="value")
    store.add_member("hh", "misra_gries", field="value", k=8)
    gen = np.random.default_rng(21)
    records, keys = [], []
    for epoch in range(COMPACT_EPOCHS):
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


class TestCompact:
    def test_compact_is_incremental(self):
        store = _counter_store()
        store.ingest(
            [{"value": i} for i in range(64)], [float(i) for i in range(64)]
        )
        first = store.compact()
        assert first["rollups_built"] > 0
        # new epochs only rebuild the blocks they touch
        store.ingest([{"value": 99}], [64.0])
        second = store.compact()
        assert 0 < second["rollups_built"] < first["rollups_built"] + 2

    def test_compact_empty_store_is_noop(self):
        assert _counter_store().compact() == {
            "levels": 0,
            "rollups_built": 0,
            "merge_inputs": 0,
        }

    def test_total_loss_installs_nothing_and_recompact_recovers(self, monkeypatch):
        baseline = _filled_store()
        baseline.compact()
        store = _filled_store()
        monkeypatch.setattr(chain_module, "merged_segment", _failing_builder(0))
        with pytest.raises(RuntimeError, match="injected build failure"):
            store.compact()
        assert store.num_rollups == 0
        # queries still work off base segments, as if never compacted
        q_store = store.query(0.0, float(COMPACT_EPOCHS))
        q_base = baseline.query(0.0, float(COMPACT_EPOCHS))
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

    def test_fault_free_compact_reports_no_fault_keys(self):
        stats = _filled_store().compact()
        assert set(stats) == {"levels", "rollups_built", "merge_inputs"}


# ---------------------------------------------------------------------------
# Planner ≡ naive scan, for every registered type
# ---------------------------------------------------------------------------

EPOCHS = 64
QUERY = (5, 61)  # covers 56 epochs, mixing ragged edges and deep blocks

#: member name == registry name; (constructor kwargs, feed kind)
STORE_MEMBERS = {
    "ams_f2": ({"width": 8, "depth": 3, "seed": 1}, "ints"),
    "bloom_filter": ({"bits": 256, "hashes": 3, "seed": 1}, "ints"),
    "bottom_k_sample": ({"k": 20, "rng": 1}, "floats"),
    "conservative_count_min": ({"width": 64, "depth": 3, "seed": 1}, "ints"),
    "count_min": ({"width": 64, "depth": 3, "seed": 1}, "ints"),
    "count_sketch": ({"width": 64, "depth": 3, "seed": 1}, "ints"),
    "decayed_misra_gries": ({"k": 16, "half_life": 10.0}, "ints"),
    "dyadic_hierarchy": ({"k": 8, "bits": 8}, "ints"),
    "eps_approximation": ({"space": "intervals_1d", "s": 8, "rng": 1}, "floats"),
    "eps_kernel": ({"epsilon": 0.2}, "points"),
    "exact_counter": ({}, "ints"),
    "exact_quantiles": ({}, "floats"),
    "gk_quantiles": ({"epsilon": 0.05}, "floats"),
    "hybrid_quantiles": ({"epsilon": 0.15, "rng": 1}, "floats"),
    "hyperloglog": ({"p": 6, "seed": 1}, "ints"),
    "k_min_values": ({"k": 16, "seed": 1}, "ints"),
    "kll_quantiles": ({"k": 64, "rng": 1}, "floats"),
    "majority_vote": ({}, "ints"),
    "mergeable_quantiles": ({"s": 32, "rng": 1}, "floats"),
    "misra_gries": ({"k": 16}, "ints"),
    "moment_sketch": ({"k": 10}, "floats"),
    "mrl_quantiles": ({"s": 32}, "floats"),
    "space_saving": ({"k": 16}, "ints"),
}


def _windowed_members():
    """Derive a member entry for every ``windowed.<name>`` variant.

    Count-mode with no expiry window: the store's n-accounting stays
    exact, and the EH bucket structure (which legitimately differs
    between merge orders) is checked by the generic envelope check
    below instead of bit-for-bit.
    """
    from repro.windows import windowed_names

    derived = {}
    for name in windowed_names():
        base_kwargs, kind = STORE_MEMBERS[name.split(".", 1)[1]]
        derived[name] = (
            {"eps": 0.25, "granularity": 8, **base_kwargs},
            kind,
        )
    return derived


STORE_MEMBERS.update(_windowed_members())

#: associative merges: the roll-up tree must reproduce the naive scan's
#: state bit-for-bit (canonicalized: volatile seed stripped, KMV's
#: heap order sorted)
STATE_IDENTICAL = {
    "ams_f2",
    "bloom_filter",
    "count_min",
    "count_sketch",
    "eps_kernel",
    "exact_counter",
    "exact_quantiles",
    "hyperloglog",
    "k_min_values",
    "majority_vote",
}


def _canon(summary) -> str:
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "seed"}
        if isinstance(value, list):
            return sorted(
                (strip(v) for v in value),
                key=lambda x: json.dumps(x, sort_keys=True),
            )
        return value

    return json.dumps(strip(summary.to_dict()), sort_keys=True)


def _check_underestimating_hitters(rollup, naive, truth, bound):
    for item, count in truth.most_common(15):
        for summary in (rollup, naive):
            estimate = summary.estimate(item)
            assert estimate <= count + 1e-9
            assert count - estimate <= bound + 1e-9, (item, count, estimate)


#: per-type answer checks for types that are neither state-identical
#: nor covered by a bounded merge spec: check(rollup, naive, feeds)
def _check_bottom_k(rollup, naive, feeds):
    # merging keeps the k smallest *tags* of the union, so the tag
    # multiset is invariant to merge order; the attached values may
    # differ only on tag ties (every segment's member shares a seed,
    # so tie tags across segments are common)
    rollup_tags = sorted(e[0] for e in rollup.to_dict()["entries"])
    naive_tags = sorted(e[0] for e in naive.to_dict()["entries"])
    assert rollup_tags == naive_tags
    assert len(rollup_tags) == 20


def _check_conservative_cm(rollup, naive, feeds):
    truth = Counter(v for feed in feeds for v in feed)
    n = sum(truth.values())
    for item, count in truth.most_common(15):
        for summary in (rollup, naive):
            estimate = summary.estimate(item)
            assert estimate >= count  # CM never underestimates
            assert estimate - count <= n / 8


def _check_decayed_mg(rollup, naive, feeds):
    truth = Counter(v for feed in feeds for v in feed)
    n = sum(truth.values())
    assert abs(rollup.decayed_total - naive.decayed_total) <= 1e-6 * n
    _check_underestimating_hitters(rollup, naive, truth, n / (16 + 1))


def _check_dyadic(rollup, naive, feeds):
    truth = Counter(v for feed in feeds for v in feed)
    n = sum(truth.values())
    _check_underestimating_hitters(rollup, naive, truth, n / (8 + 1))


def _check_eps_approximation(rollup, naive, feeds):
    data = np.sort(np.concatenate([np.asarray(f) for f in feeds]))
    n = len(data)
    for lo, hi in ((0.2, 0.7), (0.0, 0.5), (0.4, 1.0)):
        true = float(((data >= lo) & (data < hi)).sum())
        for summary in (rollup, naive):
            assert abs(summary.count((lo, hi)) - true) <= 0.35 * n + 1


def _check_moment_sketch(rollup, naive, feeds):
    # power sums are float adds: associative up to rounding, so the two
    # merge orders agree to float tolerance rather than bit-for-bit
    data = np.sort(np.concatenate([np.asarray(f) for f in feeds]))
    n = len(data)
    assert rollup.n == naive.n == n
    for i in range(1, 11):
        a, b = rollup.moment(i), naive.moment(i)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), i
    for q in (0.1, 0.5, 0.9):
        true_rank = q * (n - 1)
        for summary in (rollup, naive):
            estimate = summary.quantile(q)
            rank = np.searchsorted(data, estimate)
            assert abs(rank - true_rank) <= 0.05 * n + 1, (q, estimate)


def _check_windowed(name):
    """Generic equivalence check for a ``windowed.<base>`` member.

    The EH bucket layout legitimately depends on merge order (the
    cascade fires at different points along the roll-up tree vs the
    naive chain), so the check is semantic: both answers must satisfy
    the (1+eps) window-count envelope against the *true* trailing count
    (count mode: the last W of n unit-weight items is exactly W), and
    the full-window merged content must match per the base type's own
    classification — bit-for-bit for associative bases, error-bounded
    for bounded bases.  Custom-check bases (decay timelines, float
    accumulation orders) are covered by the envelope alone: their
    content checks assume one ingest order, which bucketing re-chunks.
    """
    base = name.split(".", 1)[1]

    def check(rollup, naive, feeds):
        n = rollup.n
        eps = rollup.eps
        for frac in (0.25, 0.5, 1.0):
            w = max(1, int(frac * n))
            for summary in (rollup, naive):
                bounds = summary.window_count_bounds(window=w)
                assert bounds.lower <= w <= bounds.upper
                assert (
                    bounds.upper - bounds.lower
                    <= 2 * eps * bounds.upper + summary.granularity
                )
        merged_rollup = rollup.window_query().summary
        merged_naive = naive.window_query().summary
        assert merged_rollup.n == merged_naive.n == n
        if base in STATE_IDENTICAL:
            assert _canon(merged_rollup) == _canon(merged_naive)
        elif base in MERGE_SPECS and MERGE_SPECS[base].mode == "bounded":
            MERGE_SPECS[base].check(merged_naive, merged_rollup, feeds)

    return check


CUSTOM_CHECKS = {
    "bottom_k_sample": _check_bottom_k,
    "conservative_count_min": _check_conservative_cm,
    "decayed_misra_gries": _check_decayed_mg,
    "dyadic_hierarchy": _check_dyadic,
    "eps_approximation": _check_eps_approximation,
    "moment_sketch": _check_moment_sketch,
}
CUSTOM_CHECKS.update(
    {
        name: _check_windowed(name)
        for name in STORE_MEMBERS
        if name.startswith("windowed.")
    }
)


def test_every_registered_type_is_classified():
    classified = (
        set(STORE_MEMBERS)
        | set(SKIPPED_TYPES)  # same skips (and reasons) as the merge suite
    )
    missing = set(registered_names()) - classified
    assert not missing, f"store equivalence misses registered types: {missing}"
    for name in STORE_MEMBERS:
        covered = (
            name in STATE_IDENTICAL
            or name in CUSTOM_CHECKS
            or (name in MERGE_SPECS and MERGE_SPECS[name].mode == "bounded")
        )
        assert covered, f"{name} has no equivalence check"


@pytest.fixture(scope="module")
def populated():
    """One store holding every registered type, plus the per-epoch feeds."""
    store = SegmentStore(width=1.0)
    for name, (kwargs, _kind) in sorted(STORE_MEMBERS.items()):
        store.add_member(name, name, field=_kind_field(name), **kwargs)
    feeds = {"ints": [], "floats": [], "points": []}
    records, keys = [], []
    for epoch in range(EPOCHS):
        rng = np.random.default_rng(900 + epoch)
        ints = rng.integers(0, 50, size=160).tolist()
        floats = rng.random(160).tolist()
        points = list(rng.random((24, 2)))
        feeds["ints"].append(ints)
        feeds["floats"].append(floats)
        feeds["points"].append(points)
        for i in range(160):
            record = {"ints": ints[i], "floats": floats[i]}
            if i < 24:
                record["points"] = points[i]
            records.append(record)
            keys.append(float(epoch))
    store.ingest(records, keys)
    store.compact()
    return store, feeds


def _kind_field(name: str) -> str:
    return STORE_MEMBERS[name][1]


@pytest.fixture(scope="module")
def answers(populated):
    store, feeds = populated
    lo, hi = QUERY
    rollup = store.query(float(lo), float(hi))
    naive = store.query(float(lo), float(hi), use_rollups=False)
    return store, feeds, rollup, naive


def test_planner_fan_in_is_logarithmic(answers):
    _store, _feeds, rollup, naive = answers
    lo, hi = QUERY
    assert naive.plan.fan_in == hi - lo == 56
    assert rollup.plan.fan_in <= fan_in_bound(hi - lo) == 14
    assert rollup.plan.rollup_nodes >= 1
    assert rollup.plan.base_covered == naive.plan.fan_in


@pytest.mark.parametrize("name", sorted(STORE_MEMBERS))
def test_rollup_answers_match_naive_scan(answers, name):
    _store, feeds, rollup_result, naive_result = answers
    rollup, naive = rollup_result[name], naive_result[name]
    assert rollup.n == naive.n
    lo, hi = QUERY
    covered = feeds[_kind_field(name)][lo:hi]
    if name in STATE_IDENTICAL:
        assert _canon(rollup) == _canon(naive)
    elif name in CUSTOM_CHECKS:
        CUSTOM_CHECKS[name](rollup, naive, covered)
    else:
        spec = MERGE_SPECS[name]
        assert spec.mode == "bounded"
        spec.check(naive, rollup, covered)
