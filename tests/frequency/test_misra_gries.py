"""Unit tests for the Misra-Gries summary."""

from __future__ import annotations

import json
import math
import zlib

import numpy as np
import pytest

from repro.core import (
    MergeError,
    ParameterError,
    ReproError,
    decode_summary,
    encode_summary,
    merge_all,
)
from repro.frequency import MisraGries
from repro.workloads import chunk_evenly, zipf_stream


class TestConstruction:
    def test_invalid_k_raises(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ParameterError):
                MisraGries(bad)

    def test_from_epsilon_picks_ceil_inverse(self):
        assert MisraGries.from_epsilon(0.1).k == 10
        assert MisraGries.from_epsilon(0.3).k == 4

    def test_from_epsilon_validates(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                MisraGries.from_epsilon(bad)


class TestStreaming:
    def test_small_stream_is_exact(self):
        mg = MisraGries(10).extend([1, 1, 2, 3, 3, 3])
        assert mg.counters() == {1: 2, 2: 1, 3: 3}
        assert mg.deduction == 0
        assert mg.n == 6

    def test_never_exceeds_k_counters(self):
        mg = MisraGries(5).extend(range(100))
        assert mg.size() <= 5

    def test_decrement_on_overflow(self):
        # k=2, stream 1,2,3: the 3 evicts both singletons
        mg = MisraGries(2).extend([1, 2, 3])
        assert mg.deduction == 1
        assert mg.estimate(1) == 0
        assert mg.estimate(3) == 0  # 3 died absorbing the decrement

    def test_heavy_item_survives_churn(self):
        stream = [0] * 50 + list(range(1, 51))
        mg = MisraGries(4).extend(stream)
        assert mg.estimate(0) > 0
        assert 0 in mg

    def test_estimates_never_overestimate(self, zipf_items, zipf_truth):
        mg = MisraGries(16).extend(zipf_items)
        for item, estimate in mg.counters().items():
            assert estimate <= zipf_truth[item]

    def test_error_within_bound(self, zipf_items, zipf_truth):
        mg = MisraGries(16).extend(zipf_items)
        bound = len(zipf_items) / (16 + 1)
        assert mg.deduction <= bound
        for item, count in zipf_truth.items():
            assert count - mg.estimate(item) <= bound

    def test_upper_lower_bounds_bracket_truth(self, zipf_items, zipf_truth):
        mg = MisraGries(16).extend(zipf_items)
        for item in list(zipf_truth)[:200]:
            assert mg.lower_bound(item) <= zipf_truth[item] <= mg.upper_bound(item)

    def test_weighted_update_equals_repeated(self):
        a = MisraGries(3)
        a.update("x", weight=5)
        a.update("y", weight=2)
        b = MisraGries(3).extend(["x"] * 5 + ["y"] * 2)
        assert a.counters() == b.counters()

    def test_invalid_weight_raises(self):
        with pytest.raises(ParameterError):
            MisraGries(3).update("x", weight=0)
        with pytest.raises(ParameterError):
            MisraGries(3).update("x", weight=-2)

    def test_mass_invariant_maintained(self, zipf_items):
        # (k+1) * deduction <= n - stored_mass: the induction the paper's
        # merge proof rests on.
        mg = MisraGries(8).extend(zipf_items)
        stored = sum(mg.counters().values())
        assert (mg.k + 1) * mg.deduction <= mg.n - stored

    def test_contains(self):
        mg = MisraGries(4).extend([1, 1, 2])
        assert 1 in mg
        assert 99 not in mg

    def test_heap_compaction_keeps_memory_bounded(self):
        mg = MisraGries(4)
        for i in range(10_000):
            mg.update(i % 3)  # constant touches of monitored items
        assert len(mg._heap) <= 8 * mg.k + 17

    @pytest.mark.parametrize("origin", ["from_dict", "merge_many", "copy"])
    def test_lazily_built_heap_matches_eager_twin(self, origin):
        # decodes, merges and copies leave the heap unbuilt; the twin
        # builds it straight away, as every state replacement once did
        k = 8
        parts = [
            MisraGries(k).extend(zipf_stream(400, 1.1, universe=300, rng=seed))
            for seed in (1, 2, 3)
        ]
        lazy = {
            "from_dict": lambda: MisraGries.from_dict(parts[0].to_dict()),
            "merge_many": lambda: MisraGries(k).merge_many(parts),
            "copy": lambda: parts[0].copy(),
        }[origin]()
        eager = MisraGries.from_dict(lazy.to_dict())
        eager._live_heap()
        assert lazy._heap is None
        # touch one stored counter while the heap is unbuilt, then evict
        # the rest with items the summary has never seen
        stored = next(iter(lazy.counters()))
        stream = (zipf_stream(600, 0.8, universe=200, rng=9) + 1000).tolist()
        weights = [1 + i % 4 for i in range(300)]
        for mg in (lazy, eager):
            mg.update(stored, 3)
            for item in stream[:300]:
                mg.update(item)
            mg.update_batch(stream[300:], weights)
        assert lazy.to_dict() == eager.to_dict()
        assert lazy.deduction == eager.deduction
        assert (k + 1) * lazy.deduction <= lazy.n - sum(lazy.counters().values())


class TestMerge:
    def test_merge_small_summaries_exact(self):
        a = MisraGries(10).extend([1, 1, 2])
        b = MisraGries(10).extend([2, 3])
        a.merge(b)
        assert a.counters() == {1: 2, 2: 2, 3: 1}
        assert a.deduction == 0

    def test_paper_worked_example_frequent(self):
        """The k=5 Frequent example (combine + prune with the paper rule).

        Input summaries {2:4, 3:11, 4:22, 5:33} and {7:10, 8:20, 9:30,
        10:45}* merge to {4:2, 9:10, 5:13, 10:20} after subtracting the
        5th-largest combined value (20).  (*counter 10 has 40 after
        combining in the worked table; we use 40 directly.)
        """
        a = MisraGries(4)
        a._replace_state({2: 4, 3: 11, 4: 22, 5: 33}, n=70, deduction=0)
        b = MisraGries(4)
        b._replace_state({7: 10, 8: 20, 9: 30, 10: 40}, n=100, deduction=0)
        a.merge(b)
        assert a.counters() == {4: 2, 9: 10, 5: 13, 10: 20}
        assert a.deduction == 20

    def test_merge_error_bound_over_random_trees(self, zipf_items, zipf_truth):
        n = len(zipf_items)
        k = 24
        shards = chunk_evenly(zipf_stream(n, rng=7), 16)
        for seed in range(3):
            parts = [MisraGries(k).extend(s.tolist()) for s in shards]
            merged = merge_all(parts, strategy="random", rng=seed)
            assert merged.n == n
            assert merged.size() <= k
            assert merged.deduction <= n / (k + 1)

    def test_merge_keeps_mass_invariant(self, zipf_items):
        k = 8
        shards = chunk_evenly(zipf_stream(4000, rng=3), 8)
        parts = [MisraGries(k).extend(s.tolist()) for s in shards]
        merged = merge_all(parts, strategy="chain")
        stored = sum(merged.counters().values())
        assert (k + 1) * merged.deduction <= merged.n - stored

    def test_merge_is_weight_order_insensitive_in_guarantee(self):
        heavy = MisraGries(4).extend([1] * 100)
        light = MisraGries(4).extend([2])
        heavy.merge(light)
        assert heavy.estimate(1) >= 100 - heavy.deduction

    def test_k_mismatch_raises(self):
        with pytest.raises(MergeError, match="k mismatch"):
            MisraGries(4).merge(MisraGries(5))

    def test_prune_rule_mismatch_raises(self):
        with pytest.raises(MergeError, match="prune rule mismatch"):
            MisraGries(4).merge(MisraGries(4, prune_rule="cafaro"))


class TestHeavyHitters:
    def test_no_false_negatives(self, zipf_items, zipf_truth):
        mg = MisraGries(32).extend(zipf_items)
        phi = 0.05
        threshold = phi * len(zipf_items)
        reported = mg.heavy_hitters(phi)
        for item, count in zipf_truth.items():
            if count >= threshold:
                assert item in reported

    def test_reported_items_have_sufficient_upper_bound(self):
        mg = MisraGries(8).extend([1] * 50 + [2] * 5 + list(range(100, 140)))
        reported = mg.heavy_hitters(0.4)
        assert 1 in reported
        assert 2 not in reported

    def test_invalid_phi_raises(self):
        mg = MisraGries(4).extend([1])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                mg.heavy_hitters(bad)


def _json_v2(state):
    """A ``json.v2`` Misra-Gries payload with a valid CRC over ``state``."""
    canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
    return json.dumps(
        {"format": 2, "type": "misra_gries", "state": state,
         "checksum": zlib.crc32(canonical.encode("utf-8"))},
        separators=(",", ":"),
    )


#: name -> summary; every item type JSON carries as a scalar, in an
#: order no sort would give
COLUMN_CASES = {
    "empty": lambda: MisraGries(4),
    "strings": lambda: MisraGries(8).extend(["pear", "apple", "fig", "apple", "kiwi"]),
    "ints": lambda: MisraGries(8).extend([30, 2, 17, 2, 9, 30, 30]),
    "floats": lambda: MisraGries(8).extend([2.5, -1.0, 0.125, 2.5]),
    "mixed": lambda: MisraGries(8).extend(["b", 3, 1.5, None, True, "a", 3]),
    "decremented": lambda: MisraGries(4).extend(
        zipf_stream(2_000, 1.1, universe=300, rng=3).tolist()
    ),
    "weighted-floats": lambda: _weighted(MisraGries(4), [("a", 2.5), ("b", 1), ("a", 0.25)]),
    "numpy-items": lambda: _weighted(
        MisraGries(8), [(np.int64(4), 1), (np.int64(7), 2), (np.float64(0.5), 1)]
    ),
}


def _weighted(summary, pairs):
    for item, weight in pairs:
        summary.update(item, weight)
    return summary


class TestCounterColumns:
    @pytest.mark.parametrize("case", sorted(COLUMN_CASES))
    def test_columns_follow_counters_order(self, case):
        summary = COLUMN_CASES[case]()
        stored = summary.to_stored()
        assert sorted(stored) == ["counts", "deduction", "items", "k", "n", "prune_rule"]
        counters = summary.counters()
        assert stored["items"] == list(counters) and stored["counts"] == list(counters.values())
        assert all(type(item) is not np.int64 for item in stored["items"])

    @pytest.mark.parametrize("case", sorted(COLUMN_CASES))
    def test_round_trip_keeps_counters_and_their_order(self, case):
        summary = COLUMN_CASES[case]()
        logical = summary.to_dict()
        for codec in ("json.v1", "json.v2", "binary.v1"):
            payload = encode_summary(summary, codec)
            if isinstance(payload, str):
                assert '"items"' in payload and '"counters"' not in payload
            restored = decode_summary(payload)
            assert list(restored.counters().items()) == list(summary.counters().items())
            assert restored.to_dict() == logical
            assert (restored.n, restored.deduction) == (summary.n, summary.deduction)
        assert MisraGries.from_dict(summary.to_stored()).to_dict() == logical

    def test_pairs_still_load(self):
        summary = COLUMN_CASES["decremented"]()
        logical = summary.to_dict()
        assert MisraGries.from_dict(logical).to_dict() == logical
        assert decode_summary(_json_v2(logical)).to_dict() == logical

    @pytest.mark.parametrize("rule", ["paper", "cafaro"])
    def test_reachable_states_load_in_both_forms(self, rule):
        rng = np.random.default_rng(11)
        for trial in range(30):
            k = int(rng.integers(1, 12))
            parts = [
                MisraGries(k, rule).extend(rng.zipf(1.3, int(rng.integers(0, 300))).tolist())
                for _ in range(4)
            ]
            parts[0].update(int(rng.integers(0, 5)), int(rng.integers(1, 50)))
            merged = merge_all(parts[:2])
            merged.merge_many(parts[2:])
            for summary in parts + [merged]:
                for state in (summary.to_dict(), summary.to_stored()):
                    assert MisraGries.from_dict(state).to_dict() == summary.to_dict()


def _both_forms(items, counts, **state):
    """The same counters as pairs and as columns, in two payloads."""
    base = {"k": 4, "prune_rule": "paper", "n": 100, "deduction": 0}
    base.update(state)
    pairs = dict(base, counters=[[item, count] for item, count in zip(items, counts)])
    columns = dict(base, items=list(items), counts=list(counts))
    return [pairs, columns]


#: name -> (items, counts, other state); each is a state no summary reaches
UNREACHABLE = {
    "zero-count": (["a", "b"], [3, 0], {}),
    "negative-count": (["a", "b"], [3, -2], {}),
    "nan-count": (["a", "b"], [3.0, math.nan], {}),
    "nan-count-first": (["a", "b"], [math.nan, 3.0], {}),
    "string-count": (["a"], ["3"], {}),
    "bool-count": (["a"], [True], {}),
    "null-count": (["a"], [None], {}),
    "duplicate-item": (["a", "b", "a"], [3, 2, 1], {}),
    "duplicate-int-and-float": ([1, 1.0], [3, 2], {}),
    "more-than-k": (["a", "b", "c", "d", "e"], [1, 1, 1, 1, 1], {}),
    "string-n": (["a"], [3], {"n": "100"}),
    "bool-n": ([], [], {"n": True}),
    "nan-n": (["a"], [3.0], {"n": math.nan}),
    "negative-n": ([], [], {"n": -1}),
    "string-deduction": (["a"], [3], {"deduction": "2"}),
    "negative-deduction": (["a"], [3], {"deduction": -1}),
    "mass-above-n": (["a", "b"], [60, 50], {}),
    "mass-and-deduction-above-n": (["a", "b"], [40, 30], {"deduction": 7}),
}


class TestUnreachableStates:
    @pytest.mark.parametrize("form", ["pairs", "columns"])
    @pytest.mark.parametrize("case", sorted(UNREACHABLE))
    def test_refused_in_both_forms(self, case, form):
        items, counts, state = UNREACHABLE[case]
        payload = _both_forms(items, counts, **state)[form == "columns"]
        with pytest.raises(ParameterError):
            MisraGries.from_dict(payload)
        with pytest.raises(ReproError):
            decode_summary(_json_v2(payload))

    def test_the_invariant_bound_itself_loads(self):
        # (k+1) * deduction + stored mass == n: what updates and prunes keep
        for payload in _both_forms(["a", "b"], [40, 25], deduction=7):
            assert MisraGries.from_dict(payload).estimate("a") == 40

    def test_float_counts_stay_legal(self):
        summary = COLUMN_CASES["weighted-floats"]()
        for payload in _both_forms(["a", "b"], [2.75, 1], n=3.75):
            assert MisraGries.from_dict(payload).estimate("a") == 2.75
        assert decode_summary(encode_summary(summary)).counters() == summary.counters()

    @pytest.mark.parametrize(
        "edit",
        [{"items": ["a", "b"], "counts": [3]}, {"items": ["a"]}, {"counts": [3]},
         {"items": "ab", "counts": [1, 2]}, {"items": ["a"], "counts": {"a": 1}}],
        ids=["lengths-differ", "items-only", "counts-only", "items-str", "counts-object"],
    )
    def test_malformed_columns_are_refused(self, edit):
        payload = {"k": 4, "prune_rule": "paper", "n": 10, "deduction": 0}
        payload.update(edit)
        with pytest.raises(ReproError):
            decode_summary(_json_v2(payload))

    def test_columns_of_different_lengths_are_a_parameter_error(self):
        payload = _both_forms(["a", "b"], [3, 2])[1]
        payload["counts"] = [3]
        with pytest.raises(ParameterError, match="differ in length"):
            MisraGries.from_dict(payload)

    def test_both_forms_together_are_refused(self):
        pairs, columns = _both_forms(["a"], [3])
        with pytest.raises(ParameterError, match="not both"):
            MisraGries.from_dict(dict(columns, counters=pairs["counters"]))
        with pytest.raises(ParameterError, match="not both"):
            decode_summary(_json_v2(dict(columns, counters=pairs["counters"])))
