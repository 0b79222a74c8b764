"""Unit tests for the KLL sketch (modern descendant of Section 3.2)."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core import EmptySummaryError, MergeError, ParameterError, decode_summary, merge_all
from repro.quantiles import ExactQuantiles, KLLQuantiles, MergeableQuantiles
from repro.workloads import value_stream


class TestConstruction:
    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            KLLQuantiles(4)

    def test_from_epsilon_validates(self):
        with pytest.raises(ParameterError):
            KLLQuantiles.from_epsilon(0)
        with pytest.raises(ParameterError):
            KLLQuantiles.from_epsilon(0.1, delta=2)


class TestStructure:
    def test_small_stream_exact(self):
        kll = KLLQuantiles(64, rng=1).extend([3.0, 1.0, 2.0])
        assert kll.rank(2.0) == 2.0
        assert kll.quantile(0.0) == 1.0

    def test_size_bounded_independent_of_n(self):
        sizes = []
        for exponent in (12, 14, 16):
            data = value_stream(2**exponent, "uniform", rng=exponent)
            kll = KLLQuantiles(128, rng=1).extend(data)
            sizes.append(kll.size())
        # total capacity is ~ k / (1 - 2/3) = 3k; growth must be tiny
        assert all(size <= 3 * 128 + 64 for size in sizes)
        assert sizes[2] <= sizes[0] * 1.5

    def test_weight_conserved(self):
        data = value_stream(10_000, "uniform", rng=2)
        kll = KLLQuantiles(64, rng=3).extend(data)
        total = sum(
            (2**level) * len(buf) for level, buf in enumerate(kll._levels)
        )
        assert total == kll.n == len(data)

    def test_levels_grow_logarithmically(self):
        data = value_stream(2**15, "uniform", rng=4)
        kll = KLLQuantiles(64, rng=5).extend(data)
        assert kll.num_levels() <= 18


class TestAccuracy:
    def test_sequential_rank_error(self):
        eps = 0.02
        data = value_stream(2**15, "uniform", rng=6)
        n = len(data)
        kll = KLLQuantiles.from_epsilon(eps, rng=7).extend(data)
        exact = ExactQuantiles().extend(data)
        for x in np.quantile(data, np.linspace(0.02, 0.98, 49)):
            assert abs(kll.rank(x) - exact.rank(x)) <= eps * n

    @pytest.mark.parametrize("strategy", ["chain", "tree", "random"])
    def test_merged_rank_error_any_topology(self, strategy):
        eps = 0.05
        data = value_stream(2**14, "uniform", rng=8)
        n = len(data)
        shards = np.array_split(np.sort(data), 32)
        parts = [
            KLLQuantiles.from_epsilon(eps, rng=100 + i).extend(s)
            for i, s in enumerate(shards)
        ]
        rng = 9 if strategy == "random" else None
        merged = merge_all(parts, strategy=strategy, rng=rng)
        assert merged.n == n
        exact = ExactQuantiles().extend(data)
        for x in np.quantile(data, np.linspace(0.05, 0.95, 19)):
            assert abs(merged.rank(x) - exact.rank(x)) <= eps * n

    def test_quantile_returns_data_value(self):
        data = value_stream(5_000, "lognormal", rng=10)
        kll = KLLQuantiles(64, rng=11).extend(data)
        values = set(float(v) for v in data)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert kll.quantile(q) in values

    def test_much_smaller_than_section32_at_same_eps(self):
        eps = 0.01
        data = value_stream(2**16, "uniform", rng=12)
        kll = KLLQuantiles.from_epsilon(eps, rng=13).extend(data)
        mq = MergeableQuantiles.from_epsilon(eps, rng=14).extend(data)
        assert kll.size() < mq.size() / 2


class TestMergeEdge:
    def test_k_mismatch_refused(self):
        with pytest.raises(MergeError):
            KLLQuantiles(64).merge(KLLQuantiles(128))

    def test_merge_with_empty(self):
        kll = KLLQuantiles(64, rng=1).extend([1.0])
        kll.merge(KLLQuantiles(64, rng=2))
        assert kll.n == 1

    def test_empty_quantile_raises(self):
        with pytest.raises(EmptySummaryError):
            KLLQuantiles(64).quantile(0.5)

    def test_serialization_roundtrip(self):
        from repro.core import dumps, loads

        kll = KLLQuantiles(64, rng=1).extend(value_stream(2_000, "uniform", rng=3))
        restored = loads(dumps(kll))
        assert restored.rank(0.5) == kll.rank(0.5)
        assert restored.size() == kll.size()

    def test_copy_draws_the_round_trip_seed(self):
        # copy() makes the one RNG draw to_dict() makes and seeds the
        # clone as from_dict() does, so a copied segment's coin stream
        # (and the source's) is the one a state round trip leaves
        values = value_stream(2_000, "uniform", rng=5)
        a = KLLQuantiles(64, rng=7).extend(values)
        b = KLLQuantiles(64, rng=7).extend(values)
        operand = KLLQuantiles(64, rng=8).extend(value_stream(1_000, "normal", rng=6))
        copied = a.copy().merge(operand)
        round_tripped = KLLQuantiles.from_dict(b.to_dict()).merge(operand)
        assert copied.to_dict() == round_tripped.to_dict()
        assert a.to_dict() == b.to_dict()


class TestLazyGenerator:
    """The coin generator is built on first use; every seed contract holds."""

    @staticmethod
    def _drive(sketch):
        # a batch, a compacting merge_many, then a copy and a snapshot
        sketch.update_batch(value_stream(500, "uniform", rng=3))
        operands = [
            KLLQuantiles(64, rng=10 + i).extend(value_stream(300, "normal", rng=20 + i))
            for i in range(3)
        ]
        steps = sketch._compress_steps
        sketch.merge_many(operands)
        assert sketch._compress_steps > steps and sketch.size() < sketch.n
        copy = sketch.copy()
        return sketch.to_dict(), copy.to_dict()

    @pytest.mark.parametrize(
        "seed, make_rng",
        [
            (7, lambda: np.random.default_rng(7)),
            (7, lambda: np.int64(7)),
            (1, lambda: True),
        ],
        ids=["generator", "numpy-int", "bool"],
    )
    def test_seed_forms_draw_the_int_seeds_coins(self, seed, make_rng):
        expected = self._drive(KLLQuantiles(64, rng=seed))
        assert self._drive(KLLQuantiles(64, rng=make_rng())) == expected

    def test_copies_of_a_fresh_sketch_do_not_share_a_generator(self):
        fresh = KLLQuantiles(64).extend(value_stream(16, "uniform", rng=1))
        a, b = fresh.copy(), fresh.copy()
        operand = KLLQuantiles(64, rng=2).extend(value_stream(1_000, "normal", rng=3))
        a.merge(operand)
        b.merge(operand)
        assert a.size() < a.n and b.size() < b.n  # both flipped coins
        assert a._rng is not b._rng

    def test_fresh_copies_build_no_generator(self, monkeypatch):
        fresh = KLLQuantiles(64).extend(value_stream(16, "uniform", rng=1))
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *args: built.append(args) or default_rng(*args)
        )
        clone = fresh.copy().copy()
        assert clone.to_dict()["levels"] == fresh.to_dict()["levels"]
        assert built == []  # a base cell that never compacts flips no coin

    def test_fresh_snapshot_carries_a_replayable_seed(self):
        payload = KLLQuantiles(64).extend(value_stream(16, "uniform", rng=1)).to_dict()
        assert type(payload["seed"]) is int and 0 <= payload["seed"] < 2**63 - 1
        values = value_stream(2_000, "uniform", rng=4)
        first = KLLQuantiles.from_dict(payload).extend(values)
        second = KLLQuantiles.from_dict(payload).extend(values)
        assert first.to_dict() == second.to_dict()

    def test_bad_seeds_fail_at_construction_and_decode(self):
        with pytest.raises(ValueError):
            KLLQuantiles(64, rng=-1)
        with pytest.raises(TypeError):
            KLLQuantiles(64, rng="x")
        with pytest.raises(TypeError):
            KLLQuantiles(64, rng=1.5)
        payload = KLLQuantiles(64, rng=1).extend([1.0, 2.0]).to_dict()
        payload["seed"] = -1
        with pytest.raises(ValueError):
            KLLQuantiles.from_dict(payload)


class TestImpossibleStates:
    """A decoded state must be one some sketch can hold."""

    @staticmethod
    def _weight(payload):
        return sum(len(buffer) << level for level, buffer in enumerate(payload["levels"]))

    def test_reachable_states_keep_n_equal_to_the_level_weight(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            sketch = KLLQuantiles(8 + trial % 24, rng=trial)
            sketch.update_batch(rng.random(int(rng.integers(0, 400))))
            sketch.update_batch(rng.random(7), weights=rng.integers(1, 1_000, size=7))
            sketch.update(0.5, weight=int(rng.integers(1, 2**20)))
            other = KLLQuantiles(sketch.k, rng=trial + 100).extend(rng.random(300))
            merged = merge_all([sketch, other])
            for candidate in (sketch, merged):
                payload = candidate.to_dict()
                assert payload["n"] == self._weight(payload)
                assert KLLQuantiles.from_dict(payload).n == candidate.n

    @pytest.mark.parametrize(
        "edit",
        [
            {"n": -5, "levels": [[1.0]]},
            {"n": 2, "levels": [[1.0]]},
            {"n": 0, "levels": [[1.0]]},
            {"n": 2, "levels": [[1.0], [2.0]]},
            {"n": 1.0, "levels": [[1.0]]},
            {"n": True, "levels": [[1.0]]},
            {"n": "1", "levels": [[1.0]]},
            {"n": 1, "levels": []},
        ],
    )
    def test_impossible_states_raise(self, edit):
        payload = {"k": 200, "n": 0, "levels": [[]], "seed": 1}
        payload.update(edit)
        with pytest.raises(ParameterError):
            KLLQuantiles.from_dict(payload)

    @pytest.mark.parametrize("fold", ["merge", "merge_many"])
    def test_empty_operand_with_extra_levels_changes_nothing(self, fold):
        # n keys the cached view, so a merge that leaves n alone must
        # leave the levels alone too, whatever levels the operand lists
        sketch = KLLQuantiles(20, rng=4).extend(np.random.default_rng(9).random(500))
        view = sketch.quantiles([0.1, 0.5, 0.9])
        levels = [list(buffer) for buffer in sketch._levels]
        empty = KLLQuantiles.from_dict({"k": 20, "n": 0, "levels": [[]] * 12, "seed": 3})
        if fold == "merge":
            sketch.merge(empty)
        else:
            sketch.merge_many([empty, empty])
        assert sketch.n == 500
        assert sketch._levels == levels
        sketch.invalidate_view()
        assert sketch.quantiles([0.1, 0.5, 0.9]) == view

    def test_negative_n_is_rejected_through_the_codec(self):
        state = {"k": 200, "n": -5, "levels": [[1.0]], "seed": 1}
        canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
        payload = json.dumps(
            {"format": 2, "type": "kll_quantiles", "state": state,
             "checksum": zlib.crc32(canonical.encode("utf-8"))},
            separators=(",", ":"),
        )
        with pytest.raises(ParameterError):
            decode_summary(payload)
