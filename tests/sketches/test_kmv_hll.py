"""Unit tests for the distinct-count sketches (KMV, HyperLogLog)."""

from __future__ import annotations

import base64
import json
import math
import random
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
from repro.core.hashing import hash_batch
from repro.sketches import HyperLogLog, KMinValues, hyperloglog
from repro.sketches.hyperloglog import _bit_length_u64


@pytest.fixture(scope="module")
def big_stream():
    rng = np.random.default_rng(1)
    items = rng.integers(0, 30_000, size=150_000).tolist()
    return items, len(set(items))


class TestKMinValues:
    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            KMinValues(1)

    def test_small_cardinality_exact(self):
        kmv = KMinValues(64, seed=1).extend([1, 2, 3, 2, 1])
        assert kmv.distinct() == 3
        assert kmv.n == 5

    def test_duplicates_dont_grow_the_sketch(self):
        kmv = KMinValues(64, seed=1).extend([7] * 1000)
        assert kmv.size() == 1
        assert kmv.distinct() == 1

    def test_estimate_within_relative_error(self, big_stream):
        items, true_d = big_stream
        kmv = KMinValues(1024, seed=2).extend(items)
        assert abs(kmv.distinct() - true_d) / true_d <= 5 * kmv.relative_error

    def test_merge_is_lossless(self, big_stream):
        """Merged KMV state equals the sequentially built state exactly."""
        items, _ = big_stream
        sequential = KMinValues(512, seed=3).extend(items)
        parts = [KMinValues(512, seed=3).extend(items[i::8]) for i in range(8)]
        merged = merge_all(parts, strategy="random", rng=4)
        assert merged.to_dict()["values"] == sequential.to_dict()["values"]
        assert merged.n == sequential.n

    def test_idempotent_merge(self):
        """Merging a sketch with a copy of itself changes nothing
        (distinct counting is a lattice, not a sum)."""
        from repro.core import dumps, loads

        kmv = KMinValues(64, seed=5).extend(range(1000))
        clone = loads(dumps(kmv))
        before = kmv.distinct()
        kmv.merge(clone)
        assert kmv.distinct() == before

    def test_seed_mismatch_refused(self):
        with pytest.raises(MergeError):
            KMinValues(64, seed=1).merge(KMinValues(64, seed=2))

    def test_k_mismatch_refused(self):
        with pytest.raises(MergeError):
            KMinValues(64).merge(KMinValues(128))

    def test_size_bounded_by_k(self):
        kmv = KMinValues(32, seed=1).extend(range(10_000))
        assert kmv.size() == 32


class TestHyperLogLog:
    def test_invalid_precision(self):
        for bad in (3, 19):
            with pytest.raises(ParameterError):
                HyperLogLog(p=bad)

    def test_small_range_linear_counting(self):
        hll = HyperLogLog(p=10, seed=1).extend(range(100))
        assert abs(hll.distinct() - 100) <= 10

    def test_estimate_within_relative_error(self, big_stream):
        items, true_d = big_stream
        hll = HyperLogLog(p=12, seed=2).extend(items)
        assert abs(hll.distinct() - true_d) / true_d <= 5 * hll.relative_error

    def test_merge_is_lossless(self, big_stream):
        items, _ = big_stream
        sequential = HyperLogLog(p=10, seed=3).extend(items)
        parts = [HyperLogLog(p=10, seed=3).extend(items[i::6]) for i in range(6)]
        merged = merge_all(parts, strategy="chain")
        assert (merged._registers == sequential._registers).all()

    def test_idempotent_merge(self):
        from repro.core import dumps, loads

        hll = HyperLogLog(p=8, seed=4).extend(range(5_000))
        before = hll.distinct()
        hll.merge(loads(dumps(hll)))
        assert hll.distinct() == before

    def test_precision_mismatch_refused(self):
        with pytest.raises(MergeError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=12, seed=1))

    def test_seed_mismatch_refused(self):
        with pytest.raises(MergeError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=10, seed=2))

    def test_size_is_register_count(self):
        assert HyperLogLog(p=8).size() == 256

    @pytest.mark.parametrize("n", [0, 2, -1, 3.0, True])
    def test_n_below_the_occupied_registers_is_rejected(self, n):
        # every non-zero register took at least one item; with a smaller
        # n, merging the sketch would move the estimate without moving n
        payload = HyperLogLog(p=4).extend(["a", "b", "c"]).to_dict()
        payload["registers"] = base64.b64encode(bytes([3] * 16)).decode("ascii")
        payload["n"] = n
        with pytest.raises(ParameterError, match="non-zero registers"):
            HyperLogLog.from_dict(payload)
        payload["n"] = 16
        assert HyperLogLog.from_dict(payload).n == 16

    def test_weight_affects_n_not_distinct(self):
        hll = HyperLogLog(p=8, seed=5)
        hll.update("x", weight=100)
        assert hll.n == 100
        assert abs(hll.distinct() - 1) <= 1


class TestRankKernel:
    """The batch rank kernel is exact where float64 rounding would bite."""

    def test_bit_length_matches_int_at_the_edges(self):
        # float64 holds integers exactly only up to 2**53: converting the
        # whole word rounds 2**64 - 1 up to 2**64, one bit too long
        edges = [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1]
        lengths = _bit_length_u64(np.array(edges, dtype=np.uint64))
        assert lengths.tolist() == [v.bit_length() for v in edges]

    def test_bit_length_matches_int_at_every_width(self):
        rng = random.Random(13)
        values = [0] + [
            (1 << (width - 1)) | rng.getrandbits(width - 1)
            for width in range(1, 65)
            for _ in range(32)
        ]
        lengths = _bit_length_u64(np.array(values, dtype=np.uint64))
        assert lengths.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("p", [4, 18])
    @pytest.mark.parametrize("kind", ["ints", "negative-ints", "strings"])
    def test_batch_matches_per_item(self, p, kind):
        raw = np.random.default_rng(17).integers(0, 2**62, size=40_000).tolist()
        items = {
            "ints": raw,
            "negative-ints": [-v for v in raw],
            "strings": [f"user-{v}" for v in raw],  # the BLAKE2b path
        }[kind]
        if p == 18:  # some ranks come from the low 32-bit half
            assert (hash_batch(items, seed=9) >> np.uint64(p) < 2**32).any()
        batched = HyperLogLog(p=p, seed=9)
        batched.update_batch(items)
        looped = HyperLogLog(p=p, seed=9)
        for item in items:
            looped.update(item)
        assert np.array_equal(batched._registers, looped._registers)


#: kind -> items(rng, size): every item family the hash handles
BATTERY_KINDS = {
    "small-ints": lambda rng, size: rng.integers(0, 100, size).tolist(),
    "negative-ints": lambda rng, size: (-rng.integers(1, 2**62, size)).tolist(),
    # at and past 2**63: the BLAKE2b path, not the splitmix lane
    "huge-ints": lambda rng, size: [
        2**63 + v for v in rng.integers(0, 2**62, size).tolist()
    ],
    "int64-array": lambda rng, size: rng.integers(-(2**62), 2**62, size, dtype=np.int64),
    "uint64-array": lambda rng, size: rng.integers(
        0, 2**64 - 1, size, dtype=np.uint64, endpoint=True
    ),
    "bools": lambda rng, size: (rng.random(size) < 0.5).tolist(),
    "floats": lambda rng, size: rng.normal(size=size).tolist(),
    "strs": lambda rng, size: [f"user-{v}" for v in rng.integers(0, 10**6, size).tolist()],
    "bytes": lambda rng, size: [b"k%d" % v for v in rng.integers(0, 10**6, size).tolist()],
    "tuples": lambda rng, size: [
        (a, f"s{b}") for a, b in rng.integers(0, 50, (size, 2)).tolist()
    ],
    "mixed": lambda rng, size: [
        (v, -v, 2**64 + v, float(v) / 3, f"s{v}", b"b%d" % v, (v, "t"), v % 2 == 0,
         np.int64(v))[i % 9]
        for i, v in enumerate(rng.integers(0, 10**6, size).tolist())
    ],
}


class TestBatchBattery:
    """``update_batch`` equals a per-item ``update`` loop at every batch
    size from 1 to 64, so on both sides of the small-batch crossover."""

    def test_sizes_span_the_crossover(self):
        assert 1 < hyperloglog._SMALL_BATCH <= 64

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("kind", sorted(BATTERY_KINDS))
    def test_batch_matches_per_item_updates(self, kind, weighted):
        rng = np.random.default_rng(sorted(BATTERY_KINDS).index(kind))
        for p in (4, 10):
            for size in range(1, 65):
                items = BATTERY_KINDS[kind](rng, size)
                weights = rng.integers(1, 5, size).tolist() if weighted else None
                batched = HyperLogLog(p=p, seed=size)
                batched.update_batch(items, weights)
                looped = HyperLogLog(p=p, seed=size)
                for index, item in enumerate(items):
                    looped.update(item, weights[index] if weighted else 1)
                assert np.array_equal(batched._registers, looped._registers), size
                assert batched.n == looped.n == (sum(weights) if weighted else size)
                assert batched.distinct().hex() == looped.distinct().hex()


def _per_register_estimate(hll: HyperLogLog) -> float:
    """The estimator summed register by register: the histogram's reference."""
    m = hll.m
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1.0 + 1.079 / m))
    estimate = alpha * m * m / np.sum(2.0 ** -hll._registers.astype(np.float64))
    zeros = int(np.count_nonzero(hll._registers == 0))
    if estimate <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return float(estimate)


class TestRankHistogramEstimate:
    """``distinct()`` from one rank histogram is bit-equal to the per-register sum."""

    @pytest.mark.parametrize("p", range(4, 19))
    def test_real_streams(self, p):
        rng = np.random.default_rng(100 + p)
        for size in (1, 50, 3_000, 200_000):
            hll = HyperLogLog(p=p, seed=p)
            hll.update_batch(rng.integers(0, 2**62, size=size).tolist())
            assert hll.distinct() == _per_register_estimate(hll)

    @pytest.mark.parametrize("p", range(4, 19))
    def test_all_zero_and_all_max_rank_registers(self, p):
        empty = HyperLogLog(p=p)
        assert empty.distinct() == _per_register_estimate(empty) == 0.0
        full = HyperLogLog(p=p)
        full._registers[:] = 65 - p  # the largest rank a register can hold
        assert full.distinct() == _per_register_estimate(full)


# ---------------------------------------------------------------------------
# The sparse stored form
# ---------------------------------------------------------------------------

#: p -> the fewest set registers at which the dense m-byte form is stored:
#: a sparse word takes 2 bytes at p <= 10 and 3 above, and the sparse form
#: is written only while it has fewer bytes than m
CROSSOVER = {4: 8, 10: 512, 11: 683, 14: 5462, 18: 87382}

CODECS = ("json.v1", "json.v2", "binary.v1")


def _filled(p: int, fill: int, seed: int = 0) -> HyperLogLog:
    """A sketch with ``fill`` set registers at random indices, every rank
    from 1 to 65 - p possible."""
    rng = np.random.default_rng([p, fill])
    sketch = HyperLogLog(p=p, seed=seed)
    index = rng.choice(sketch.m, size=fill, replace=False)
    sketch._registers[index] = rng.integers(1, 66 - p, size=fill)
    sketch._n = fill + 3
    return sketch


def _sparse_text(p: int, words) -> str:
    """Base64 of ``(index, rank)`` pairs as big-endian sparse words."""
    width = 2 if p <= 10 else 3
    raw = b"".join(((index << 6) | rank).to_bytes(width, "big") for index, rank in words)
    return base64.b64encode(raw).decode("ascii")


def _json_v2(state) -> str:
    """A ``json.v2`` HyperLogLog payload with a valid CRC over ``state``."""
    canonical = json.dumps(state, separators=(",", ":"), sort_keys=True)
    return json.dumps(
        {"format": 2, "type": "hyperloglog", "state": state,
         "checksum": zlib.crc32(canonical.encode("utf-8"))},
        separators=(",", ":"),
    )


class TestSparseStoredForm:
    def test_crossover_is_where_the_sparse_form_stops_being_shorter(self):
        for p, crossover in CROSSOVER.items():
            width = 2 if p <= 10 else 3
            assert (crossover - 1) * width < 1 << p <= crossover * width

    @pytest.mark.parametrize("p", sorted(CROSSOVER))
    def test_round_trip_at_every_fill(self, p):
        m, crossover = 1 << p, CROSSOVER[p]
        for fill in (0, 1, crossover - 1, crossover, crossover + 1, m):
            sketch = _filled(p, fill, seed=p)
            logical = sketch.to_dict()
            assert sorted(logical) == ["n", "p", "registers", "seed"]
            stored = sketch.to_stored()
            if fill < crossover:
                assert sorted(stored) == ["n", "p", "seed", "sparse"]
                set_registers = np.flatnonzero(sketch._registers).tolist()
                assert stored["sparse"] == _sparse_text(
                    p, [(i, int(sketch._registers[i])) for i in set_registers]
                )
            else:
                assert stored == logical
            for codec in CODECS:
                payload = encode_summary(sketch, codec)
                if isinstance(payload, str):
                    assert ('"sparse"' in payload) == (fill < crossover)
                restored = decode_summary(payload)
                assert np.array_equal(restored._registers, sketch._registers), (fill, codec)
                assert restored.n == sketch.n
                assert restored.distinct().hex() == sketch.distinct().hex()
                assert restored.to_dict() == logical
                # the decoded registers are the sketch's own, writable state
                restored.update("one more")
                restored.merge(sketch)

    def test_both_decoders_agree_on_either_side_of_the_loop_limit(self):
        for p in (4, 10, 11, 14):
            width = 2 if p <= 10 else 3
            limit = hyperloglog._SPARSE_LOOP_WORDS[width]
            for fill in (0, 1, limit, limit + 1, CROSSOVER[p] - 1):
                if fill >= CROSSOVER[p]:
                    continue
                sketch = _filled(p, fill)
                raw = base64.b64decode(sketch.to_stored()["sparse"])
                for decode in (hyperloglog._sparse_words_loop, hyperloglog._sparse_words_numpy):
                    assert np.array_equal(decode(raw, p), sketch._registers), (p, fill)
                assert np.array_equal(
                    HyperLogLog.from_dict(sketch.to_stored())._registers, sketch._registers
                )

    def test_store_round_trip_keeps_the_logical_state(self, tmp_path):
        from repro.store import CubeStore, load

        cube = CubeStore(width=1.0, dims=("region",), codec="json.v2")
        cube.add_member("users", "hyperloglog", field="user", p=10)
        cube.ingest(
            [{"user": i, "region": f"r{i % 3}"} for i in range(60)],
            [float(i // 10) for i in range(60)],
        )
        cube.compact(budget=10**6)
        cube.save(tmp_path / "cube")
        saved = b"".join(path.read_bytes() for path in (tmp_path / "cube").rglob("*.rpak"))
        assert b'"sparse"' in saved and b'"registers"' not in saved
        assert load(tmp_path / "cube").fingerprint() == cube.fingerprint()


def _sparse_payload(p, words, **extra):
    payload = {"p": p, "seed": 0, "n": max(len(words), 1), "sparse": _sparse_text(p, words)}
    payload.update(extra)
    return payload


#: name -> (p, (index, rank) words); each list is malformed at its end,
#: past index 200, so valid words can go before it
BAD_WORDS = {
    "index-at-m": (8, [(200, 1), (256, 1)]),
    "index-past-m-3-byte": (14, [(5000, 2), (1 << 14, 2)]),
    "index-repeated": (10, [(500, 1), (500, 2)]),
    "index-decreasing": (14, [(900, 1), (400, 1)]),
    "rank-zero": (10, [(300, 1), (301, 0)]),
    "rank-above-65-p": (10, [(300, 56)]),
    "rank-above-65-p-3-byte": (18, [(7000, 48)]),
}


class TestMalformedSparsePayloads:
    @pytest.mark.parametrize("decoder", ["loop", "numpy"])
    @pytest.mark.parametrize("case", sorted(BAD_WORDS))
    def test_bad_words_are_refused(self, case, decoder):
        p, words = BAD_WORDS[case]
        if decoder == "numpy":  # valid words first, past the loop limit
            limit = hyperloglog._SPARSE_LOOP_WORDS[2 if p <= 10 else 3]
            words = [(index, 1) for index in range(limit + 1)] + words
        payload = _sparse_payload(p, words)
        with pytest.raises(ParameterError, match="strictly increasing"):
            HyperLogLog.from_dict(payload)
        with pytest.raises(ParameterError, match="strictly increasing"):
            decode_summary(_json_v2(payload))

    @pytest.mark.parametrize("p, spare", [(10, 1), (14, 1), (14, 2)])
    def test_partial_word_is_refused(self, p, spare):
        raw = base64.b64decode(_sparse_text(p, [(1, 1), (2, 3)])) + b"\x01" * spare
        payload = {"p": p, "seed": 0, "n": 2, "sparse": base64.b64encode(raw).decode()}
        with pytest.raises(ParameterError, match="whole number"):
            HyperLogLog.from_dict(payload)

    def test_sparse_and_dense_together_are_refused(self):
        payload = _sparse_payload(10, [(1, 1)])
        payload["registers"] = HyperLogLog(p=10).to_dict()["registers"]
        with pytest.raises(ParameterError, match="not both"):
            HyperLogLog.from_dict(payload)
        with pytest.raises(ParameterError, match="not both"):
            decode_summary(_json_v2(payload))

    @pytest.mark.parametrize(
        "sparse", [["AAE="], 5, None, "AA!E", "ÅÅÅÅ"],
        ids=["list", "int", "null", "not-base64", "non-ascii"],
    )
    def test_sparse_that_is_not_base64_text_is_refused(self, sparse):
        payload = {"p": 10, "seed": 0, "n": 1, "sparse": sparse}
        with pytest.raises(ParameterError, match="sparse registers"):
            HyperLogLog.from_dict(payload)
        with pytest.raises(ReproError):
            decode_summary(_json_v2(payload))

    def test_n_below_the_listed_registers_is_refused(self):
        payload = _sparse_payload(10, [(1, 1), (2, 1), (3, 1)], n=2)
        with pytest.raises(ParameterError, match="non-zero registers"):
            HyperLogLog.from_dict(payload)
        payload["n"] = 3
        assert HyperLogLog.from_dict(payload).n == 3


class TestDenseStillLoads:
    @pytest.mark.parametrize("p", [4, 10, 14])
    def test_base64_and_int_list_payloads(self, p):
        sketch = _filled(p, CROSSOVER[p] // 2)
        dense = sketch.to_dict()
        legacy = dict(dense, registers=sketch._registers.tolist())
        for payload in (dense, legacy):
            restored = HyperLogLog.from_dict(payload)
            assert np.array_equal(restored._registers, sketch._registers)
            assert restored.to_dict() == dense
            assert restored.distinct().hex() == sketch.distinct().hex()
            assert np.array_equal(
                decode_summary(_json_v2(payload))._registers, sketch._registers
            )


class TestParametersAsWritten:
    @pytest.mark.parametrize(
        "edit",
        [{"seed": 3.5}, {"seed": 3.0}, {"seed": "3"}, {"seed": True},
         {"p": 10.0}, {"p": 10.5}, {"p": "10"}, {"p": True}],
        ids=["seed-float", "seed-integral-float", "seed-str", "seed-bool",
             "p-integral-float", "p-float", "p-str", "p-bool"],
    )
    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_p_and_seed_decode_as_written_or_not_at_all(self, edit, form):
        sketch = HyperLogLog(p=10, seed=3).extend(range(20))
        state = sketch.to_dict() if form == "dense" else sketch.to_stored()
        state.update(edit)
        with pytest.raises(ParameterError, match="must be an integer"):
            HyperLogLog.from_dict(state)
        with pytest.raises(ParameterError, match="must be an integer"):
            decode_summary(_json_v2(state))
