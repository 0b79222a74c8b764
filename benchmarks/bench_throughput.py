"""E11: update / merge / query throughput of every summary family.

Pure pytest-benchmark timings at fixed, representative parameters;
this is the operational cost table a practitioner reads before
deploying, and the regression guard for the implementations' amortized
complexity claims (MG updates are O(log k) amortized, kernel updates
O(1/sqrt(eps)), etc.).

The batched-ingestion section compares per-item ``update`` loops against
the vectorized ``update_batch`` fast paths, on whole streams and, in the
batch-size sweep, at 1 to 64 items per call: store cells hold a few
records each, and numpy's per-call set-up decides which side wins there.
The sparse-decode sweep does the same for the two decoders of
HyperLogLog's sparse stored form, by the number of set registers.  The
stored-form sweep prices the KLL and Misra-Gries stored forms against
the text forms they replaced: encode and decode time and payload bytes
under ``json.v2`` and ``binary.v1``.

Run:  pytest benchmarks/bench_throughput.py --benchmark-only

Standalone (no pytest-benchmark needed), writes a JSON trajectory
artifact for CI::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --out BENCH_throughput.json
"""

from __future__ import annotations

import argparse
import base64
import copy
import json
import struct
import sys

import numpy as np
import pytest

from harness import best_of, paired_best
from repro import (
    BottomKSample,
    CountMin,
    EpsApproximation,
    EpsKernel,
    GKQuantiles,
    HyperLogLog,
    KLLQuantiles,
    MergeableQuantiles,
    MisraGries,
    SpaceSaving,
)
from repro.core import decode_summary, encode_summary
from repro.quantiles import kll
from repro.sketches import hyperloglog
from repro.workloads import value_stream, zipf_stream

N_ITEMS = 2**15
ITEMS = zipf_stream(N_ITEMS, alpha=1.2, universe=20_000, rng=1).tolist()
ITEMS_ARRAY = np.asarray(ITEMS, dtype=np.int64)
VALUES = value_stream(N_ITEMS, "uniform", rng=2)
POINTS = np.random.default_rng(3).random((2**13, 2))


# ---------------------------------------------------------------------------
# update throughput
# ---------------------------------------------------------------------------

def test_update_misra_gries(benchmark):
    benchmark(lambda: MisraGries(256).extend(ITEMS))


def test_update_space_saving(benchmark):
    benchmark(lambda: SpaceSaving(256).extend(ITEMS))


def test_update_count_min(benchmark):
    small = ITEMS[: 2**12]
    benchmark(lambda: CountMin(512, 4, seed=1).extend(small))


def test_update_gk(benchmark):
    benchmark(lambda: GKQuantiles(0.01).extend(VALUES))


def test_update_mergeable_quantiles(benchmark):
    benchmark(lambda: MergeableQuantiles(256, rng=4).extend(VALUES))


def test_update_bottom_k(benchmark):
    benchmark(lambda: BottomKSample(1_000, rng=5).extend(VALUES))


def test_update_eps_kernel_bulk(benchmark):
    benchmark(lambda: EpsKernel(0.01).extend_points(POINTS))


def test_update_eps_approximation(benchmark):
    benchmark(
        lambda: EpsApproximation("rectangles_2d", s=128, rng=6).extend_points(POINTS)
    )


# ---------------------------------------------------------------------------
# batched ingestion: per-item update loop vs update_batch fast path
# ---------------------------------------------------------------------------

#: name -> (factory, stream) pairs timed by the JSON artifact and the
#: pytest-benchmark entries below
BATCH_CASES = {
    "hyperloglog": (lambda: HyperLogLog(p=12, seed=1), ITEMS_ARRAY),
    "count_min": (lambda: CountMin(512, 4, seed=1), ITEMS_ARRAY),
    "kll_quantiles": (lambda: KLLQuantiles(k=200, rng=4), VALUES),
    "misra_gries": (lambda: MisraGries(256), ITEMS_ARRAY),
    "mergeable_quantiles": (lambda: MergeableQuantiles(256, rng=4), VALUES),
}


def _per_item_ingest(factory, stream):
    summary = factory()
    update = summary.update
    for item in stream:
        update(item)
    return summary


def _batched_ingest(factory, stream):
    summary = factory()
    summary.update_batch(stream)
    return summary


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_ingest_per_item(benchmark, name):
    factory, stream = BATCH_CASES[name]
    benchmark(_per_item_ingest, factory, stream)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_ingest_batched(benchmark, name):
    factory, stream = BATCH_CASES[name]
    benchmark(_batched_ingest, factory, stream)


def run_batch_trajectory(n_items: int, repeats: int = 3) -> dict:
    """Time per-item vs batched ingestion; return the E11 artifact dict."""
    items = zipf_stream(n_items, alpha=1.2, universe=20_000, rng=1)
    values = value_stream(n_items, "uniform", rng=2)
    cases = {
        "hyperloglog": (lambda: HyperLogLog(p=12, seed=1), items),
        "count_min": (lambda: CountMin(512, 4, seed=1), items),
        "count_sketch": (
            lambda: __import__("repro").CountSketch(512, 5, seed=1),
            items,
        ),
        "kll_quantiles": (lambda: KLLQuantiles(k=200, rng=4), values),
        "misra_gries": (lambda: MisraGries(256), items),
        "space_saving": (lambda: SpaceSaving(256), items),
        "mergeable_quantiles": (lambda: MergeableQuantiles(256, rng=4), values),
        "bottom_k_sample": (lambda: BottomKSample(1_000, rng=5), values),
    }
    trajectory = []
    for name, (factory, stream) in cases.items():
        per_item = best_of(lambda: _per_item_ingest(factory, stream), repeats)
        batched = best_of(lambda: _batched_ingest(factory, stream), repeats)
        trajectory.append(
            {
                "summary": name,
                "n_items": int(n_items),
                "per_item_seconds": per_item,
                "batched_seconds": batched,
                "per_item_items_per_sec": n_items / per_item,
                "batched_items_per_sec": n_items / batched,
                "speedup": per_item / batched,
            }
        )
    return {
        "experiment": "E11-batched-ingestion",
        "n_items": int(n_items),
        "repeats": int(repeats),
        "trajectory": trajectory,
        "batch_size_sweep": run_batch_size_sweep(n_items, repeats),
        "sparse_decode_sweep": run_sparse_decode_sweep(repeats),
        "stored_form_sweep": run_stored_form_sweep(repeats),
        "packed_level_sweep": run_packed_level_sweep(repeats),
    }


#: items per ``update_batch`` call in the sweep
SWEEP_SIZES = (1, 2, 4, 8, 16, 32, 64)


def run_batch_size_sweep(n_items: int, repeats: int = 3) -> list:
    """Per-call time of ``update_batch`` against the per-item loop, by size.

    Both sides fold the same stream, cut into calls of ``size`` items,
    into one summary (ungated; the store's cells are the small sizes).
    """
    items = zipf_stream(n_items, alpha=1.2, universe=20_000, rng=1).tolist()
    values = value_stream(n_items, "uniform", rng=2).tolist()
    cases = {
        "hyperloglog": (lambda: HyperLogLog(p=10, seed=1), items),
        "kll_quantiles": (lambda: KLLQuantiles(k=200, rng=4), values),
        "misra_gries": (lambda: MisraGries(256), items),
    }
    rows = []
    for name, (factory, stream) in cases.items():
        for size in SWEEP_SIZES:
            chunks = [stream[i : i + size] for i in range(0, len(stream) - size + 1, size)]

            def batched():
                summary = factory()
                for chunk in chunks:
                    summary.update_batch(chunk)

            def per_item():
                summary = factory()
                update = summary.update
                for chunk in chunks:
                    for item in chunk:
                        update(item)

            batched_s, per_item_s = paired_best(batched, per_item, repeats)
            rows.append(
                {
                    "summary": name,
                    "batch_size": size,
                    "calls": len(chunks),
                    "batched_us_per_call": batched_s / len(chunks) * 1e6,
                    "per_item_us_per_call": per_item_s / len(chunks) * 1e6,
                    "speedup": per_item_s / batched_s,
                }
            )
    return rows


#: set registers per sparse HyperLogLog payload in the decode sweep
SPARSE_SWEEP_WORDS = (1, 8, 16, 32, 48, 56, 64, 80, 96, 112, 128, 256, 511, 2048, 5461)
#: decodes per timed sample: one decode takes 1 to 500 µs
SPARSE_SWEEP_CALLS = 50


def run_sparse_decode_sweep(repeats: int = 3) -> list:
    """Per-payload time of the two sparse HyperLogLog decoders, by word count.

    Both decode the same payload, at ``p = 10`` (2-byte words) and
    ``p = 14`` (3-byte words), up to the most words the sparse form holds
    at that ``p``; ``hyperloglog._SPARSE_LOOP_WORDS`` holds the crossover
    per word width (ungated; a ``cube_groupby`` cell sets a few to a few
    hundred registers).
    """
    rng = np.random.default_rng(5)
    rows = []
    for p in (10, 14):
        m, width = 1 << p, hyperloglog._word_bytes(p)
        for words in SPARSE_SWEEP_WORDS:
            if words * width >= m:
                continue
            sketch = HyperLogLog(p=p, seed=1)
            ranks = np.minimum(rng.geometric(0.5, words), 65 - p)
            sketch._registers[rng.choice(m, words, replace=False)] = ranks
            raw = base64.b64decode(sketch.to_stored()["sparse"])

            def loop():
                for _ in range(SPARSE_SWEEP_CALLS):
                    hyperloglog._sparse_words_loop(raw, p)

            def vectorized():
                for _ in range(SPARSE_SWEEP_CALLS):
                    hyperloglog._sparse_words_numpy(raw, p)

            loop_s, numpy_s = paired_best(loop, vectorized, repeats)
            rows.append(
                {
                    "p": p,
                    "words": words,
                    "loop_us": loop_s / SPARSE_SWEEP_CALLS * 1e6,
                    "numpy_us": numpy_s / SPARSE_SWEEP_CALLS * 1e6,
                    "loop_decodes": words <= hyperloglog._SPARSE_LOOP_WORDS[width],
                }
            )
    return rows


#: samples in the one KLL level of each stored-form sweep payload
STORED_SWEEP_SAMPLES = (1, 8, 64, 512)
#: Misra-Gries ``k`` (and so counters held) per stored-form sweep payload
STORED_SWEEP_COUNTERS = (16, 256)
#: encodes or decodes per timed sample
STORED_SWEEP_CALLS = 50


def _text_form(summary):
    """A copy of ``summary`` the codecs write in its text form, ``to_dict()``."""
    text = copy.deepcopy(summary)
    text.to_stored = text.to_dict
    return text


def _stored_form_cases():
    """``(type name, data, size, summary)`` for every stored-form sweep payload."""
    rng = np.random.default_rng(7)
    for samples in STORED_SWEEP_SAMPLES:
        data = {
            "lognormal": rng.lognormal(3.0, 1.0, samples),  # latencies
            "small-int": rng.integers(0, 100, samples).astype(np.float64),
        }
        for name, values in data.items():
            state = {"k": 200, "n": samples, "levels": [values.tolist()], "seed": 1}
            yield "kll_quantiles", name, samples, KLLQuantiles.from_dict(state)
    for k in STORED_SWEEP_COUNTERS:
        stream = zipf_stream(50 * k, alpha=1.2, universe=20_000, rng=k).tolist()
        yield "misra_gries", "zipf", k, MisraGries(k).extend(stream)


def run_stored_form_sweep(repeats: int = 3) -> list:
    """Encode and decode time and payload bytes, text form vs stored form.

    KLL's text form writes each sample as JSON float text, its stored
    form one base64 string of float64s per level; Misra-Gries's text
    form writes ``[item, count]`` pairs, its stored form two columns.
    Small integers are the text form's best case: ``3.0`` takes 3
    characters, a packed sample 10.67 (ungated).
    """
    rows = []
    for name, data, size, summary in _stored_form_cases():
        forms = {"text": _text_form(summary), "stored": summary}
        for codec in ("json.v2", "binary.v1"):
            payloads = {form: encode_summary(s, codec) for form, s in forms.items()}

            def encoder(summary):
                def encode():
                    for _ in range(STORED_SWEEP_CALLS):
                        encode_summary(summary, codec)
                return encode

            def decoder(payload):
                def decode():
                    for _ in range(STORED_SWEEP_CALLS):
                        decode_summary(payload)
                return decode

            encode_s = paired_best(encoder(forms["text"]), encoder(summary), repeats)
            decode_s = paired_best(
                decoder(payloads["text"]), decoder(payloads["stored"]), repeats
            )
            row = {"summary": name, "data": data, "size": size, "codec": codec}
            for side, form in enumerate(("text", "stored")):
                row[f"{form}_encode_us"] = encode_s[side] / STORED_SWEEP_CALLS * 1e6
                row[f"{form}_decode_us"] = decode_s[side] / STORED_SWEEP_CALLS * 1e6
                row[f"{form}_bytes"] = len(payloads[form])
            rows.append(row)
    return rows


def run_packed_level_sweep(repeats: int = 3) -> list:
    """Per-level time to pack and to unpack a KLL level, ``struct`` vs numpy.

    ``kll._pack_level`` packs with ``struct.pack``, and
    ``kll._packed_level`` unpacks with ``struct.unpack``; the
    alternatives build and read a float64 array.  Both sides include
    the base64 step.  numpy packs no faster at one sample and slower
    from 8, and unpacks faster only from about 64 samples, by under a
    tenth, so each direction has one path and no crossover constant
    (ungated).
    """
    rng = np.random.default_rng(8)
    float64 = np.dtype("<f8")
    rows = []
    for samples in STORED_SWEEP_SAMPLES:
        level = rng.lognormal(3.0, 1.0, samples).tolist()
        text = kll._pack_level(level)

        def pack_struct():
            for _ in range(STORED_SWEEP_CALLS):
                kll._pack_level(level)

        def pack_numpy():
            for _ in range(STORED_SWEEP_CALLS):
                base64.b64encode(np.array(level, float64).tobytes()).decode("ascii")

        def unpack_struct():
            for _ in range(STORED_SWEEP_CALLS):
                raw = base64.b64decode(text, validate=True)
                list(struct.unpack(f"<{len(raw) // 8}d", raw))

        def unpack_numpy():
            for _ in range(STORED_SWEEP_CALLS):
                np.frombuffer(base64.b64decode(text, validate=True), float64).tolist()

        pack = paired_best(pack_struct, pack_numpy, repeats)
        unpack = paired_best(unpack_struct, unpack_numpy, repeats)
        rows.append(
            {
                "samples": samples,
                "pack_struct_us": pack[0] / STORED_SWEEP_CALLS * 1e6,
                "pack_numpy_us": pack[1] / STORED_SWEEP_CALLS * 1e6,
                "unpack_struct_us": unpack[0] / STORED_SWEEP_CALLS * 1e6,
                "unpack_numpy_us": unpack[1] / STORED_SWEEP_CALLS * 1e6,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="per-item vs batched ingestion throughput"
    )
    parser.add_argument("--items", type=int, default=N_ITEMS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small stream, one repeat (CI smoke run)",
    )
    parser.add_argument("--out", default="BENCH_throughput.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.items, args.repeats = 2**12, 1
    report = run_batch_trajectory(args.items, args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["trajectory"]:
        print(
            f"{row['summary']:>22}: per-item {row['per_item_seconds']*1e3:8.1f} ms"
            f"  batched {row['batched_seconds']*1e3:8.1f} ms"
            f"  speedup {row['speedup']:6.1f}x"
        )
    for row in report["batch_size_sweep"]:
        print(
            f"{row['summary']:>22} x{row['batch_size']:<3d}: per-item "
            f"{row['per_item_us_per_call']:8.1f} us  batched "
            f"{row['batched_us_per_call']:8.1f} us  speedup {row['speedup']:6.2f}x"
        )
    for row in report["sparse_decode_sweep"]:
        print(
            f"{'hll sparse p=%d' % row['p']:>22} x{row['words']:<4d}: loop "
            f"{row['loop_us']:8.1f} us  numpy {row['numpy_us']:8.1f} us"
            f"{'  (loop decodes)' if row['loop_decodes'] else ''}"
        )
    for row in report["stored_form_sweep"]:
        print(
            f"{row['summary'] + ' ' + row['data']:>22} x{row['size']:<4d}"
            f"{row['codec']:>10}: text {row['text_encode_us']:6.1f}/"
            f"{row['text_decode_us']:6.1f} us {row['text_bytes']:6d} B  stored "
            f"{row['stored_encode_us']:6.1f}/{row['stored_decode_us']:6.1f} us "
            f"{row['stored_bytes']:6d} B"
        )
    for row in report["packed_level_sweep"]:
        print(
            f"{'kll packed level':>22} x{row['samples']:<4d}: pack struct "
            f"{row['pack_struct_us']:6.2f} / numpy {row['pack_numpy_us']:6.2f} us  "
            f"unpack struct {row['unpack_struct_us']:6.2f} / numpy "
            f"{row['unpack_numpy_us']:6.2f} us"
        )
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# merge throughput
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mg_pair():
    a = MisraGries(256).extend(ITEMS[: N_ITEMS // 2])
    b = MisraGries(256).extend(ITEMS[N_ITEMS // 2 :])
    return a, b


def test_merge_misra_gries(benchmark, mg_pair):
    a, b = mg_pair
    benchmark(lambda: copy.deepcopy(a).merge(b))


def test_merge_mergeable_quantiles(benchmark):
    a = MergeableQuantiles(256, rng=7).extend(VALUES[: N_ITEMS // 2])
    b = MergeableQuantiles(256, rng=8).extend(VALUES[N_ITEMS // 2 :])
    benchmark(lambda: copy.deepcopy(a).merge(b))


def test_merge_count_min(benchmark):
    a = CountMin(512, 4, seed=9).extend(ITEMS[: 2**12])
    b = CountMin(512, 4, seed=9).extend(ITEMS[2**12 : 2**13])
    benchmark(lambda: copy.deepcopy(a).merge(b))


def test_merge_eps_kernel(benchmark):
    a = EpsKernel(0.01).extend_points(POINTS[: len(POINTS) // 2])
    b = EpsKernel(0.01).extend_points(POINTS[len(POINTS) // 2 :])
    benchmark(lambda: copy.deepcopy(a).merge(b))


# ---------------------------------------------------------------------------
# query throughput
# ---------------------------------------------------------------------------

def test_query_mg_estimate(benchmark):
    mg = MisraGries(256).extend(ITEMS)
    benchmark(lambda: mg.estimate(0))


def test_query_quantile(benchmark):
    mq = MergeableQuantiles(256, rng=10).extend(VALUES)
    benchmark(lambda: mq.quantile(0.99))


def test_query_rank(benchmark):
    mq = MergeableQuantiles(256, rng=11).extend(VALUES)
    benchmark(lambda: mq.rank(0.5))


def test_query_serialization_roundtrip(benchmark):
    from repro.core import dumps, loads

    mg = MisraGries(256).extend(ITEMS)
    benchmark(lambda: loads(dumps(mg)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
