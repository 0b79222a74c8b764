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
HyperLogLog's sparse stored form, by the number of set registers.

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
