"""E24: segmented-store benchmarks — ingest, planner fan-in, query latency.

Measures the three layers added by the segment-store work:

1. keyed ingest throughput into a multi-member store (records/s) and
   the incremental cost of ``compact()``;
2. planner fan-in vs the naive scan across range widths — deterministic
   merge counts, checked against the ``2*ceil(log2 E) + 2`` bound;
3. range-query latency: pre-merged roll-ups vs naive one-merge-per-
   segment scan vs the warm LRU view cache;
4. codec payload sizes for one populated segment (json.v2 vs binary.v1).

Standalone (no pytest-benchmark), writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_store.py --quick --out BENCH_store.json

CI regression gate — compares machine-independent ratios (fan-in
reduction, rollup/cache speedups, codec compression) against the
checked-in snapshot and exits non-zero past a 2x regression::

    PYTHONPATH=src python benchmarks/bench_store.py --quick \
        --out BENCH_store.json --check benchmarks/BENCH_store_snapshot.json
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from harness import add_gate_args, best_of, finish
from repro.core import encode_summary
from repro.store import SegmentStore, fan_in_bound
from repro.workloads import value_stream, zipf_stream


def _records(n_items: int):
    items = zipf_stream(n_items, alpha=1.2, universe=5_000, rng=1)
    values = value_stream(n_items, "uniform", rng=2)
    records = [
        {"item": int(item), "value": float(value)}
        for item, value in zip(items, values)
    ]
    keys = [float(i) for i in range(n_items)]
    return records, keys


def _build_store(records, keys, epochs: int, view_capacity: int = 8) -> SegmentStore:
    store = SegmentStore(width=len(records) / epochs, view_capacity=view_capacity)
    store.add_member("hot", "misra_gries", field="item", k=64)
    store.add_member("latency", "kll_quantiles", field="value", k=128, rng=1)
    store.ingest(records, keys)
    return store


# ---------------------------------------------------------------------------
# section 1: ingest + compact throughput
# ---------------------------------------------------------------------------

def bench_ingest(n_items: int, epochs: int, repeats: int) -> dict:
    records, keys = _records(n_items)
    ingest_seconds = best_of(lambda: _build_store(records, keys, epochs), repeats)
    store = _build_store(records, keys, epochs)
    compact_seconds = best_of(store.compact, 1)  # first call does the work
    stats = store.stats()
    return {
        "n_records": int(n_items),
        "epochs": int(epochs),
        "ingest_seconds": ingest_seconds,
        "records_per_second": n_items / ingest_seconds,
        "compact_seconds": compact_seconds,
        "rollups_built": int(stats["rollups"]),
    }


# ---------------------------------------------------------------------------
# section 2: planner fan-in vs naive (deterministic)
# ---------------------------------------------------------------------------

def bench_planner(n_items: int, epochs: int) -> list:
    records, keys = _records(n_items)
    store = _build_store(records, keys, epochs)
    store.compact()
    width = store.width
    rows = []
    for span in (epochs // 8, epochs // 4, epochs // 2, epochs - 2):
        lo_epoch = 1
        lo, hi = lo_epoch * width, (lo_epoch + span) * width
        plan = store.plan(lo, hi)
        naive = store.plan(lo, hi, use_rollups=False)
        bound = fan_in_bound(span)
        assert plan.fan_in <= bound, (plan.fan_in, bound)
        rows.append(
            {
                "epochs_covered": int(span),
                "planner_merges": int(plan.fan_in),
                "naive_merges": int(naive.fan_in),
                "bound": int(bound),
                "reduction": naive.fan_in / plan.fan_in,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# section 3: query latency — roll-ups vs naive vs warm cache
# ---------------------------------------------------------------------------

def bench_query(n_items: int, epochs: int, repeats: int) -> dict:
    records, keys = _records(n_items)
    store = _build_store(records, keys, epochs, view_capacity=8)
    store.compact()
    width = store.width
    lo, hi = 1 * width, (epochs - 1) * width

    def cold_rollup():
        store._views.clear()
        store.query(lo, hi)

    def cold_naive():
        store._views.clear()
        store.query(lo, hi, use_rollups=False)

    rollup_seconds = best_of(cold_rollup, repeats)
    naive_seconds = best_of(cold_naive, repeats)
    store.query(lo, hi)  # materialize the cached view
    warm_seconds = best_of(lambda: store.query(lo, hi), max(repeats, 3))
    return {
        "epochs_covered": int(epochs - 2),
        "naive_seconds": naive_seconds,
        "rollup_seconds": rollup_seconds,
        "warm_seconds": warm_seconds,
        "rollup_speedup": naive_seconds / rollup_seconds,
        "cache_speedup": rollup_seconds / warm_seconds,
    }


# ---------------------------------------------------------------------------
# section 4: segment codec payload sizes (deterministic)
# ---------------------------------------------------------------------------

def bench_codecs(n_items: int, epochs: int) -> dict:
    records, keys = _records(n_items)
    store = _build_store(records, keys, epochs)
    segment = store.segments()[0]
    sizes = {}
    for codec in ("json.v2", "binary.v1"):
        total = 0
        for summary in segment.members.values():
            payload = encode_summary(summary, codec=codec)
            total += len(payload.encode("utf-8") if isinstance(payload, str) else payload)
        sizes[codec] = total
    return {
        "segment_records": int(segment.count),
        "json_v2_bytes": int(sizes["json.v2"]),
        "binary_v1_bytes": int(sizes["binary.v1"]),
        "compression_ratio": sizes["json.v2"] / sizes["binary.v1"],
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_report(args) -> dict:
    return {
        "experiment": "E24-segment-store",
        "quick": bool(args.quick),
        "n_items": int(args.items),
        "epochs": int(args.epochs),
        "repeats": int(args.repeats),
        "sections": {
            "ingest": bench_ingest(args.items, args.epochs, args.repeats),
            "planner": bench_planner(args.items, args.epochs),
            "query": bench_query(args.items, args.epochs, args.repeats),
            "codecs": bench_codecs(args.items, args.epochs),
        },
    }


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent ratios gated against the snapshot."""
    sections = report["sections"]
    reductions = [row["reduction"] for row in sections["planner"]]
    return {
        "planner_reduction_gmean": float(math.exp(np.mean(np.log(reductions)))),
        "rollup_speedup": sections["query"]["rollup_speedup"],
        "cache_speedup": sections["query"]["cache_speedup"],
        "codec_compression_ratio": sections["codecs"]["compression_ratio"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="segment-store benchmarks (E24)")
    parser.add_argument("--items", type=int, default=2**17)
    parser.add_argument("--epochs", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="small streams, one repeat (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_store.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.items, args.epochs, args.repeats = 2**14, 64, 1

    report = run_report(args)
    ingest = report["sections"]["ingest"]
    print(
        f"ingest: {ingest['n_records']} records into {ingest['epochs']} epochs "
        f"in {ingest['ingest_seconds']*1e3:.1f} ms "
        f"({ingest['records_per_second']:,.0f} rec/s); "
        f"compact built {ingest['rollups_built']} roll-ups "
        f"in {ingest['compact_seconds']*1e3:.1f} ms"
    )
    for row in report["sections"]["planner"]:
        print(
            f"planner: {row['epochs_covered']:>4} epochs -> "
            f"{row['planner_merges']:>2} merges (bound {row['bound']:>2}) "
            f"vs naive {row['naive_merges']:>4}  ({row['reduction']:5.1f}x fewer)"
        )
    query = report["sections"]["query"]
    print(
        f"query: naive {query['naive_seconds']*1e3:8.2f} ms  "
        f"rollup {query['rollup_seconds']*1e3:8.2f} ms "
        f"({query['rollup_speedup']:5.2f}x)  "
        f"warm {query['warm_seconds']*1e6:8.1f} us "
        f"({query['cache_speedup']:,.0f}x)"
    )
    codecs = report["sections"]["codecs"]
    print(
        f"codecs: one segment json.v2 {codecs['json_v2_bytes']} B vs "
        f"binary.v1 {codecs['binary_v1_bytes']} B "
        f"({codecs['compression_ratio']:.2f}x smaller)"
    )
    return finish(report, args, _smoke_metrics)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
