"""E27: sliding-window benchmarks — ingest overhead, query vs rebuild.

Measures what the exponential-histogram combinator costs on the write
path and buys on the read path:

1. ingest overhead: per-item update throughput of a windowed summary
   (bucket seals + cascade canonicalization amortized across the
   granule) vs the flat base summary;
2. window-query latency: merging the <= cap * log2(W) live bucket
   summaries vs naively rebuilding the window from the retained raw
   items, at ~2^10 live buckets (the acceptance point) — for the full
   stream and for a trailing quarter-window.

Standalone (no pytest-benchmark), writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_windows.py --quick --out BENCH_windows.json

CI regression gate — machine-independent ratios against the checked-in
snapshot (2x tolerance) plus the absolute acceptance floors (>= 2^10
live buckets, >= 10x query speedup over the naive rebuild)::

    PYTHONPATH=src python benchmarks/bench_windows.py --quick \
        --out BENCH_windows.json --check benchmarks/BENCH_windows_snapshot.json
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from harness import add_gate_args, finish, latencies
from repro.frequency import CountMin

UNIVERSE = 997

#: acceptance floors (ISSUE): enforced on every --check run, snapshot or
#: not — the histogram must actually be at the 2^10-bucket operating
#: point and the bucket merge must beat the from-scratch rebuild by 10x
FLOORS = {
    "live_buckets": 1024.0,
    "window_query_speedup": 10.0,
}


def _flat(depth: int) -> CountMin:
    return CountMin(64, depth, seed=1)


def _items(n: int) -> list:
    return [int(v) for v in np.arange(n) % UNIVERSE]


def bench_ingest(items: list, eps: float, granularity: int, depth: int):
    """Per-item update loops: windowed combinator vs the flat base.

    Returns the populated windowed summary so the query section reuses
    the (expensive) ingest instead of paying it twice.
    """
    win = _flat(depth).windowed(eps=eps, granularity=granularity)
    t0 = time.perf_counter()
    for item in items:
        win.update(item)
    windowed_seconds = time.perf_counter() - t0

    flat = _flat(depth)
    t0 = time.perf_counter()
    for item in items:
        flat.update(item)
    flat_seconds = time.perf_counter() - t0

    assert win.n == flat.n == len(items)
    row = {
        "items": len(items),
        "windowed_seconds": windowed_seconds,
        "flat_seconds": flat_seconds,
        "windowed_items_per_second": len(items) / windowed_seconds,
        "flat_items_per_second": len(items) / flat_seconds,
        # > 1.0 means the windowed path is slower; the EH promise is
        # that this stays a small constant, not a log factor
        "ingest_overhead": windowed_seconds / flat_seconds,
    }
    return win, row


def bench_queries(win, items: list, repeats: int) -> dict:
    """Bucket-merge window query vs rebuilding from the covered slice.

    The naive competitor gets every advantage: the raw items are
    already in memory and it rebuilds through the vectorized
    ``update_batch`` path — the speedup measured here is purely
    "merge cap * log2(W) sketches" vs "re-summarize W items".
    """
    rows = {}
    for label, window in (
        ("full_window", None),
        ("recent_quarter", len(items) / 4),
    ):
        view = win.window_query(window=window)
        covered = items[view.covered_start : view.covered_end]
        rebuild = win._spawn().extend(covered)
        # both paths summarize exactly the covered bucket-aligned span
        assert view.summary.n == rebuild.n == len(covered)
        rows[label] = {
            "buckets_covered": int(view.buckets_covered),
            "covered_items": len(covered),
            "query": latencies(
                lambda w=window: win.window_query(window=w), repeats
            ),
            "rebuild": latencies(
                lambda c=covered: win._spawn().extend(c), repeats
            ),
        }
    for row in rows.values():
        row["query_speedup"] = (
            row["rebuild"]["p50_seconds"] / row["query"]["p50_seconds"]
        )
    return rows


def run_report(args) -> dict:
    items = _items(args.items)
    win, ingest = bench_ingest(items, args.eps, args.granularity, args.depth)
    return {
        "experiment": "E27-sliding-windows",
        "quick": bool(args.quick),
        "n_items": int(args.items),
        "eps": float(args.eps),
        "granularity": int(args.granularity),
        "depth": int(args.depth),
        "repeats": int(args.repeats),
        "live_buckets": int(win.num_buckets),
        "max_level": int(win.max_level),
        "sections": {
            "ingest": ingest,
            "queries": bench_queries(win, items, args.repeats),
        },
    }


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent ratios gated against the snapshot."""
    queries = report["sections"]["queries"]
    ingest = report["sections"]["ingest"]
    return {
        "live_buckets": float(report["live_buckets"]),
        "window_query_speedup": queries["full_window"]["query_speedup"],
        "recent_query_speedup": queries["recent_quarter"]["query_speedup"],
        # windowed throughput as a fraction of flat (higher is better,
        # ~0.8 expected): gated so the write path cannot silently rot
        "ingest_throughput_ratio": 1.0 / ingest["ingest_overhead"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sliding-window benchmarks (E27)"
    )
    parser.add_argument("--items", type=int, default=2**19)
    parser.add_argument(
        "--eps", type=float, default=0.002,
        help="EH accuracy knob; per-level cap is ceil(1/eps) + 1",
    )
    parser.add_argument("--granularity", type=int, default=256)
    parser.add_argument("--depth", type=int, default=5,
                        help="CountMin rows in the base summary")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="half-size stream, few repeats (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_windows.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.items, args.granularity, args.repeats = 2**18, 128, 3

    report = run_report(args)
    ingest = report["sections"]["ingest"]
    print(
        f"windows: {report['n_items']} items, eps={report['eps']} "
        f"granularity={report['granularity']} -> {report['live_buckets']} "
        f"live buckets across {report['max_level'] + 1} levels"
    )
    print(
        f"   ingest: windowed {ingest['windowed_items_per_second']:,.0f} "
        f"items/s vs flat {ingest['flat_items_per_second']:,.0f} items/s "
        f"({ingest['ingest_overhead']:.2f}x overhead)"
    )
    for label, row in report["sections"]["queries"].items():
        print(
            f"{label:>15}: {row['buckets_covered']:>5} buckets / "
            f"{row['covered_items']} items  "
            f"query p50 {row['query']['p50_seconds']*1e3:7.2f} ms vs "
            f"rebuild {row['rebuild']['p50_seconds']*1e3:8.2f} ms "
            f"({row['query_speedup']:5.1f}x)  "
            f"p99 {row['query']['p99_seconds']*1e3:7.2f} / "
            f"{row['rebuild']['p99_seconds']*1e3:8.2f} ms"
        )
    return finish(report, args, _smoke_metrics, floors=FLOORS)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
