"""E23: merge-runtime benchmarks — k-way merges, cached query views,
and the KLL compress-cost guard.

Times the layers added by the merge-runtime work:

1. k-way ``merge_many`` vs the sequential pairwise fold at fan-ins
   4/16/64 for one type per merge shape (stack-and-sum, register max,
   compaction concat, counter combine);
2. cold vs warm batched ``quantiles(qs)`` against the cached sorted
   view;
3. the ``KLLQuantiles._compress`` scan-cost counter, normalized per
   item — a deterministic, machine-independent linearity guard.

Standalone (no pytest-benchmark), writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_merge_runtime.py \
        --quick --out BENCH_merge.json

CI regression gate — compares the quick run's machine-independent
ratios against the checked-in snapshot and exits non-zero when any
smoke metric regresses by more than 2x::

    PYTHONPATH=src python benchmarks/bench_merge_runtime.py \
        --quick --out BENCH_merge.json \
        --check benchmarks/BENCH_merge_snapshot.json
"""

from __future__ import annotations

import argparse
import copy
import sys

import numpy as np

from harness import add_gate_args, best_of, finish
from repro import (
    CountMin,
    HyperLogLog,
    KLLQuantiles,
    MergeableQuantiles,
    MisraGries,
)
from repro.core.merge import merge_chain
from repro.workloads import value_stream, zipf_stream


# ---------------------------------------------------------------------------
# section 1: k-way merge_many vs sequential fold
# ---------------------------------------------------------------------------

def _kway_cases(n_items: int):
    items = zipf_stream(n_items, alpha=1.2, universe=20_000, rng=3)
    values = value_stream(n_items, "uniform", rng=4)
    return {
        "count_min": (items, lambda i: CountMin(512, 4, seed=1)),
        "hyperloglog": (items, lambda i: HyperLogLog(p=12, seed=1)),
        "misra_gries": (items, lambda i: MisraGries(256)),
        "kll_quantiles": (values, lambda i: KLLQuantiles(200, rng=100 + i)),
        "mergeable_quantiles": (values, lambda i: MergeableQuantiles(256, rng=100 + i)),
    }


def bench_kway_merge(n_items: int, fanins, repeats: int) -> list:
    rows = []
    for name, (stream, factory) in _kway_cases(n_items).items():
        for fanin in fanins:
            shards = np.array_split(np.asarray(stream), fanin)
            # build once; merges only mutate the destination, so each
            # trial deep-copies just parts[0] (identical overhead on
            # both sides)
            parts = [
                factory(i).extend(shard.tolist()) for i, shard in enumerate(shards)
            ]

            fold_seconds = best_of(
                lambda: merge_chain([copy.deepcopy(parts[0])] + parts[1:]), repeats
            )
            kway_seconds = best_of(
                lambda: copy.deepcopy(parts[0]).merge_many(parts[1:]), repeats
            )
            rows.append(
                {
                    "summary": name,
                    "fanin": int(fanin),
                    "fold_seconds": fold_seconds,
                    "kway_seconds": kway_seconds,
                    "speedup": fold_seconds / kway_seconds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# section 2: cold vs warm cached-view queries
# ---------------------------------------------------------------------------

def bench_query_cache(n_items: int, n_queries: int, repeats: int) -> list:
    values = value_stream(n_items, "uniform", rng=5)
    qs = np.linspace(0.001, 0.999, n_queries).tolist()
    cases = {
        "mergeable_quantiles": lambda: MergeableQuantiles(256, rng=6).extend(values),
        "kll_quantiles": lambda: KLLQuantiles(200, rng=7).extend(values),
    }
    rows = []
    for name, build in cases.items():
        summary = build()

        def no_cache():
            # pre-cache behavior: every scalar query re-walked and
            # re-sorted the sample state
            for q in qs:
                summary.invalidate_view()
                summary.quantile(q)

        def warm():
            summary.quantiles(qs)

        no_cache_seconds = best_of(no_cache, repeats)
        summary.quantiles(qs)  # materialize the view once
        warm_seconds = best_of(warm, repeats)
        rows.append(
            {
                "summary": name,
                "n_queries": int(n_queries),
                "no_cache_seconds": no_cache_seconds,
                "warm_seconds": warm_seconds,
                "speedup": no_cache_seconds / warm_seconds,
                "view_stats": summary.view_stats,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# section 3: KLL compress scan-cost guard (deterministic)
# ---------------------------------------------------------------------------

def bench_kll_compress(n_items: int) -> dict:
    sketch = KLLQuantiles(64, rng=8)
    sketch.extend(value_stream(n_items, "uniform", rng=9))
    return {
        "n_items": int(n_items),
        "compress_steps": int(sketch._compress_steps),
        "steps_per_item": sketch._compress_steps / n_items,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_report(args) -> dict:
    return {
        "experiment": "E23-merge-runtime",
        "quick": bool(args.quick),
        "n_items": int(args.items),
        "repeats": int(args.repeats),
        "sections": {
            "kway_merge": bench_kway_merge(args.items, args.fanins, args.repeats),
            "query_cache": bench_query_cache(
                args.items, args.queries, args.repeats
            ),
            "kll_compress": bench_kll_compress(args.items),
        },
    }


#: smoke metrics gated lower-is-better; every other one is a speedup
LOWER_IS_BETTER = ("kll_steps_per_item",)


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent ratios and counts gated against the snapshot."""
    sections = report["sections"]
    # individual quick-size k-way timings jitter ~2x on loaded CI boxes;
    # the geometric mean over all (type, fanin) rows is what gets gated
    speedups = [row["speedup"] for row in sections["kway_merge"]]
    metrics = {
        "kway_speedup_gmean": float(np.exp(np.mean(np.log(speedups)))),
    }
    for row in sections["query_cache"]:
        metrics[f"query_cache_speedup:{row['summary']}"] = row["speedup"]
    metrics["kll_steps_per_item"] = sections["kll_compress"]["steps_per_item"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="merge-runtime benchmarks (E23)")
    parser.add_argument("--items", type=int, default=2**16)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument(
        "--fanins", type=int, nargs="+", default=[4, 16, 64],
        help="merge fan-ins for the k-way section",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small streams, one repeat (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_merge.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.items, args.repeats, args.queries = 2**13, 1, 128

    report = run_report(args)
    for row in report["sections"]["kway_merge"]:
        print(
            f"kway {row['summary']:>22} fanin={row['fanin']:<3}: "
            f"fold {row['fold_seconds']*1e3:8.1f} ms  "
            f"kway {row['kway_seconds']*1e3:8.1f} ms  "
            f"({row['speedup']:5.2f}x)"
        )
    for row in report["sections"]["query_cache"]:
        print(
            f"cache {row['summary']:>21}: no-cache {row['no_cache_seconds']*1e3:8.2f} ms  "
            f"warm {row['warm_seconds']*1e3:8.2f} ms  "
            f"({row['speedup']:8.1f}x)"
        )
    kll = report["sections"]["kll_compress"]
    print(
        f"kll_compress: {kll['compress_steps']} level visits / "
        f"{kll['n_items']} items = {kll['steps_per_item']:.4f} per item"
    )
    return finish(report, args, _smoke_metrics, lower_is_better=LOWER_IS_BETTER)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
