"""E26: dimension-cube benchmarks — cell covers, latency, cell cost.

Measures what the cube buys over the flat per-key layout for
high-cardinality sub-population queries:

1. cells merged: the cube planner's cover (mask cells + dyadic time
   roll-ups) vs the naive one-merge-per-base-cell scan, on a workload
   with 10^5 distinct keys;
2. query latency p50/p99 for the grand total and a coarse ``group_by``,
   cube vs naive (each cube sample times ``CUBE_CALLS`` queries);
3. cell cost: a populated moment-sketch cell vs a KLL cell of
   comparable quantile utility (summary size and encoded bytes).

Standalone (no pytest-benchmark), writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_cube.py --quick --out BENCH_cube.json

CI regression gate — machine-independent ratios against the checked-in
snapshot (2x tolerance) plus the absolute acceptance floors (>= 10x
fewer cells, >= 5x lower latency)::

    PYTHONPATH=src python benchmarks/bench_cube.py --quick \
        --out BENCH_cube.json --check benchmarks/BENCH_cube_snapshot.json
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from harness import add_gate_args, finish, latencies
from repro.core import encode_summary
from repro.quantiles import KLLQuantiles, MomentSketch
from repro.store import CubeStore

COUNTRIES = 16

#: acceptance floors (ISSUE 8): enforced on every --check run, snapshot
#: or not — the cube must beat the naive per-key scan by at least this
FLOORS = {
    "total_cells_reduction": 10.0,
    "group_cells_reduction": 10.0,
    "total_query_speedup": 5.0,
    "group_query_speedup": 5.0,
}


#: calls per cube-side latency sample: a cube query takes 30-500 µs, so
#: one call alone is the scale of a scheduler tick; the naive side's
#: ~0.4 s calls are timed one per sample
CUBE_CALLS = 25


def _build_cube(n_keys: int, n_records: int, epochs: int) -> CubeStore:
    rng = np.random.default_rng(7)
    users = rng.integers(0, n_keys, size=n_records)
    countries = rng.integers(0, COUNTRIES, size=n_records)
    values = rng.random(n_records) * 100.0
    cube = CubeStore(width=n_records / epochs, dims=("user", "country"))
    cube.add_member("lat", "moment_sketch", field="lat", k=10)
    records = [
        {"user": int(u), "country": int(c), "lat": float(v)}
        for u, c, v in zip(users, countries, values)
    ]
    cube.ingest(records)
    # materialize the masks the measured queries need: the grand total
    # and the per-country lattice (cheap: |countries| * epochs cells)
    cube.compact(
        budget=10**9,
        workload=[{"group_by": []}, {"group_by": ["country"]}],
    )
    return cube


def bench_queries(cube: CubeStore, repeats: int) -> dict:
    lo, hi = cube.key_span()

    def run(**kwargs):
        cube._views.clear()  # always measure a cold planner+merge pass
        return cube.query(lo, hi, **kwargs)

    total = run()
    total_naive = run(use_rollups=False)
    grouped = run(group_by=("country",))
    grouped_naive = run(group_by=("country",), use_rollups=False)
    rows = {
        "total": {
            "serving_mask": list(total.plan.serving_mask or []),
            "cells_merged": int(total.plan.cells_merged),
            "naive_cells": int(total_naive.plan.cells_merged),
            "cells_reduction": total_naive.plan.cells_merged
            / total.plan.cells_merged,
            "cube": latencies(lambda: run(), repeats, calls=CUBE_CALLS),
            "naive": latencies(lambda: run(use_rollups=False), repeats),
        },
        "group_by_country": {
            "serving_mask": list(grouped.plan.serving_mask or []),
            "groups": len(grouped.keys()),
            "cells_merged": int(grouped.plan.cells_merged),
            "naive_cells": int(grouped_naive.plan.cells_merged),
            "cells_reduction": grouped_naive.plan.cells_merged
            / grouped.plan.cells_merged,
            "cube": latencies(
                lambda: run(group_by=("country",)), repeats, calls=CUBE_CALLS
            ),
            "naive": latencies(
                lambda: run(group_by=("country",), use_rollups=False), repeats
            ),
        },
    }
    for row in rows.values():
        row["query_speedup"] = (
            row["naive"]["p50_seconds"] / row["cube"]["p50_seconds"]
        )
    # sanity: both paths must agree on the grand total's mass
    assert total.members["lat"].n == total_naive.members["lat"].n
    return rows


def bench_cell_cost(n: int = 5_000) -> dict:
    """One populated cell per summary type, compared at rest."""
    values = np.random.default_rng(3).random(n).tolist()
    moment = MomentSketch(10).extend(values)
    kll = KLLQuantiles(128, rng=1).extend(values)
    out = {}
    for name, summary in (("moment_sketch", moment), ("kll_quantiles", kll)):
        payload = encode_summary(summary, codec="binary.v1")
        raw = payload.encode("utf-8") if isinstance(payload, str) else payload
        out[name] = {"size": int(summary.size()), "bytes": len(raw)}
    out["size_ratio"] = out["kll_quantiles"]["size"] / out["moment_sketch"]["size"]
    out["bytes_ratio"] = (
        out["kll_quantiles"]["bytes"] / out["moment_sketch"]["bytes"]
    )
    return out


def run_report(args) -> dict:
    t0 = time.perf_counter()
    cube = _build_cube(args.keys, args.records, args.epochs)
    build_seconds = time.perf_counter() - t0
    stats = cube.stats()
    return {
        "experiment": "E26-dimension-cube",
        "quick": bool(args.quick),
        "n_keys": int(args.keys),
        "n_records": int(args.records),
        "epochs": int(args.epochs),
        "repeats": int(args.repeats),
        "cube_calls_per_sample": CUBE_CALLS,
        "build_seconds": build_seconds,
        "groups": int(stats["groups"]),
        "base_cells": int(stats["base_cells"]),
        "masks": sorted(stats["masks"]),
        "sections": {
            "queries": bench_queries(cube, args.repeats),
            "cell_cost": bench_cell_cost(),
        },
    }


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent ratios gated against the snapshot."""
    queries = report["sections"]["queries"]
    cost = report["sections"]["cell_cost"]
    return {
        "total_cells_reduction": queries["total"]["cells_reduction"],
        "group_cells_reduction": queries["group_by_country"]["cells_reduction"],
        "total_query_speedup": queries["total"]["query_speedup"],
        "group_query_speedup": queries["group_by_country"]["query_speedup"],
        "moment_vs_kll_bytes": cost["bytes_ratio"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dimension-cube benchmarks (E26)")
    parser.add_argument("--keys", type=int, default=100_000,
                        help="distinct high-cardinality key values")
    parser.add_argument("--records", type=int, default=200_000)
    parser.add_argument("--epochs", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="small cube, few repeats (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_cube.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.keys, args.records, args.epochs, args.repeats = 10_000, 20_000, 32, 3

    report = run_report(args)
    print(
        f"cube: {report['n_records']} records, {report['n_keys']} distinct "
        f"keys x {COUNTRIES} countries over {report['epochs']} epochs -> "
        f"{report['groups']} groups, {report['base_cells']} base cells, "
        f"masks {report['masks']} (built in {report['build_seconds']:.1f} s)"
    )
    for label, row in report["sections"]["queries"].items():
        print(
            f"{label:>16}: {row['cells_merged']:>6} cells vs naive "
            f"{row['naive_cells']:>7} ({row['cells_reduction']:7.1f}x fewer)  "
            f"p50 {row['cube']['p50_seconds']*1e3:8.2f} ms vs "
            f"{row['naive']['p50_seconds']*1e3:8.2f} ms "
            f"({row['query_speedup']:5.1f}x)  "
            f"p99 {row['cube']['p99_seconds']*1e3:8.2f} / "
            f"{row['naive']['p99_seconds']*1e3:8.2f} ms"
        )
    cost = report["sections"]["cell_cost"]
    print(
        f"cell cost: moment_sketch {cost['moment_sketch']['bytes']} B "
        f"(size {cost['moment_sketch']['size']}) vs kll "
        f"{cost['kll_quantiles']['bytes']} B (size "
        f"{cost['kll_quantiles']['size']}) — {cost['bytes_ratio']:.1f}x smaller"
    )
    return finish(report, args, _smoke_metrics, floors=FLOORS)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
