"""Compare two sets of end-to-end benchmark reports.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json:a \\
        benchmarks/e2e/baseline.json:b

A set is a JSON list of reports as ``run.py --out`` appends them;
``FILE:name`` selects ``sets[name]`` of a baseline file.  For every
(workload, end-to-end metric) pair the medians and quartiles of both
sets are printed with the change of B's median against A's.  Exits 1
when any change exceeds that metric's bound in BENCHMARK.json, in either
direction, when a workload is in only one set, or when any run of
either set counted a failed operation (``failed_frac`` is held to an
absolute bound of 0).  Traced and ``--smoke`` reports are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(spec: str) -> list:
    path, name = spec, None
    if not os.path.exists(spec) and ":" in spec:
        path, name = spec.rsplit(":", 1)
    with open(path) as handle:
        data = json.load(handle)
    if name is not None:
        data = data["sets"][name]
    return [r for r in data if not r.get("trace") and not r.get("smoke")]


def summarize(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline set (FILE or FILE:name)")
    parser.add_argument("b", help="candidate set (FILE or FILE:name)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sets = {"A": load_set(args.a), "B": load_set(args.b)}

    status = 0
    for label, reports in sets.items():
        failed = sum(r["failed"] for r in reports)
        if failed:
            print(f"set {label}: {failed} failed operation(s); failed_frac must be 0")
            status = 1

    print(f"{'workload':15s} {'metric':17s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {k: [r for r in v if r["workload"] == workload] for k, v in sets.items()}
        if not runs["A"] and not runs["B"]:
            continue
        if not runs["A"] or not runs["B"]:
            print(f"{workload:15s} (missing from set {'A' if not runs['A'] else 'B'})")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summarize([r["metrics"][name]["value"] for r in runs["A"]])
            b = summarize([r["metrics"][name]["value"] for r in runs["B"]])
            change = (b[1] - a[1]) / a[1]
            better = change < 0 if metric["better"] == "lower" else change > 0
            verdict = "ok"
            if abs(change) > bound:
                verdict = "BETTER" if better else "WORSE"
                status = 1
            print(
                f"{workload:15s} {name:17s} "
                f"{a[1]:12.5g} [{a[0]:8.4g}, {a[2]:8.4g}] "
                f"{b[1]:12.5g} [{b[0]:8.4g}, {b[2]:8.4g}] "
                f"{change:+8.2%} {bound:6.2f} {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
