"""E19: delivery semantics — at-least-once retries vs summary algebra.

Real aggregation fabrics retry; without exactly-once bookkeeping a
child summary can be merged twice.  The two algebraic families behave
very differently:

- **lattice** summaries (KMV, HyperLogLog, Bloom, EpsKernel — merges
  are idempotent joins) absorb duplicates with *zero* error;
- **additive** summaries (MG, CountMin, quantile summaries) double-count
  the duplicated subtree; their guarantees still hold *relative to the
  inflated n*, but estimates drift from the true counts by the
  duplicated mass.

This experiment injects duplicate deliveries at increasing rates
(``FaultModel(duplicate=p)`` with the merge ledger off, i.e. bare
at-least-once delivery) and measures the induced error — quantifying
why production systems pair additive sketches with exactly-once
transports (or dedup tokens) while lattice sketches run happily over
fire-and-forget delivery.

Run:  python benchmarks/bench_delivery_semantics.py
      pytest benchmarks/bench_delivery_semantics.py --benchmark-only
"""

from __future__ import annotations

from collections import Counter

from repro import HyperLogLog, KMinValues, MisraGries
from repro.analysis import print_table
from repro.distributed import (
    ContiguousPartitioner,
    FaultModel,
    balanced_tree,
    run_aggregation,
)
from repro.workloads import zipf_stream

N = 2**16
NODES = 32


def _at_least_once(dup_p: float, rng: int) -> dict:
    """Duplicate injection with no exactly-once ledger."""
    return {"fault_model": FaultModel(duplicate=dup_p, rng=rng), "exactly_once": False}


def run_experiment():
    data = zipf_stream(N, alpha=1.2, universe=30_000, rng=1)
    truth = Counter(data.tolist())
    true_distinct = len(truth)
    top_items = [item for item, _ in truth.most_common(20)]
    rows = []
    for dup_p in (0.0, 0.1, 0.3):
        # additive: Misra-Gries frequency estimates
        mg_result = run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(256),
            balanced_tree(NODES), **_at_least_once(dup_p, rng=2),
        )
        mg_err = max(
            abs(mg_result.summary.estimate(item) - truth[item])
            for item in top_items
        )
        rows.append([
            f"{dup_p:.0%}", "MisraGries (additive)",
            mg_result.duplicated_deliveries,
            f"n drift: {mg_result.summary.n - N:+d}",
            f"{mg_err}",
        ])
        # lattice: distinct counts
        for name, factory in (
            ("KMV (lattice)", lambda: KMinValues(1024, seed=3)),
            ("HyperLogLog (lattice)", lambda: HyperLogLog(p=12, seed=3)),
        ):
            result = run_aggregation(
                data, ContiguousPartitioner(), factory,
                balanced_tree(NODES), **_at_least_once(dup_p, rng=2),
            )
            clean = run_aggregation(
                data, ContiguousPartitioner(), factory, balanced_tree(NODES)
            )
            drift = abs(result.summary.distinct() - clean.summary.distinct())
            rows.append([
                f"{dup_p:.0%}", name,
                result.duplicated_deliveries,
                f"estimate drift: {drift:.1f}",
                f"{abs(result.summary.distinct() - true_distinct):.0f}",
            ])
    print_table(
        ["dup rate", "summary", "dup deliveries", "state drift vs clean run",
         "error vs truth"],
        rows,
        caption=f"E19: at-least-once delivery, n={N}, {NODES} nodes — "
                "lattice summaries are immune, additive ones drift by the "
                "duplicated mass",
    )
    return rows


def test_e19_clean_run_baseline(benchmark):
    data = zipf_stream(2**14, rng=4)

    def run():
        return run_aggregation(
            data, ContiguousPartitioner(), lambda: MisraGries(64),
            balanced_tree(8),
        )

    result = benchmark(run)
    assert result.duplicated_deliveries == 0


def test_e19_faulty_run(benchmark):
    data = zipf_stream(2**14, rng=5)

    def run():
        return run_aggregation(
            data, ContiguousPartitioner(), lambda: HyperLogLog(p=10, seed=1),
            balanced_tree(8), **_at_least_once(0.5, rng=6),
        )

    result = benchmark(run)
    assert result.summary.n >= len(data)


if __name__ == "__main__":
    run_experiment()
