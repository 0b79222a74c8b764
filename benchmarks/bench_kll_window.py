"""E16/E17 (extensions): KLL vs Section 3.2, and sliding-window MG.

E16 — KLL (Karnin-Lang-Liberty 2016) is the asymptotically optimal
descendant of the paper's Section 3.2 logarithmic-method summary: same
random-halving primitive, geometrically decaying level capacities.
This experiment measures the size/error frontier of both at matched
eps, sequentially and after adversarial chain merges — showing where
the line of work the paper started ended up.

E17 — sliding-window heavy hitters (the paper's other future-work
direction) with ``MisraGries(k).windowed(mode="time")``: an exponential
histogram of MG sub-summaries, one bucket per ``bucket_width`` of event
time and ``eps = 1/num_buckets``.  Validates the MG guarantee over a
query window, the bounded space, and mergeability across nodes.

Run:  python benchmarks/bench_kll_window.py
      pytest benchmarks/bench_kll_window.py --benchmark-only
"""

from __future__ import annotations

import numpy as np

from repro import KLLQuantiles, MergeableQuantiles, MisraGries
from repro.analysis import print_table, rank_errors
from repro.core import merge_all, merge_chain
from repro.workloads import value_stream, zipf_stream

N = 2**16


def run_kll_experiment():
    rows = []
    data = value_stream(N, "uniform", rng=1)
    probes = np.quantile(data, np.linspace(0.02, 0.98, 49))
    for eps in (0.02, 0.01, 0.005):
        for name, factory in (
            ("Sec 3.2 log-method", lambda i: MergeableQuantiles.from_epsilon(eps, rng=10 + i)),
            ("KLL", lambda i: KLLQuantiles.from_epsilon(eps, rng=40 + i)),
        ):
            sequential = factory(0).extend(data)
            seq_report = rank_errors(sequential, data, probes)
            shards = np.array_split(np.sort(data), 32)
            merged = merge_chain(
                [factory(1 + i).extend(s) for i, s in enumerate(shards)]
            )
            merged_report = rank_errors(merged, data, probes)
            rows.append([
                eps, name, sequential.size(), merged.size(),
                f"{seq_report.max_error:.0f}", f"{merged_report.max_error:.0f}",
                f"{eps * N:.0f}",
                "OK" if max(seq_report.max_error, merged_report.max_error)
                <= eps * N else "VIOLATED",
            ])
    print_table(
        ["eps", "summary", "size (seq)", "size (merged)", "max err (seq)",
         "max err (merged)", "eps*n", "verdict"],
        rows,
        caption=f"E16: KLL vs the paper's Sec 3.2 structure, n={N}, "
                "32-way chain merge over sorted shards",
    )
    return rows


def timed_mg(k, bucket_width, num_buckets):
    """A time-mode MG window of ``num_buckets`` buckets of ``bucket_width``."""
    return MisraGries(k).windowed(
        eps=1 / num_buckets,
        window=bucket_width * num_buckets,
        mode="time",
        granularity=bucket_width,
    )


def run_window_experiment():
    k = 64
    bucket_width, num_buckets = 100.0, 20
    rows = []
    noise = zipf_stream(N, alpha=1.1, universe=5_000, rng=9) + 10
    for nodes in (1, 8):
        # two-phase traffic: item 0 hot early, item 1 hot late
        events = []
        for t in range(N):
            hot = 0 if t < N // 2 else 1
            item = hot if t % 2 == 0 else int(noise[t])
            events.append((item, float(t) * 2000.0 / N))
        parts = []
        bounds = np.linspace(0, len(events), nodes + 1).astype(int)
        for i in range(nodes):
            part = timed_mg(k, bucket_width, num_buckets)
            for item, t in events[bounds[i] : bounds[i + 1]]:
                part.observe(item, t)
            parts.append(part)
        merged = merge_all(parts, strategy="tree")
        recent = merged.window_query(window=500.0, end=1999.9)
        early_hh = 0 in recent.summary.heavy_hitters(0.2)
        late_hh = 1 in recent.summary.heavy_hitters(0.2)
        rows.append([
            nodes, merged.size(), len(merged.live_buckets()), k * num_buckets,
            recent.n, f"{recent.summary.error_bound:.0f}",
            "yes" if late_hh else "NO", "no" if not early_hh else "YES(stale)",
        ])
    print_table(
        ["nodes", "stored counters", "live buckets", "space bound k*num_buckets",
         "window n", "window bound n/(k+1)", "late item reported",
         "stale item reported"],
        rows,
        caption="E17: sliding-window MG (time-mode EH), 500s window over "
                "2000s of two-phase traffic — only the in-window item reports",
    )
    return rows


def test_e16_kll_build(benchmark):
    data = value_stream(2**14, "uniform", rng=2)
    kll = benchmark(lambda: KLLQuantiles(256, rng=3).extend(data))
    assert kll.n == len(data)


def test_e16_kll_merge(benchmark):
    import copy

    data = value_stream(2**14, "uniform", rng=4)
    a = KLLQuantiles(256, rng=5).extend(data[: 2**13])
    b = KLLQuantiles(256, rng=6).extend(data[2**13 :])
    merged = benchmark(lambda: copy.deepcopy(a).merge(b))
    assert merged.n == len(data)


def test_e17_windowed_observe(benchmark):
    items = zipf_stream(5_000, rng=7).tolist()

    def run():
        w = timed_mg(32, bucket_width=10.0, num_buckets=10)
        for t, item in enumerate(items):
            w.observe(item, float(t) / 50)
        return w

    w = benchmark(run)
    assert w.size() <= 32 * 10


def test_e17_window_query(benchmark):
    w = timed_mg(32, bucket_width=10.0, num_buckets=10)
    items = zipf_stream(5_000, rng=8).tolist()
    for t, item in enumerate(items):
        w.observe(item, float(t) / 50)
    result = benchmark(lambda: w.window_query(window=50.0, end=99.0))
    assert result.n > 0


if __name__ == "__main__":
    run_kll_experiment()
    run_window_experiment()
