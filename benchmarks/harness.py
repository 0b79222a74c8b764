"""Shared timers and the snapshot gate of the CI-gated benchmarks.

The gated benches (``bench_store``, ``bench_cube``, ``bench_windows``,
``bench_durability``, ``bench_merge_runtime``) time, gate and report
the same way:

- :func:`best_of` and :func:`paired_best` — best-of-``repeats`` wall
  time with the garbage collector paused, so a collection triggered by
  earlier work cannot land inside one side of a comparison; the paired
  form interleaves two competitors within every repeat so load shifts
  on a noisy box hit both equally;
- :func:`latencies` — p50/p99 over ``repeats`` timed samples, also
  with the collector paused; a sample of a µs-scale call times several
  calls back to back, so neither a collection nor the timer's own
  resolution decides it;
- :func:`check_ratios` — machine-independent smoke ratios against the
  checked-in snapshot (a ratio may not fall below ``snapshot / factor``,
  a lower-is-better key may not rise above ``snapshot * factor``) plus
  absolute acceptance floors;
- :func:`add_gate_args` and :func:`finish` — the ``--out``/``--check``
  flags and the write-report-then-gate epilogue.

Each bench keeps its own ``_smoke_metrics``, printout, flags and
snapshot file.  Benches run as scripts from the repo root
(``PYTHONPATH=src python benchmarks/bench_store.py ...``), which puts
this directory on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

Metrics = Dict[str, float]


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep the collector out of a timed region (both sides equally)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Fastest of ``repeats`` calls of ``fn``, in seconds."""
    return paired_best(fn, lambda: None, repeats)[0]


def paired_best(
    first: Callable[[], object],
    second: Callable[[], object],
    repeats: int,
) -> Tuple[float, float]:
    """Each side's fastest of ``repeats`` calls, the sides alternating.

    Timing each side in its own block makes their ratio hostage to
    whatever else the machine was doing during that block; alternating
    within every repeat keeps the comparison honest.
    """
    best = [float("inf"), float("inf")]
    with _gc_paused():
        for _ in range(repeats):
            for side, fn in enumerate((first, second)):
                t0 = time.perf_counter()
                fn()
                best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def latencies(
    fn: Callable[[], object], repeats: int, calls: int = 1
) -> Dict[str, float]:
    """p50/p99 of ``repeats`` samples of ``fn``, in seconds per call.

    Each sample is the mean of ``calls`` back-to-back calls.
    """
    samples = []
    with _gc_paused():
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - t0) / calls)
    return {
        "p50_seconds": float(np.percentile(samples, 50)),
        "p99_seconds": float(np.percentile(samples, 99)),
    }


def check_ratios(
    current: Metrics,
    baseline: Metrics,
    factor: float = 2.0,
    lower_is_better: Iterable[str] = (),
    floors: Optional[Metrics] = None,
) -> List[str]:
    """Regression messages (empty = pass); ratios only, never seconds."""
    lower = set(lower_is_better)
    failures = []
    for key, base in baseline.items():
        if key not in current:
            failures.append(f"missing smoke metric {key!r}")
            continue
        now = current[key]
        if key in lower:
            if now > base * factor:
                failures.append(
                    f"{key}: {now:.2f} vs snapshot {base:.2f} "
                    f"(>{factor:.0f}x regression)"
                )
        elif now < base / factor:
            failures.append(
                f"{key}: {now:.2f}x vs snapshot {base:.2f}x "
                f"(fell below 1/{factor:.0f} of snapshot)"
            )
    for key, floor in (floors or {}).items():
        if current.get(key, 0.0) < floor:
            failures.append(
                f"{key}: {current.get(key, 0.0):.2f} is below the "
                f"acceptance floor of {floor:.0f}"
            )
    return failures


def add_gate_args(parser, default_out: str) -> None:
    """The ``--out``/``--check`` flags every gated bench takes."""
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--check", default=None, metavar="SNAPSHOT",
        help="compare smoke ratios against this snapshot JSON (and any "
             "acceptance floors); exit 1 on a >2x regression",
    )


def finish(
    report: dict,
    args,
    smoke_metrics: Callable[[dict], Metrics],
    **gate,
) -> int:
    """Write ``report`` to ``args.out``; with ``--check``, gate it.

    ``gate`` goes to :func:`check_ratios`.  Returns the process exit
    status.
    """
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.out}")
    if not args.check:
        return 0
    with open(args.check) as handle:
        snapshot = json.load(handle)
    failures = check_ratios(smoke_metrics(report), smoke_metrics(snapshot), **gate)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"snapshot check against {args.check}: ok")
    return 0
