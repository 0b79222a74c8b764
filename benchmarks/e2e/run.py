"""End-to-end store benchmark: one workload per process.

    python3 benchmarks/e2e/run.py --workload pipeline --seed 1
    python3 benchmarks/e2e/run.py --workload pipeline --seed 1 --trace
    python3 benchmarks/e2e/run.py --workload query_mix --seed 1 --out set-a.json

The program is imported from ``src/`` of the checkout this file lives
in.  Inputs are generated from ``--seed`` before any timing; rounds
then run until ``--seconds`` is used up (at least one round, two with
``--trace``).  Every answer is checked against an exact oracle.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace`` the per-layer
metrics of BENCHMARK.json.  ``--out FILE`` appends the full report to a
JSON list in FILE (a *set* for ``compare.py``).  See README.md.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import corrected_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: processes that set up per run (this one included); setup_s is their median
SETUP_REPEATS = 3
DEFAULT_SECONDS = 25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or the bare flag): per-layer metrics from a traced run",
    )
    parser.add_argument("--trace-out", help="write every recorded span here (JSON lines)")
    parser.add_argument("--out", help="append the full report to the JSON list in this file")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one round (for tests)"
    )
    # a set-up repetition: print this process's set-up time and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_elsewhere(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def run_round(workload, state, recorder, traced, workdir, index):
    from tracing import CountingFilesystem, GcMeter, install, layer_metrics
    from workloads import Meter, OpFailed

    path = os.path.join(workdir, f"round-{index}")
    os.makedirs(path)
    patches = None
    fs = None
    if traced:
        recorder.reset()
        fs = CountingFilesystem(recorder)
        patches = install(recorder)
    meter = Meter(recorder, traced, fs)
    aborted = None
    try:
        with GcMeter(recorder) as gc_meter:
            workload.round(state, meter, path)
        meter.check_round()
    except OpFailed as exc:
        aborted = f"round aborted: {exc} failed"
    finally:
        if patches is not None:
            patches.remove()
        shutil.rmtree(path, ignore_errors=True)
    phases = Counter()
    for phase, seconds in meter.ops:
        phases[f"{phase}_s"] += seconds
    summary = {
        "traced": traced,
        "total_s": meter.total,
        **phases,
        "records": meter.records_ingested,
        "bytes_per_record": meter.bytes_per_record,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "failures": meter.failures + ([aborted] if aborted else []),
        "aborted": aborted is not None,
    }
    if traced:
        summary["layers"] = layer_metrics(recorder, gc_meter, meter.counts, meter.total)
        summary["layer_self_s"] = recorder.layer_self()
    return summary, meter


def operation_times(meters):
    """Each timed operation's median corrected time over the rounds.

    Rounds run the same operations in the same order, so operation *i*
    of one round is operation *i* of every other; a round whose sequence
    differs (one cut short by a failure) is left out.  Returns the
    phase of each operation and its seconds, corrected for host speed
    (see ``hostspeed.py``).
    """
    phases = [phase for phase, _ in meters[0].ops]
    times = [
        corrected_times(m.ops, m.probes)
        for m in meters
        if [phase for phase, _ in m.ops] == phases
    ]
    return np.array(phases), np.median(times, axis=0)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from tracing import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    traced_mode = bool(args.trace)

    work_root = HERE / ".work"
    workdir = str(work_root / f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        state = workload.setup(np.random.default_rng(args.seed), workdir)
        # process start -> first timed operation
        setups = [time.perf_counter() - _PROCESS_T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        if not args.smoke:
            setups += [setup_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
        # inputs are the generator's objects, not the program's: keep
        # them out of the collector's generations (GC otherwise stays on)
        gc.collect()
        gc.freeze()

        recorder = Recorder()
        rounds, plain_meters = [], []
        elapsed = last = 0.0
        min_rounds = 2 if traced_mode else 1
        while len(rounds) < min_rounds or (
            not args.smoke and elapsed + last <= args.seconds
        ):
            traced = traced_mode and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            summary, meter = run_round(workload, state, recorder, traced, workdir, len(rounds))
            last = time.perf_counter() - t0
            elapsed += last
            summary["wall_s"] = last
            rounds.append(summary)
            if not traced:
                plain_meters.append(meter)
            if summary["aborted"] and len(rounds) >= min_rounds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    # Every time below is built from each operation's median time over
    # the untraced rounds, at the reference host speed.  Summing or
    # pooling raw rounds instead lets the host's slow stretches decide
    # the result: a p99 over pooled samples lands on the host's stalls,
    # not the program's.
    phases, seconds = operation_times(plain_meters)
    acks, queries = seconds[phases == "ingest"], seconds[phases == "query"]
    metrics = {
        "setup_s": statistics.median(setups),
        "total_s": seconds.sum(),
        "ingest_rps": plain[0]["records"] / acks.sum(),
        "ack_p50_ms": np.percentile(acks, 50) * 1e3,
        "ack_p99_ms": np.percentile(acks, 99) * 1e3,
        "compact_s": seconds[phases == "compact"].sum(),
        "save_s": seconds[phases == "save"].sum(),
        "open_s": np.median(seconds[phases == "open"]),
        "query_p50_ms": np.percentile(queries, 50) * 1e3,
        "query_p99_ms": np.percentile(queries, 99) * 1e3,
        "bytes_per_record": statistics.median(r["bytes_per_record"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced_mode),
        "smoke": args.smoke,
        "rounds": len(rounds),
        # one sample per operation of a round, each its median over
        # this many untraced rounds
        "samples": {"acks": len(acks), "queries": len(queries), "rounds": len(plain_meters)},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": [f for r in rounds for f in r["failures"]][:20],
        "setup_runs_s": setups,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in load_units("end_to_end").items()
        },
        "per_round": [
            {k: v for k, v in r.items() if k not in ("layers", "layer_self_s")}
            for r in rounds
        ],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"acks {len(acks)}  queries {len(queries)} per round  failed {failed}/{attempted}")
    # on standard error too: a caller that keeps only the result line
    # still sees why an operation failed
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
        print(f"FAILED ({args.workload}, seed {args.seed}): {failure}", file=sys.stderr)
    if traced_mode:
        per_layer, identity = trace_report(rounds)
        report["per_layer"] = per_layer
        report["trace_identity"] = identity
        result_metrics = per_layer
        units = load_units("per_layer")
    else:
        result_metrics = {name: m["value"] for name, m in report["metrics"].items()}
        units = load_units("end_to_end")
    for name, value in result_metrics.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")

    if args.trace_out and traced_mode:
        with open(args.trace_out, "w") as handle:
            for span in recorder.spans:
                span_id, parent, op, name, start, end = span
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": name, "start": start, "end": end,
                }) + "\n")
    if args.out:
        append_report(args.out, report)

    print(json.dumps({
        "correct": failed == 0 and not any(r["aborted"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result_metrics.items()
        },
    }))
    return 0


def load_units(section):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def trace_report(rounds):
    """Per-layer medians over traced rounds, overhead, and the sum check."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_layer = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    per_layer["trace.overhead"] = (
        statistics.median(r["total_s"] for r in traced)
        / statistics.median(r["total_s"] for r in plain)
        - 1.0
    )
    identity = []
    for r in traced:
        attributed = sum(r["layer_self_s"].values())
        residual = r["layers"]["trace.unattributed_share"] * r["total_s"]
        identity.append({
            "total_s": r["total_s"],
            "layer_self_s": r["layer_self_s"],
            "unattributed_s": residual,
            "relative_gap": abs(attributed + residual - r["total_s"]) / r["total_s"],
        })
    order = load_units("per_layer")
    return {name: per_layer[name] for name in order}, identity


def append_report(path, report):
    reports = []
    if os.path.exists(path):
        with open(path) as handle:
            reports = json.load(handle)
    reports.append(report)
    with open(path, "w") as handle:
        json.dump(reports, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
