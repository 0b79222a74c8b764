"""E25: durability benchmarks — WAL overhead, replay, incremental saves.

Measures what the crash-safety layer costs and what it buys:

1. WAL ingest overhead vs the plain in-memory path: fsync-per-batch
   (``fsync_every=1``, every returned ingest is durable), batched
   fsync (``fsync_every=8``), and log-only (``fsync_every=0``);
2. recovery: WAL replay rate over the last snapshot, across tail
   lengths (how long a crashed store takes to reconverge);
3. snapshot commit: the atomic first save vs a one-epoch re-save and a
   no-op re-save (committed segments are immutable and skipped) —
   time, pack bytes written, and the fraction of live containers the
   one-epoch re-save encodes.

Standalone (no pytest-benchmark), writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_durability.py --quick \
        --out BENCH_durability.json

CI regression gate — machine-independent ratios (WAL efficiency vs the
plain path, replay rate vs ingest rate) and the share of containers an
incremental save encodes, checked against the snapshot, exit non-zero
past a 2x regression::

    PYTHONPATH=src python benchmarks/bench_durability.py --quick \
        --out BENCH_durability.json \
        --check benchmarks/BENCH_durability_snapshot.json
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

from harness import add_gate_args, best_of, finish
from repro.store import SegmentStore
from repro.workloads import zipf_stream


def _batches(n_batches: int, batch_size: int):
    items = zipf_stream(n_batches * batch_size, alpha=1.2, universe=2_000, rng=3)
    out = []
    for b in range(n_batches):
        chunk = items[b * batch_size : (b + 1) * batch_size]
        records = [{"value": int(v)} for v in chunk]
        keys = [float(b) + i / batch_size for i in range(batch_size)]
        out.append((records, keys))
    return out


def _fresh_store(width: float = 1.0) -> SegmentStore:
    store = SegmentStore(width=width, codec="binary.v1")
    store.add_member("hot", "misra_gries", field="value", k=32)
    return store


# ---------------------------------------------------------------------------
# section 1: WAL ingest overhead
# ---------------------------------------------------------------------------

def bench_wal_overhead(n_batches: int, batch_size: int, repeats: int, workdir: Path) -> dict:
    batches = _batches(n_batches, batch_size)

    def run_plain():
        store = _fresh_store()
        for records, keys in batches:
            store.ingest(records, keys)

    def run_wal(fsync_every: int, tag: str):
        def inner():
            wal_dir = workdir / f"wal-{tag}"
            shutil.rmtree(wal_dir, ignore_errors=True)
            store = _fresh_store()
            store.enable_wal(str(wal_dir), fsync_every=fsync_every)
            for records, keys in batches:
                store.ingest(records, keys)
            store.wal.close()
        return inner

    plain = best_of(run_plain, repeats)
    unbuffered = best_of(run_wal(1, "unbuffered"), repeats)
    batched = best_of(run_wal(8, "batched"), repeats)
    log_only = best_of(run_wal(0, "logonly"), repeats)
    rate = n_batches / plain
    return {
        "n_batches": int(n_batches),
        "batch_size": int(batch_size),
        "plain_seconds": plain,
        "plain_batches_per_second": rate,
        "wal_unbuffered_seconds": unbuffered,
        "wal_batched_seconds": batched,
        "wal_log_only_seconds": log_only,
        "unbuffered_overhead": unbuffered / plain,
        "batched_overhead": batched / plain,
        "log_only_overhead": log_only / plain,
    }


# ---------------------------------------------------------------------------
# section 2: recovery replay rate vs WAL tail length
# ---------------------------------------------------------------------------

def bench_replay(n_batches: int, batch_size: int, workdir: Path) -> list:
    rows = []
    for tail in (n_batches // 4, n_batches // 2, n_batches):
        target = workdir / f"replay-{tail}"
        shutil.rmtree(target, ignore_errors=True)
        store = _fresh_store()
        store.ingest([{"value": 0}], [0.0])
        store.save(target)  # tiny committed snapshot
        durable = SegmentStore.open_durable(target, fsync_every=0)
        for records, keys in _batches(tail, batch_size):
            durable.ingest(records, keys)
        durable.wal.close()

        t0 = time.perf_counter()
        recovered = SegmentStore.open(target)  # replays the whole tail
        seconds = time.perf_counter() - t0
        assert recovered.wal_seq == tail
        rows.append(
            {
                "wal_batches": int(tail),
                "replay_seconds": seconds,
                "replay_batches_per_second": tail / seconds,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# section 3: atomic snapshot commit — full vs incremental
# ---------------------------------------------------------------------------

def _one_epoch_save(committed: Path, target: Path) -> float:
    """Seconds to save a copy of ``committed`` after a one-record ingest."""
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(committed, target)
    store = SegmentStore.open(target)
    store.ingest([{"value": 1}], [0.5])
    start = time.perf_counter()
    store.save(target)
    return time.perf_counter() - start


def bench_save(n_batches: int, batch_size: int, repeats: int, workdir: Path) -> dict:
    store = _fresh_store()
    for records, keys in _batches(n_batches, batch_size):
        store.ingest(records, keys)
    store.compact()

    full_dir = workdir / "save-full"

    def full_save():
        shutil.rmtree(full_dir, ignore_errors=True)  # nothing committed: write all
        store.save(full_dir)

    full_seconds = best_of(full_save, repeats)
    first = store.save(full_dir)
    committed = workdir / "save-committed"
    shutil.copytree(full_dir, committed)

    # touch one epoch, then re-save: only the replaced base segment is
    # encoded; the pack's other live containers are copied as bytes
    store.ingest([{"value": 1}], [0.5])
    second = store.save(full_dir)
    one_epoch_seconds = min(
        _one_epoch_save(committed, workdir / "save-one-epoch")
        for _ in range(max(repeats, 3))
    )
    incr_seconds = best_of(lambda: store.save(full_dir), max(repeats, 3))
    return {
        "segments": int(first["segments"]),
        "full_save_seconds": full_seconds,
        "full_save_written": int(first["segments"]),
        "one_epoch_save_seconds": one_epoch_seconds,
        "one_epoch_save_bytes": int(second["bytes"]),
        "incremental_save_seconds": incr_seconds,
        "incremental_save_written": int(second["written"]),
        "incremental_save_copied": int(second["copied"]),
        "incremental_written_fraction": second["written"] / max(1, second["segments"]),
        "incremental_speedup": full_seconds / incr_seconds,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_report(args) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench-durability-"))
    try:
        return {
            "experiment": "E25-durability",
            "quick": bool(args.quick),
            "n_batches": int(args.batches),
            "batch_size": int(args.batch_size),
            "repeats": int(args.repeats),
            "sections": {
                "wal": bench_wal_overhead(
                    args.batches, args.batch_size, args.repeats, workdir
                ),
                "replay": bench_replay(args.batches, args.batch_size, workdir),
                "save": bench_save(
                    args.batches, args.batch_size, args.repeats, workdir
                ),
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent ratios gated vs the snapshot.

    ``incremental_encoded_fraction`` is lower-is-better and exact: the
    containers a one-epoch re-save encodes over the live containers.
    A ratio of save times would fall whenever the full save got faster
    although nothing got slower, so the timings are printed, not gated.
    """
    sections = report["sections"]
    wal = sections["wal"]
    replay_rate = sections["replay"][-1]["replay_batches_per_second"]
    return {
        # throughput kept relative to the plain path (1.0 = free WAL)
        "wal_batched_efficiency": 1.0 / wal["batched_overhead"],
        "wal_unbuffered_efficiency": 1.0 / wal["unbuffered_overhead"],
        # replay should reconverge about as fast as plain ingest
        "replay_vs_ingest": replay_rate / wal["plain_batches_per_second"],
        "incremental_encoded_fraction": sections["save"]["incremental_written_fraction"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="durability benchmarks (E25)")
    parser.add_argument("--batches", type=int, default=256)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="small streams, one repeat (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_durability.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.batches, args.batch_size, args.repeats = 48, 512, 1

    report = run_report(args)
    wal = report["sections"]["wal"]
    print(
        f"wal: {wal['n_batches']} batches of {wal['batch_size']} — "
        f"plain {wal['plain_seconds']*1e3:.1f} ms, "
        f"fsync-every-batch {wal['unbuffered_overhead']:.2f}x, "
        f"batched(8) {wal['batched_overhead']:.2f}x, "
        f"log-only {wal['log_only_overhead']:.2f}x"
    )
    for row in report["sections"]["replay"]:
        print(
            f"replay: {row['wal_batches']:>4} batches in "
            f"{row['replay_seconds']*1e3:8.2f} ms "
            f"({row['replay_batches_per_second']:,.0f} batches/s)"
        )
    save = report["sections"]["save"]
    print(
        f"save: full {save['full_save_seconds']*1e3:.1f} ms "
        f"({save['segments']} containers); one-epoch re-save "
        f"{save['one_epoch_save_seconds']*1e3:.1f} ms "
        f"({save['incremental_save_written']} encoded, "
        f"{save['incremental_save_copied']} copied, "
        f"{save['one_epoch_save_bytes']:,} B); no-op re-save "
        f"{save['incremental_save_seconds']*1e3:.1f} ms "
        f"({save['incremental_speedup']:.1f}x faster than full)"
    )
    return finish(
        report, args, _smoke_metrics, lower_is_better=("incremental_encoded_fraction",)
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
