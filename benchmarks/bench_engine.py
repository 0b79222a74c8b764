"""E25: merge-engine overhead — compiled plans vs the inline legacy loops.

PR-5 routes ``merge_all``, the distributed simulator, and store
compaction through one compiled :class:`~repro.engine.plan.MergePlan`
and one :func:`~repro.engine.execute_plan` runner.  The IR indirection
must be close to free; this benchmark measures it against in-process
replicas of the loops the engine replaced:

1. fold strategies (chain / tree / kway) over ``m`` parts: engine
   ``merge_all`` vs the inline fold, same merge sequence, with a
   byte-identity sanity check;
2. distributed aggregation: ``run_aggregation`` (plan-compiled) vs a
   manual build-then-schedule-replay;
3. store compaction: ``SegmentStore.compact`` (plan-compiled) vs an
   inline dyadic roll-up loop over ``merged_segment``.

Efficiency is ``legacy_seconds / engine_seconds`` (1.0 = free
abstraction; the target is staying above 0.9, i.e. <10% overhead).

Standalone, writes the JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick --out BENCH_engine.json

CI regression gate — machine-independent efficiency ratios against the
checked-in snapshot, non-zero exit past a 2x regression::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --out BENCH_engine.json --check benchmarks/BENCH_engine_snapshot.json
"""

from __future__ import annotations

import argparse
import math

from harness import add_gate_args, finish, paired_best
from repro.core import dumps, merge_all
from repro.distributed import ContiguousPartitioner, build_topology, run_aggregation
from repro.frequency import MisraGries
from repro.store import SegmentStore, merged_segment
from repro.workloads import zipf_stream


# ---------------------------------------------------------------------------
# the inline loops the engine replaced
# ---------------------------------------------------------------------------


def _legacy_chain(parts):
    acc = parts[0]
    for other in parts[1:]:
        acc.merge(other)
    return acc


def _legacy_tree(parts):
    level = list(parts)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            level[i].merge(level[i + 1])
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _legacy_kway(parts):
    return parts[0].merge_many(parts[1:])


LEGACY_FOLDS = {"chain": _legacy_chain, "tree": _legacy_tree, "kway": _legacy_kway}


# ---------------------------------------------------------------------------
# section 1: fold strategies
# ---------------------------------------------------------------------------


def bench_folds(parts_count: int, items_per: int, repeats: int) -> dict:
    feeds = [
        zipf_stream(items_per, alpha=1.2, universe=2_000, rng=10 + i).tolist()
        for i in range(parts_count)
    ]
    blueprints = [MisraGries(64).extend(feed).to_dict() for feed in feeds]

    def make_parts():
        return [MisraGries.from_dict(d) for d in blueprints]

    rows = {}
    for strategy, fold in LEGACY_FOLDS.items():
        assert dumps(merge_all(make_parts(), strategy=strategy)) == dumps(
            fold(make_parts())
        ), f"engine fold diverged from legacy loop for {strategy!r}"
        engine_seconds, legacy_seconds = paired_best(
            lambda: merge_all(make_parts(), strategy=strategy),
            lambda: fold(make_parts()),
            repeats,
        )
        rows[strategy] = {
            "parts": int(parts_count),
            "engine_seconds": engine_seconds,
            "legacy_seconds": legacy_seconds,
            "efficiency": legacy_seconds / engine_seconds,
            "overhead_pct": (engine_seconds / legacy_seconds - 1.0) * 100.0,
        }
    return rows


# ---------------------------------------------------------------------------
# section 2: distributed aggregation
# ---------------------------------------------------------------------------


def bench_aggregation(leaves: int, n_items: int, repeats: int) -> dict:
    data = zipf_stream(n_items, alpha=1.2, universe=3_000, rng=5)
    schedule = build_topology("balanced", leaves, rng=1)
    partitioner = ContiguousPartitioner()

    def engine():
        return run_aggregation(
            data, partitioner, lambda: MisraGries(64), schedule
        ).summary

    def legacy():
        shards = partitioner.split(data, leaves)
        replicas = [MisraGries(64).extend(shard) for shard in shards]
        for dst, src in schedule.steps:
            replicas[dst].merge(replicas[src])
        return replicas[schedule.root]

    assert dumps(engine()) == dumps(legacy()), "simulator diverged from replay"
    engine_seconds, legacy_seconds = paired_best(engine, legacy, repeats)
    return {
        "leaves": int(leaves),
        "n_items": int(n_items),
        "engine_seconds": engine_seconds,
        "legacy_seconds": legacy_seconds,
        "efficiency": legacy_seconds / engine_seconds,
        "overhead_pct": (engine_seconds / legacy_seconds - 1.0) * 100.0,
    }


# ---------------------------------------------------------------------------
# section 3: store compaction
# ---------------------------------------------------------------------------


def _fresh_store(epochs: int, per_epoch: int) -> SegmentStore:
    # the canonical serving schema: a heavy-hitter member plus a
    # quantile member per segment (paper sections 3 and 4)
    store = SegmentStore(width=1.0)
    store.add_member("hot", "misra_gries", field="item", k=64)
    store.add_member("q", "kll_quantiles", field="item", k=96, rng=17)
    items = zipf_stream(epochs * per_epoch, alpha=1.2, universe=2_000, rng=3)
    records = [{"item": int(item)} for item in items]
    keys = [float(i % epochs) + 0.5 for i in range(len(records))]
    store.ingest(records, keys)
    return store


def _legacy_compact(store: SegmentStore) -> int:
    """The pre-engine ``SegmentStore.compact`` loop, serial path.

    Replays the replaced implementation verbatim — same roll-up
    discovery, same segment-id allocation order, same install
    bookkeeping — so the comparison charges both sides the full cost
    of a real compaction.
    """
    chain = store._chain
    lo, hi = min(chain.base), max(chain.base)
    span = hi - lo + 1
    levels = max(1, math.ceil(math.log2(span))) if span > 1 else 1
    built = 0
    for level in range(1, levels + 1):
        block = 1 << level
        half = block >> 1
        first = (lo // block) * block
        for start in range(first, hi + 1, block):
            if (level, start) in chain.rollups:
                continue
            parts = [
                child
                for child_start in (start, start + half)
                for child in (chain.node(level - 1, child_start),)
                if child is not None
            ]
            if not parts:
                continue
            chain.rollups[(level, start)] = merged_segment(
                store._new_segment_id(level, start), level, start, parts
            )
            built += 1
    chain.max_level = max(chain.max_level, levels)
    if built:
        store._generation += 1
    return built


def _rollup_state(store: SegmentStore) -> dict:
    return {
        key: (
            segment.segment_id,
            segment.count,
            {name: dumps(summary) for name, summary in segment.members.items()},
        )
        for key, segment in store._chain.rollups.items()
    }


def bench_compaction(epochs: int, per_epoch: int, repeats: int) -> dict:
    # both sides mutate their store, so each timed run gets its own
    engine_stores = [_fresh_store(epochs, per_epoch) for _ in range(repeats)]
    legacy_stores = [_fresh_store(epochs, per_epoch) for _ in range(repeats)]

    probe_engine, probe_legacy = _fresh_store(epochs, per_epoch), _fresh_store(
        epochs, per_epoch
    )
    probe_engine.compact()
    _legacy_compact(probe_legacy)
    assert _rollup_state(probe_engine) == _rollup_state(
        probe_legacy
    ), "engine compaction diverged from the pre-engine loop"

    engines, legacies = iter(engine_stores), iter(legacy_stores)
    engine_seconds, legacy_seconds = paired_best(
        lambda: next(engines).compact(),
        lambda: _legacy_compact(next(legacies)),
        repeats,
    )
    rollups = engine_stores[0].num_rollups
    return {
        "epochs": int(epochs),
        "rollups": int(rollups),
        "engine_seconds": engine_seconds,
        "legacy_seconds": legacy_seconds,
        "efficiency": legacy_seconds / engine_seconds,
        "overhead_pct": (engine_seconds / legacy_seconds - 1.0) * 100.0,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_report(args) -> dict:
    return {
        "experiment": "E25-merge-engine-overhead",
        "quick": bool(args.quick),
        "repeats": int(args.repeats),
        "sections": {
            "folds": bench_folds(args.parts, args.items_per_part, args.repeats),
            "aggregation": bench_aggregation(
                args.leaves, args.items, args.repeats
            ),
            "compaction": bench_compaction(
                args.epochs, args.items_per_epoch, args.repeats
            ),
        },
    }


def _smoke_metrics(report: dict) -> dict:
    """Machine-independent efficiency ratios gated against the snapshot."""
    sections = report["sections"]
    metrics = {
        f"fold_{strategy}_efficiency": row["efficiency"]
        for strategy, row in sections["folds"].items()
    }
    metrics["aggregation_efficiency"] = sections["aggregation"]["efficiency"]
    metrics["compaction_efficiency"] = sections["compaction"]["efficiency"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="merge-engine overhead (E25)")
    parser.add_argument("--parts", type=int, default=64)
    parser.add_argument("--items-per-part", type=int, default=400)
    parser.add_argument("--leaves", type=int, default=32)
    parser.add_argument("--items", type=int, default=2**16)
    parser.add_argument("--epochs", type=int, default=64)
    parser.add_argument("--items-per-epoch", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--quick", action="store_true",
        help="small streams, fewer repeats (CI smoke run)",
    )
    add_gate_args(parser, "BENCH_engine.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.parts, args.items_per_part = 32, 200
        args.leaves, args.items = 16, 2**14
        args.epochs, args.items_per_epoch = 32, 100
        args.repeats = 5

    report = run_report(args)
    for strategy, row in report["sections"]["folds"].items():
        print(
            f"fold {strategy:<6} {row['parts']} parts: "
            f"engine {row['engine_seconds']*1e3:.2f} ms vs "
            f"legacy {row['legacy_seconds']*1e3:.2f} ms "
            f"(overhead {row['overhead_pct']:+.1f}%)"
        )
    agg = report["sections"]["aggregation"]
    print(
        f"aggregation {agg['leaves']} leaves over {agg['n_items']} items: "
        f"engine {agg['engine_seconds']*1e3:.2f} ms vs "
        f"legacy {agg['legacy_seconds']*1e3:.2f} ms "
        f"(overhead {agg['overhead_pct']:+.1f}%)"
    )
    comp = report["sections"]["compaction"]
    print(
        f"compaction {comp['epochs']} epochs -> {comp['rollups']} roll-ups: "
        f"engine {comp['engine_seconds']*1e3:.2f} ms vs "
        f"legacy {comp['legacy_seconds']*1e3:.2f} ms "
        f"(overhead {comp['overhead_pct']:+.1f}%)"
    )
    return finish(report, args, _smoke_metrics)


if __name__ == "__main__":
    raise SystemExit(main())
