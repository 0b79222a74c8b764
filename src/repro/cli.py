"""Command-line interface: build, merge, and query summaries from files.

A thin production-style front end over the library, mirroring how the
sketches ship in systems like Apache DataSketches: summaries are built
from newline-delimited item files, persisted in the library's JSON wire
format, merged across files, and queried — so a shell pipeline can run
a whole distributed-aggregation experiment.

Examples
--------
::

    python -m repro build --type misra_gries --arg k=64 \
        --input shard0.txt --out s0.json
    python -m repro build --type misra_gries --arg k=64 \
        --input shard1.txt --out s1.json
    python -m repro merge s0.json s1.json --out merged.json
    python -m repro query merged.json --heavy-hitters 0.01
    python -m repro inspect merged.json
    python -m repro simulate --type misra_gries --arg k=64 \
        --input items.txt --nodes 16 --topology balanced \
        --loss 0.2 --crash 0.05 --duplicate 0.2 --seed 7
    python -m repro store ingest --dir ./hits --type misra_gries \
        --arg k=64 --width 3600 --input items.txt --keys stamps.txt --wal
    python -m repro store compact --dir ./hits
    python -m repro store query --dir ./hits --lo 0 --hi 86400 \
        --heavy-hitters 0.01 --explain
    python -m repro store verify --dir ./hits
    python -m repro store recover --dir ./hits
    python -m repro store ingest --dir ./cube --type moment_sketch \
        --dims region,device --width 3600 --input records.jsonl
    python -m repro store compact --dir ./cube --budget 10000 \
        --workload shapes.json
    python -m repro store query --dir ./cube --lo 0 --hi 86400 \
        --where region=eu --group-by device --quantile 0.99 --explain
    python -m repro build --type misra_gries --arg k=64 \
        --window 1000 --eps 0.25 --input items.txt --out windowed.json
    python -m repro store query --dir ./hits --window 3600 \
        --window-eps 0.25 --heavy-hitters 0.01 --explain
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .core import (
    MERGE_STRATEGIES,
    ReproError,
    dumps,
    get_summary_class,
    loads,
    merge_all,
    registered_codecs,
    registered_names,
)

__all__ = ["main"]


def _parse_item(token: str) -> Any:
    """Interpret a file line as int, then float, then raw string."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_args_kv(pairs: Optional[List[str]]) -> Dict[str, Any]:
    """Parse repeated ``--arg name=value`` options into constructor kwargs."""
    kwargs: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--arg expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            kwargs[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            kwargs[name] = raw
    return kwargs


def _read_items(path: str) -> List[Any]:
    text = Path(path).read_text()
    return [_parse_item(line) for line in text.splitlines() if line.strip()]


def _read_weights(path: str) -> List[int]:
    """Read a newline-delimited positive-integer weight file."""
    weights: List[int] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            weights.append(int(line))
        except ValueError:
            raise SystemExit(f"--weights file has a non-integer line: {line!r}")
    return weights


def _load_summary(path: str):
    return loads(Path(path).read_text())


def _cmd_build(args: argparse.Namespace) -> int:
    cls = get_summary_class(args.type)
    kwargs = _parse_args_kv(args.arg)
    summary = cls(**kwargs)
    if args.window is not None or args.eps is not None:
        # lift the (still empty) base summary to sliding-window
        # semantics; the registry resolves the windowed.<type> variant
        summary = summary.windowed(
            eps=args.eps if args.eps is not None else 0.25,
            window=args.window,
            granularity=args.granularity,
        )
    items = _read_items(args.input)
    weights = _read_weights(args.weights) if args.weights else None
    if weights is not None and len(weights) != len(items):
        raise SystemExit(
            f"--weights has {len(weights)} line(s) but --input has "
            f"{len(items)} item(s)"
        )
    # one batched (optionally weighted) ingestion call, not a per-line loop
    summary.extend(items, weights)
    Path(args.out).write_text(dumps(summary))
    built = getattr(type(summary), "registry_name", args.type)
    print(f"built {built}: n={summary.n} size={summary.size()} -> {args.out}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    summaries = [_load_summary(path) for path in args.inputs]
    # --seed is only forwarded when given; a seed on a deterministic
    # strategy is a user error that merge_all reports precisely
    merged = merge_all(summaries, strategy=args.strategy, rng=args.seed)
    Path(args.out).write_text(dumps(merged))
    print(
        f"merged {len(args.inputs)} summaries ({args.strategy}): "
        f"n={merged.n} size={merged.size()} -> {args.out}"
    )
    return 0


def _run_point_queries(summary, args: argparse.Namespace, prefix: str = "") -> bool:
    """Apply the shared ``--quantile``/``--estimate``/... flags; True if any ran."""
    ran_query = False
    if args.heavy_hitters is not None:
        ran_query = True
        for item, estimate in sorted(
            summary.heavy_hitters(args.heavy_hitters).items(), key=lambda kv: -kv[1]
        ):
            print(f"{prefix}{item}\t{estimate}")
    if args.quantile is not None:
        ran_query = True
        print(f"{prefix}{summary.quantile(args.quantile)}")
    if args.rank is not None:
        ran_query = True
        print(f"{prefix}{summary.rank(args.rank)}")
    if args.estimate is not None:
        ran_query = True
        print(f"{prefix}{summary.estimate(_parse_item(args.estimate))}")
    if args.distinct:
        ran_query = True
        print(f"{prefix}{summary.distinct()}")
    return ran_query


def _cmd_query(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    from .windows import WindowedSummary

    if isinstance(summary, WindowedSummary):
        # point queries live on the base type: answer from the merged
        # view of the trailing window (the configured one by default)
        summary = summary.window_query(window=args.window).summary
    elif args.window is not None:
        from .core import ParameterError

        raise ParameterError("--window requires a windowed summary file")
    if not _run_point_queries(summary, args):
        raise SystemExit(
            "query needs one of --heavy-hitters/--quantile/--rank/"
            "--estimate/--distinct"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    summary = _load_summary(args.summary)
    print(f"type: {summary.registry_name}")
    print(f"n: {summary.n}")
    print(f"size: {summary.size()}")
    for attr in ("k", "epsilon", "s", "deduction", "error_bound"):
        value = getattr(summary, attr, None)
        if value is not None and not callable(value):
            print(f"{attr}: {value}")
    return 0


def _cmd_types(args: argparse.Namespace) -> int:
    for name in registered_names(kind=args.kind):
        print(name)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.topology import build_topology

    if args.topology is not None:
        schedule = build_topology(
            args.topology, args.nodes, rng=args.seed if args.seed is not None else 0
        )
    else:
        strategy = args.strategy or "tree"
        if args.seed is not None and strategy != "random":
            raise SystemExit(
                f"--seed is only meaningful with a randomized strategy, "
                f"not {strategy!r}"
            )
        if strategy == "kway":
            # the star's fan-in, taken by one merge_many instead of pairs
            star = build_topology("star", args.count)
            print(f"kway: leaves={star.leaves}, one merge_many, root=0")
            if star.steps:
                srcs = ", ".join(str(src) for _, src in star.steps)
                print(f"    0. merge 0 <- {srcs}")
            return 0
        topology = "balanced" if strategy == "tree" else strategy
        schedule = build_topology(topology, args.count, rng=args.seed)
    print(schedule.describe())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import degradation_report
    from .distributed import (
        PARTITIONERS,
        FaultModel,
        RetryPolicy,
        build_topology,
        run_aggregation,
    )

    cls = get_summary_class(args.type)
    kwargs = _parse_args_kv(args.arg)
    data = np.array(_read_items(args.input))
    fault_model = FaultModel(
        loss=args.loss,
        crash=args.crash,
        duplicate=args.duplicate,
        corruption=args.corruption,
        rng=args.seed,
    )
    result = run_aggregation(
        data,
        PARTITIONERS[args.partitioner](),
        lambda: cls(**kwargs),
        build_topology(args.topology, args.nodes, rng=args.seed),
        serialize=True,
        fault_model=fault_model,
        retry_policy=RetryPolicy(max_attempts=args.retries),
        exactly_once=not args.no_ledger,
    )
    stats = result.fault_stats
    report = degradation_report(result)
    print(
        f"root: type={args.type} n={result.summary.n} size={result.summary.size()}"
    )
    print(
        f"run: nodes={result.nodes} topology={args.topology} "
        f"merges={result.merges} depth={result.depth} "
        f"bytes_shipped={result.bytes_shipped} "
        f"bytes_retransmitted={result.bytes_retransmitted}"
    )
    print(
        f"coverage: {result.coverage:.2%} "
        f"({report.delivered_leaves}/{result.nodes} leaves, "
        f"{report.delivered_records}/{report.total_records} records; "
        f"lost leaves: {report.lost_leaves or 'none'})"
    )
    print(
        f"faults: lost={stats.messages_lost} retries={stats.retries} "
        f"corrupted={stats.corrupted_payloads} "
        f"(detected {stats.corruption_detected}) "
        f"duplicates={stats.duplicates_delivered} "
        f"(suppressed {stats.duplicates_suppressed}, "
        f"merged {stats.duplicates_merged}) "
        f"crashed={stats.nodes_crashed} failed={stats.deliveries_failed}"
    )
    if args.out:
        Path(args.out).write_text(dumps(result.summary))
        print(f"root summary -> {args.out}")
    return 0


def _read_keys(path: str) -> List[float]:
    """Read a newline-delimited numeric key file (one key per item)."""
    keys: List[float] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            keys.append(float(line))
        except ValueError:
            raise SystemExit(f"--keys file has a non-numeric line: {line!r}")
    return keys


def _open_store(directory: str):
    from .store import load

    # the manifest names the kind; load() returns the matching class
    return load(directory)


def _read_records(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL record file (one JSON object per line) for cube ingest."""
    import json as _json

    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = _json.loads(line)
        except ValueError:
            raise SystemExit(
                f"--input line {lineno} is not valid JSON (with --dims each "
                f"line must be a JSON object): {line!r}"
            )
        if not isinstance(obj, dict):
            raise SystemExit(
                f"--input line {lineno} must be a JSON object, "
                f"got {type(obj).__name__}"
            )
        records.append(obj)
    return records


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    import os

    from .store import CubeStore, SegmentStore

    target = Path(args.dir)
    dims = (
        tuple(d.strip() for d in args.dims.split(",") if d.strip())
        if args.dims
        else None
    )
    if (target / "manifest.json").exists():
        store = _open_store(args.dir)
        if dims and not isinstance(store, CubeStore):
            raise SystemExit(
                f"{args.dir} is a flat store; --dims only applies when "
                f"creating a new cube"
            )
        if dims and dims != store.dims:
            raise SystemExit(
                f"{args.dir} is keyed by dims {list(store.dims)}; "
                f"--dims must match or be omitted"
            )
    else:
        if not args.type:
            raise SystemExit("--type is required when creating a new store")
        if dims:
            store = CubeStore(
                width=args.width,
                dims=dims,
                codec=args.codec,
                view_capacity=args.view_capacity,
            )
        else:
            store = SegmentStore(
                width=args.width,
                codec=args.codec,
                view_capacity=args.view_capacity,
            )
        store.add_member(
            "value", args.type, field="value", **_parse_args_kv(args.arg)
        )
    if args.wal:
        store.enable_wal(os.path.join(args.dir, "wal"), fsync_every=args.fsync_every)
    is_cube = isinstance(store, CubeStore)
    if is_cube:
        records = _read_records(args.input)
    else:
        records = [{"value": item} for item in _read_items(args.input)]
    keys = _read_keys(args.keys) if args.keys else None
    if keys is not None and len(keys) != len(records):
        raise SystemExit(
            f"--keys has {len(keys)} line(s) but --input has "
            f"{len(records)} item(s)"
        )
    weights = _read_weights(args.weights) if args.weights else None
    if weights is not None and len(weights) != len(records):
        raise SystemExit(
            f"--weights has {len(weights)} line(s) but --input has "
            f"{len(records)} item(s)"
        )
    stats = store.ingest(records, keys, weights)
    report = store.save(args.dir)
    wal_note = ""
    if args.wal:
        wal_note = (
            f" [wal seq {store.wal_seq}, "
            f"retired {report.get('wal_retired', 0)} file(s)]"
        )
    unit = "cells" if is_cube else "segments"
    created = stats["cells_created" if is_cube else "segments_created"]
    replaced = stats["cells_replaced" if is_cube else "segments_replaced"]
    print(
        f"ingested {stats['records']} records: "
        f"{unit} +{created} "
        f"(replaced {replaced}, "
        f"invalidated {stats['rollups_invalidated']} roll-ups) "
        f"-> {args.dir}{wal_note}"
    )
    return 0


def _read_workload(path: str):
    """Read a JSON workload file for ``repro store compact --workload``."""
    import json as _json

    try:
        workload = _json.loads(Path(path).read_text())
    except ValueError as exc:
        raise SystemExit(f"--workload file is not valid JSON: {exc}")
    if not isinstance(workload, list):
        raise SystemExit(
            "--workload must be a JSON list of query shapes "
            '(e.g. [{"group_by": ["region"], "weight": 3}])'
        )
    return workload


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from .store import CubeStore

    store = _open_store(args.dir)
    if isinstance(store, CubeStore):
        workload = _read_workload(args.workload) if args.workload else None
        stats = store.compact(budget=args.budget, workload=workload)
        store.save(args.dir)
        print(
            f"compacted cube: {stats['masks']} mask(s) over "
            f"{stats['candidate_masks']} candidate(s), "
            f"built {stats['dim_cells_built']} dimension cell(s) + "
            f"{stats['time_rollups_built']} time roll-up(s), "
            f"{stats['merge_inputs']} merge inputs -> {args.dir}"
        )
        return 0
    if args.budget is not None or args.workload:
        raise SystemExit(
            f"{args.dir} is a flat store; --budget/--workload only apply "
            f"to dimension cubes"
        )
    stats = store.compact()
    store.save(args.dir)
    print(
        f"compacted {store.num_segments} segments: "
        f"built {stats['rollups_built']} roll-ups over {stats['levels']} "
        f"level(s), {stats['merge_inputs']} merge inputs -> {args.dir}"
    )
    return 0


def _parse_where(pairs: Optional[List[str]]) -> Optional[Dict[str, Any]]:
    """Parse repeated ``--where dim=value`` filters into a mapping."""
    if not pairs:
        return None
    where: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--where expects dim=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        where[name] = _parse_item(raw)
    return where


def _cmd_store_query(args: argparse.Namespace) -> int:
    from .store import CubeStore

    store = _open_store(args.dir)
    if isinstance(store, CubeStore):
        group_by = (
            tuple(g.strip() for g in args.group_by.split(",") if g.strip())
            if args.group_by
            else None
        )
        result = store.query(
            args.lo,
            args.hi,
            where=_parse_where(args.where),
            group_by=group_by,
            use_rollups=not args.no_rollups,
            window=args.window,
            window_eps=args.window_eps,
        )
        if args.explain:
            print(result.plan.describe())
        ran = False
        for key in sorted(result.groups, key=repr):
            prefix = ""
            if group_by:
                labels = ", ".join(
                    f"{dim}={value}" for dim, value in zip(group_by, key)
                )
                prefix = f"[{labels}] "
            ran = (
                _run_point_queries(result.groups[key]["value"], args, prefix)
                or ran
            )
        if not ran and not args.explain:
            raise SystemExit(
                "store query needs --explain or one of --heavy-hitters/"
                "--quantile/--rank/--estimate/--distinct"
            )
        return 0
    if args.where or args.group_by:
        raise SystemExit(
            f"{args.dir} is a flat store; --where/--group-by only apply "
            f"to dimension cubes"
        )
    result = store.query(
        args.lo,
        args.hi,
        use_rollups=not args.no_rollups,
        window=args.window,
        window_eps=args.window_eps,
    )
    if args.explain:
        print(result.plan.describe())
    ran = _run_point_queries(result["value"], args)
    if not ran and not args.explain:
        raise SystemExit(
            "store query needs --explain or one of --heavy-hitters/"
            "--quantile/--rank/--estimate/--distinct"
        )
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json as _json

    print(_json.dumps(_open_store(args.dir).stats(), indent=2, sort_keys=True))
    return 0


def _cmd_store_recover(args: argparse.Namespace) -> int:
    import json as _json

    from .store import SegmentStore

    store, report = SegmentStore.recover(args.dir)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"recovered {args.dir}: snapshot {report.snapshot_loaded} -> "
            f"{report.snapshot_committed}, replayed "
            f"{report.wal_records_replayed} WAL batch(es) "
            f"({report.records_recovered} records), retired "
            f"{report.wal_files_retired} log file(s)"
        )
        for entry in report.wal_quarantined:
            print(f"  quarantined WAL: {entry['file']} ({entry['reason']})")
        for entry in report.segments_quarantined:
            print(
                f"  quarantined segment {entry['id']}: {entry['file']} "
                f"({entry['reason']})"
            )
        if report.clean:
            print(f"  clean: {store.records} records served")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    import json as _json

    from .store import SegmentStore

    report = SegmentStore.verify(args.dir)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    elif report["ok"]:
        segs = report["segments"]
        print(
            f"ok: {args.dir} (snapshot {report['snapshot']}, "
            f"{segs['ok']}/{segs['referenced']} segments verified, "
            f"{report['wal']['replayable']} replayable WAL batch(es))"
        )
    else:
        print(f"NOT ok: {args.dir}")
        if report.get("manifest") != "ok":
            print(f"  manifest: {report['manifest']}")
        for entry in report.get("segments", {}).get("corrupt", []):
            print(f"  corrupt segment {entry['id']}: {entry['reason']}")
        for seg_id in report.get("segments", {}).get("missing", []):
            print(f"  missing segment {seg_id}")
        for entry in report.get("wal", {}).get("torn", []):
            print(f"  torn WAL {entry['file']}: {entry['reason']}")
        for name in report.get("orphans", []):
            print(f"  orphan file: {name}")
        print("  run `repro store recover` to quarantine and re-commit")
    return 0 if report["ok"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="mergeable summaries toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a summary from an item file")
    build.add_argument("--type", required=True, help="registered summary name")
    build.add_argument("--input", required=True, help="newline-delimited items")
    build.add_argument(
        "--weights",
        default=None,
        help="newline-delimited positive integer weights parallel to --input "
        "(pre-aggregated streams)",
    )
    build.add_argument("--out", required=True, help="output JSON path")
    build.add_argument(
        "--arg", action="append", help="constructor argument name=value", default=None
    )
    build.add_argument(
        "--window", type=float, default=None, metavar="N",
        help="lift to sliding-window semantics over the last N items "
        "(count-based; omit to window without expiry)",
    )
    build.add_argument(
        "--eps", type=float, default=None, metavar="E",
        help="window mass-envelope error (default 0.25; implies a "
        "windowed build even without --window)",
    )
    build.add_argument(
        "--granularity", type=float, default=1, metavar="G",
        help="items per level-0 window bucket (with --window/--eps)",
    )
    build.set_defaults(func=_cmd_build)

    merge = sub.add_parser("merge", help="merge summary files")
    merge.add_argument("inputs", nargs="+", help="summary JSON files")
    merge.add_argument("--out", required=True)
    merge.add_argument(
        # choices track the strategy registry; a new strategy shows up
        # here (and in `repro plan`) without touching the CLI
        "--strategy", default="tree", choices=sorted(MERGE_STRATEGIES)
    )
    merge.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (only the 'random' strategy accepts one)",
    )
    merge.set_defaults(func=_cmd_merge)

    query = sub.add_parser("query", help="query a summary file")
    query.add_argument("summary")
    query.add_argument("--heavy-hitters", type=float, default=None, metavar="PHI")
    query.add_argument("--quantile", type=float, default=None, metavar="Q")
    query.add_argument("--rank", type=float, default=None, metavar="X")
    query.add_argument("--estimate", default=None, metavar="ITEM")
    query.add_argument("--distinct", action="store_true")
    query.add_argument(
        "--window", type=float, default=None, metavar="N",
        help="for windowed summary files: query the trailing N items "
        "(default: the window the file was built with)",
    )
    query.set_defaults(func=_cmd_query)

    inspect = sub.add_parser("inspect", help="show a summary's metadata")
    inspect.add_argument("summary")
    inspect.set_defaults(func=_cmd_inspect)

    types = sub.add_parser("types", help="list registered summary types")
    types.add_argument(
        "--kind", default=None, choices=["base", "windowed"],
        help="filter: directly implemented types vs auto-derived "
        "windowed.<name> variants (default: all)",
    )
    types.set_defaults(func=_cmd_types)

    plan = sub.add_parser(
        "plan",
        help="print a merge schedule without executing anything",
    )
    mode = plan.add_mutually_exclusive_group()
    mode.add_argument(
        "--strategy", default=None, choices=sorted(MERGE_STRATEGIES),
        help="fold strategy to print (default: tree)",
    )
    mode.add_argument(
        "--topology", default=None,
        choices=["balanced", "chain", "star", "kary", "random"],
        help="print a distributed aggregation schedule instead of a fold",
    )
    plan.add_argument("--count", type=int, default=8,
                      help="number of fold inputs (with --strategy)")
    plan.add_argument("--nodes", type=int, default=16,
                      help="number of leaves (with --topology)")
    plan.add_argument("--seed", type=int, default=None,
                      help="RNG seed for random strategies/topologies")
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser(
        "simulate",
        help="run a fault-injected distributed aggregation over an item file",
    )
    simulate.add_argument("--type", required=True, help="registered summary name")
    simulate.add_argument("--input", required=True, help="newline-delimited items")
    simulate.add_argument(
        "--arg", action="append", help="constructor argument name=value", default=None
    )
    simulate.add_argument("--nodes", type=int, default=16)
    simulate.add_argument(
        "--topology", default="balanced",
        choices=["balanced", "chain", "star", "kary", "random"],
    )
    simulate.add_argument(
        "--partitioner", default="contiguous",
        choices=["contiguous", "uniform", "sorted", "skewed"],
    )
    simulate.add_argument("--loss", type=float, default=0.0)
    simulate.add_argument("--crash", type=float, default=0.0)
    simulate.add_argument("--duplicate", type=float, default=0.0)
    simulate.add_argument("--corruption", type=float, default=0.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--retries", type=int, default=4,
                          help="delivery attempts per merge step")
    simulate.add_argument("--no-ledger", action="store_true",
                          help="disable exactly-once dedup (study the damage)")
    simulate.add_argument("--out", default=None,
                          help="write the root summary JSON here")
    simulate.set_defaults(func=_cmd_simulate)

    store = sub.add_parser(
        "store",
        help="segmented summary store: ingest keyed records, pre-merge "
        "dyadic roll-ups, answer range queries in O(log S) merges",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    ingest = store_sub.add_parser(
        "ingest", help="append items to a store directory (created on first use)"
    )
    ingest.add_argument("--dir", required=True, help="store directory")
    ingest.add_argument("--input", required=True, help="newline-delimited items")
    ingest.add_argument(
        "--keys",
        default=None,
        help="newline-delimited numeric keys parallel to --input "
        "(default: arrival index)",
    )
    ingest.add_argument(
        "--weights",
        default=None,
        help="newline-delimited positive integer weights parallel to --input",
    )
    ingest.add_argument(
        "--type", default=None, help="summary type (required on first ingest)"
    )
    ingest.add_argument(
        "--arg", action="append", help="constructor argument name=value", default=None
    )
    ingest.add_argument(
        "--width", type=float, default=1.0,
        help="key width of one segment (first ingest only)",
    )
    ingest.add_argument(
        "--dims", default=None, metavar="D1,D2",
        help="comma-separated dimension names: create a dimension cube "
        "instead of a flat store (first ingest only; --input becomes "
        "JSONL records carrying the dims plus a 'value' field)",
    )
    ingest.add_argument(
        "--view-capacity", type=int, default=8, metavar="N",
        help="merged-query-view LRU size, 0 disables (first ingest only)",
    )
    ingest.add_argument(
        "--codec", default="json.v2", choices=registered_codecs(),
        help="segment persistence codec (first ingest only)",
    )
    ingest.add_argument(
        "--wal", action="store_true",
        help="write-ahead log the batch (durable before segments seal; "
        "crash-recoverable via `repro store recover`)",
    )
    ingest.add_argument(
        "--fsync-every", type=int, default=1, metavar="N",
        help="with --wal: fsync once per N batches (1 = every batch)",
    )
    ingest.set_defaults(func=_cmd_store_ingest)

    compact = store_sub.add_parser(
        "compact", help="build the dyadic roll-up tree over current segments"
    )
    compact.add_argument("--dir", required=True)
    compact.add_argument(
        "--budget", type=int, default=None, metavar="CELLS",
        help="dimension cubes: cap on materialized lattice cells across "
        "all pre-aggregated masks",
    )
    compact.add_argument(
        "--workload", default=None, metavar="FILE",
        help="dimension cubes: JSON list of query shapes "
        '([{"where": ["region"], "group_by": ["device"], "weight": 2}]) '
        "steering which masks to materialize (default: observed queries)",
    )
    compact.set_defaults(func=_cmd_store_compact)

    squery = store_sub.add_parser(
        "query", help="answer a point query over a key range [lo, hi)"
    )
    squery.add_argument("--dir", required=True)
    squery.add_argument("--lo", type=float, default=None,
                        help="range start (with --hi; or use --window)")
    squery.add_argument("--hi", type=float, default=None,
                        help="range end; with --window: the window's "
                        "end anchor (default: end of the ingested span)")
    squery.add_argument(
        "--window", type=float, default=None, metavar="W",
        help="trailing window: the last W key units ending at --hi "
        "(default: end of the ingested span) instead of --lo/--hi",
    )
    squery.add_argument(
        "--window-eps", type=float, default=0.0, metavar="E",
        help="with --window: let the planner absorb one straddling "
        "roll-up whole (exponential-histogram rule) — at most a "
        "(1+E) mass overshoot for fewer merges",
    )
    squery.add_argument("--no-rollups", action="store_true",
                        help="force the naive one-merge-per-segment scan")
    squery.add_argument(
        "--where", action="append", default=None, metavar="DIM=VALUE",
        help="dimension cubes: filter to one dimension value (repeatable)",
    )
    squery.add_argument(
        "--group-by", default=None, metavar="D1,D2",
        help="dimension cubes: comma-separated dims to group results by",
    )
    squery.add_argument("--explain", action="store_true",
                        help="print the query plan before answering")
    squery.add_argument("--heavy-hitters", type=float, default=None, metavar="PHI")
    squery.add_argument("--quantile", type=float, default=None, metavar="Q")
    squery.add_argument("--rank", type=float, default=None, metavar="X")
    squery.add_argument("--estimate", default=None, metavar="ITEM")
    squery.add_argument("--distinct", action="store_true")
    squery.set_defaults(func=_cmd_store_query)

    sstats = store_sub.add_parser("stats", help="print store statistics as JSON")
    sstats.add_argument("--dir", required=True)
    sstats.set_defaults(func=_cmd_store_stats)

    recover = store_sub.add_parser(
        "recover",
        help="crash recovery: quarantine damage, replay the WAL, re-commit",
    )
    recover.add_argument("--dir", required=True)
    recover.add_argument("--json", action="store_true",
                         help="print the full recovery report as JSON")
    recover.set_defaults(func=_cmd_store_recover)

    sverify = store_sub.add_parser(
        "verify",
        help="read-only audit: manifest, segment checksums, WAL health "
        "(exit 1 when damaged)",
    )
    sverify.add_argument("--dir", required=True)
    sverify.add_argument("--json", action="store_true",
                         help="print the full audit report as JSON")
    sverify.set_defaults(func=_cmd_store_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AttributeError, TypeError) as exc:
        print(f"error: unsupported operation for this summary type: {exc}",
              file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro store stats | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
