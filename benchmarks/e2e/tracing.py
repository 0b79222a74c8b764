"""Per-layer attribution measured from outside the program.

The ``--trace`` run wraps the public entry points of each layer with a
span recorder (plus the WAL replay loop, which has no public entry
point: :func:`repro.store.persistence.load` calls
``StoreBase._replay_wal`` once per logged batch) and passes a counting
:class:`~repro.core.fsio.Filesystem` through the stores' ``fs=``
parameter.  Nothing under ``src/`` changes: the wrappers are installed
by attribute replacement for the traced rounds only and removed after,
and they never change arguments, return values or exceptions.

A span records its name, start, end, parent id and op id (the id of the
top-level benchmark operation it ran under).  Its self time is its
duration minus the durations of its direct children, so the self times
of all spans under an operation sum to that operation's duration.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.fsio import RealFilesystem

#: spans kept for ``--trace-out``; aggregates keep counting past it
MAX_KEPT_SPANS = 400_000

#: the layer each span name's self time is charged to
_LAYER_OF_PREFIX = {
    "op.ingest": "store.ingest",
    "op.compact": "store.compact",
    "op.save": "store.persistence",
    "op.open": "store.persistence",
    "op.query": "store.views",
    "op.cube_query": "store.cube",
    "wal": "store.wal",
    "fsio": "core.fsio",
    "summary": "summaries",
    "engine": "engine",
    "planner": "store.planner",
    "persistence": "store.persistence",
    "codecs": "core.codecs",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    if span_name in _LAYER_OF_PREFIX:
        return _LAYER_OF_PREFIX[span_name]
    return _LAYER_OF_PREFIX[span_name.split(".", 1)[0]]


class Recorder:
    """In-memory span recorder with per-name aggregates.

    Wrappers record only while :attr:`active` is set, which the runner
    sets inside timed operations of traced rounds; calls made by the
    oracle or by set-up pass straight through.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[int, Optional[int], Optional[int], str, float, float]] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: List[list] = []
        self._open: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of per-round aggregates (spans are kept)."""
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0

    def push(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        op = self._stack[0][0] if self._stack else self._next_id
        frame = [self._next_id, parent, op, name, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, parent, op, name, child, start = frame
        duration = end - start
        self._stack.pop()
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][4] += duration
        else:
            self.top_level += duration
        if not self._open[name]:  # recursion counts once
            self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, op, name, start, end))
        else:
            self.dropped += 1

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Recorder", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``; ``after`` sees the result."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = recorder.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.pop(frame)
            if after is not None:
                after(recorder, args, result)
            return result

        return traced

    def layer_self(self) -> Dict[str, float]:
        """Self time per layer for the current aggregates."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[layer_of(name)] += seconds
        return dict(layers)


class CountingFilesystem(RealFilesystem):
    """The real filesystem, with fsyncs timed and bytes counted."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def _timed(self, name: str, fn: Callable, *args) -> None:
        recorder = self._recorder
        if not recorder.active:
            fn(*args)
            return
        frame = recorder.push(name)
        try:
            fn(*args)
        finally:
            recorder.pop(frame)

    def fsync(self, handle) -> None:
        self._timed("fsio.fsync", super().fsync, handle)

    def fsync_dir(self, path: str) -> None:
        self._timed("fsio.fsync_dir", super().fsync_dir, path)

    def write(self, handle, data: bytes) -> None:
        super().write(handle, data)
        recorder = self._recorder
        if recorder.active:
            size = len(data)
            recorder.counts["fsio.write_bytes"] += size
            path = str(getattr(handle, "name", ""))
            if os.path.basename(os.path.dirname(path)) == "wal":
                recorder.counts["wal.bytes"] += size
            elif os.path.basename(path).startswith("manifest.json"):
                recorder.counts["persistence.manifest_bytes"] += size

    def read_bytes(self, path: str) -> bytes:
        data = super().read_bytes(path)
        if self._recorder.active:
            self._recorder.counts["fsio.read_bytes"] += len(data)
        return data


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _count_merge_inputs(recorder: Recorder, args: tuple, _result: Any) -> None:
    others = args[1] if len(args) > 1 else None
    if hasattr(others, "__len__"):
        recorder.counts["summary.merge_inputs"] += len(others)


def _count_fan_in(recorder: Recorder, _args: tuple, plan: Any) -> None:
    fan_in = plan.fan_in
    recorder.counts["planner.fan_in_total"] += fan_in
    recorder.maxima["planner.fan_in_max"] = max(
        recorder.maxima["planner.fan_in_max"], fan_in
    )


def _count_decoded(recorder: Recorder, args: tuple, _result: Any) -> None:
    recorder.counts["codecs.decoded_bytes"] += len(args[0])


class Patches:
    """Attribute replacements that :meth:`remove` undoes exactly."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, own, original in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


#: member classes and the answer methods the workloads call
_ANSWER_METHODS = {
    "misra_gries": ("heavy_hitters",),
    "kll_quantiles": ("quantiles",),
    "hyperloglog": ("distinct",),
}


def install(recorder: Recorder) -> Patches:
    """Wrap every traced entry point; returns the patches to remove."""
    from repro.core.registry import get_summary_class
    from repro.store import chain, common, cube, persistence, segment, store, wal

    patches = Patches()

    def wrap(owner, attr, name, after=None):
        patches.replace(owner, attr, recorder.wrap(getattr(owner, attr), name, after))

    wrap(wal.WriteAheadLog, "append", "wal.append")
    wrap(wal, "scan_wal", "wal.scan")
    wrap(persistence, "scan_wal", "wal.scan")
    wrap(common.StoreBase, "_replay_wal", "wal.replay")
    wrap(persistence, "read_segment", "persistence.read_segment")
    wrap(persistence, "write_segment", "persistence.write_segment")
    wrap(persistence, "decode_summary", "codecs.decode", _count_decoded)
    wrap(persistence, "encode_summary", "codecs.encode")
    wrap(chain.EpochChain, "plan", "planner.plan", _count_fan_in)
    wrap(chain, "execute_plan", "engine.execute_plan")
    for module in (store, cube, chain, segment):
        wrap(module, "copy_summary", "summary.copy")
    for type_name, answers in _ANSWER_METHODS.items():
        cls = get_summary_class(type_name)
        wrap(cls, "update_batch", f"summary.update_batch.{type_name}")
        wrap(cls, "merge_many", f"summary.merge_many.{type_name}", _count_merge_inputs)
        for method in answers:
            wrap(cls, method, f"summary.answer.{type_name}")
    return patches


class GcMeter:
    """Collector pauses while the recorder is active (``gc.callbacks``)."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self._start = None
        self.seconds = 0.0
        self.collections = 0

    def __call__(self, phase: str, _info: dict) -> None:
        if not self._recorder.active:
            self._start = None
            return
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


# ---------------------------------------------------------------------------
# Per-round layer metrics
# ---------------------------------------------------------------------------


def _sum_prefix(table: Dict[str, float], prefix: str) -> float:
    return sum(value for name, value in table.items() if name.startswith(prefix))


def layer_metrics(
    recorder: Recorder,
    gc_meter: GcMeter,
    round_counts: Dict[str, float],
    total_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced round.

    ``round_counts`` carries the counters the runner read from return
    values and ``stats()`` (ingest/compaction counters, view-cache and
    planner deltas, cube plans).  Names ending in ``self_s`` are self
    times; other ``_s`` names are inclusive durations of that entry
    point's spans.
    """
    inc, own, calls, counts = (
        recorder.inclusive,
        recorder.self_time,
        recorder.calls,
        recorder.counts,
    )
    get = round_counts.get
    wal_records = get("wal.records", 0)
    plans = calls["planner.plan"]
    hits, misses = get("views.hits", 0), get("views.misses", 0)
    cube_queries = get("cube.queries", 0)
    metrics = {
        "wal.append_s": inc["wal.append"],
        "wal.bytes_per_record": counts["wal.bytes"] / wal_records if wal_records else 0.0,
        "wal.replay_s": inc["wal.scan"] + inc["wal.replay"],
        "fsio.fsync_count": calls["fsio.fsync"],
        "fsio.fsync_s": inc["fsio.fsync"] + inc["fsio.fsync_dir"],
        "fsio.fsync_dir_count": calls["fsio.fsync_dir"],
        "fsio.write_bytes": counts["fsio.write_bytes"],
        "fsio.read_bytes": counts["fsio.read_bytes"],
        "ingest.self_s": own["op.ingest"],
        "ingest.segments_created": get("ingest.segments_created", 0),
        "ingest.segments_replaced": get("ingest.segments_replaced", 0),
        "ingest.rollups_invalidated": get("ingest.rollups_invalidated", 0),
        "summary.update_batch_s": _sum_prefix(inc, "summary.update_batch."),
        "summary.update_batch_calls": sum(
            n for name, n in calls.items() if name.startswith("summary.update_batch.")
        ),
        "summary.merge_many_calls": sum(
            n for name, n in calls.items() if name.startswith("summary.merge_many.")
        ),
        "summary.merge_inputs": counts["summary.merge_inputs"],
        "summary.copy_s": inc["summary.copy"],
        "summary.answer_s": _sum_prefix(inc, "summary.answer."),
        "engine.execute_plan_s": inc["engine.execute_plan"],
        "engine.self_s": own["engine.execute_plan"],
        "engine.plans": calls["engine.execute_plan"],
        "engine.rollups_built": get("engine.rollups_built", 0),
        "engine.merge_inputs": get("engine.merge_inputs", 0),
        "planner.plan_s": inc["planner.plan"],
        "planner.plans": plans,
        "planner.fan_in_mean": counts["planner.fan_in_total"] / plans if plans else 0.0,
        "planner.fan_in_max": recorder.maxima["planner.fan_in_max"],
        "planner.window_queries": get("planner.window_queries", 0),
        "planner.window_slack_epochs_total": get("planner.window_slack_epochs_total", 0),
        "planner.degraded_blocks_total": get("planner.degraded_blocks_total", 0),
        "views.hits": hits,
        "views.misses": misses,
        "views.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "query.self_s": own["op.query"],
        "persistence.save_self_s": own["op.save"],
        "persistence.write_segment_s": inc["persistence.write_segment"],
        "persistence.segments_written": calls["persistence.write_segment"],
        "persistence.read_segment_s": inc["persistence.read_segment"],
        "persistence.segments_read": calls["persistence.read_segment"],
        "persistence.manifest_bytes": counts["persistence.manifest_bytes"],
        "codecs.encode_s": inc["codecs.encode"],
        "codecs.decode_s": inc["codecs.decode"],
        "codecs.encode_calls": calls["codecs.encode"],
        "codecs.decode_calls": calls["codecs.decode"],
        "codecs.decoded_bytes": counts["codecs.decoded_bytes"],
        "cube.dim_cells_built": get("cube.dim_cells_built", 0),
        "cube.time_rollups_built": get("cube.time_rollups_built", 0),
        "cube.merge_inputs": get("cube.merge_inputs", 0),
        "cube.query_self_s": own["op.cube_query"],
        "cube.cells_merged_mean": (
            get("cube.cells_merged", 0) / cube_queries if cube_queries else 0.0
        ),
        "cube.groups_mean": get("cube.groups", 0) / cube_queries if cube_queries else 0.0,
        "cube.stale_epochs_total": get("cube.stale_epochs", 0),
        "python.gc_s": gc_meter.seconds,
        "python.gc_collections": gc_meter.collections,
    }
    for type_name in _ANSWER_METHODS:
        metrics[f"summary.merge_many_s.{type_name}"] = inc[
            f"summary.merge_many.{type_name}"
        ]
    unattributed = total_s - recorder.top_level
    metrics["trace.unattributed_share"] = unattributed / total_s if total_s else 0.0
    return metrics
