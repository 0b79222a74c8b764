"""The four workloads: inputs from a seed, and one timed round each.

Load shape for all of them: one process, one closed-loop client (the
next operation starts when the previous one returned), the serial
engine (no ``executor``), no threads.  Every round works in a fresh
store directory; rounds of a run reuse the inputs generated in set-up.

Why each workload exists, and what it isolates, is in README.md; the
sizes below are frozen — changing one changes every metric.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.store import CubeStore, SegmentStore
from repro.workloads.timeseries import window_replay_events

from hostspeed import PROBE_EVERY, probe
from oracle import (
    CubeOracle,
    FlatOracle,
    check_cube_group,
    check_flat_query,
    check_rank_share,
    state_digest,
)

QUANTILES = (0.5, 0.99)
#: cold opens per round: one open is a single sample per round, too
#: few to time steadily
OPEN_REPEATS = 3
HEAVY_PHI = 0.01
UNIVERSE = 10_000


class OpFailed(Exception):
    """A timed operation raised; the meter has already counted it."""


class Meter:
    """Times one round's operations and collects its counters.

    Every timed operation is one call into the store plus, for queries,
    answer extraction; ``ops`` lists ``(phase, seconds)`` for each in
    order.  Rounds of a workload run the same operations in the same
    order, so the runner can line them up across rounds.  Work between
    operations (batch slicing, oracle checks, host-speed probes) is
    never timed.  In a traced round the recorder is active only inside
    timed operations.
    """

    def __init__(self, recorder: Any, traced: bool, fs: Any) -> None:
        self.recorder = recorder
        self.traced = traced
        self.fs = fs
        self.ops: List[Tuple[str, float]] = []
        self.probes: List[Tuple[int, float]] = []
        self.total = 0.0
        self.records_ingested = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Counter = Counter()
        self.bytes_per_record = 0.0
        #: rank error of every distinct quantile answer of the round
        self.rank_errors: List[float] = []
        self._checked: Dict[Any, Optional[str]] = {}

    def timed(self, phase: str, thunk: Callable[[], Any], span: Optional[str] = None):
        recorder = self.recorder
        if len(self.ops) % PROBE_EVERY == 0:
            self.probes.append((len(self.ops), probe()))
        self.attempted += 1
        frame = None
        start = time.perf_counter()
        if self.traced:
            recorder.active = True
            frame = recorder.push(span or f"op.{phase}")
        try:
            result = thunk()
        except Exception as exc:
            self.fail(f"{phase} raised {exc!r}")
            raise OpFailed(phase) from exc
        finally:
            if frame is not None:
                recorder.pop(frame)
                recorder.active = False
            elapsed = time.perf_counter() - start
            self.ops.append((phase, elapsed))
            self.total += elapsed
        return result

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check(self, key: Any, run_check: Callable[[], Optional[str]]) -> None:
        """Run an answer check once per distinct answer; count a failure."""
        if key not in self._checked:
            self._checked[key] = run_check()
        problem = self._checked[key]
        if problem is not None:
            self.fail(problem)

    def check_round(self) -> None:
        """Checks over the whole round, once its operations have run."""
        problem = check_rank_share(self.rank_errors)
        if problem is not None:
            self.fail(problem)

    # -- store operations -------------------------------------------------

    def ingest(self, store: Any, records: list, keys: list) -> None:
        counters = self.timed("ingest", lambda: store.ingest(records, keys))
        self.records_ingested += len(records)
        self.counts["ingest.segments_created"] += counters.get(
            "segments_created", counters.get("cells_created", 0)
        )
        self.counts["ingest.segments_replaced"] += counters.get(
            "segments_replaced", counters.get("cells_replaced", 0)
        )
        self.counts["ingest.rollups_invalidated"] += counters["rollups_invalidated"]
        if store.wal is not None:
            self.counts["wal.records"] += len(records)

    def compact(self, store: Any, **kwargs: Any) -> None:
        counters = self.timed("compact", lambda: store.compact(**kwargs))
        built = counters.get("rollups_built", 0)
        for name in ("dim_cells_built", "time_rollups_built"):
            built += counters.get(name, 0)
            self.counts[f"cube.{name}"] += counters.get(name, 0)
        self.counts["engine.rollups_built"] += built
        self.counts["engine.merge_inputs"] += counters["merge_inputs"]
        if "dim_cells_built" in counters:
            self.counts["cube.merge_inputs"] += counters["merge_inputs"]

    def save(self, store: Any, path: str) -> None:
        self.timed("save", lambda: store.save(path, fs=self.fs))

    def open(self, cls: Any, path: str, fsync_every: Optional[int] = None) -> Any:
        """Cold-open ``path`` :data:`OPEN_REPEATS` times; returns the last store.

        Opening is read-only, so the repeats see the same bytes; only
        the last one attaches the WAL when ``fsync_every`` is given.
        """
        for _ in range(OPEN_REPEATS - 1):
            self.timed("open", lambda: cls.open(path, fs=self.fs))
        if fsync_every is None:
            return self.timed("open", lambda: cls.open(path, fs=self.fs))
        return self.timed(
            "open", lambda: cls.open_durable(path, fsync_every=fsync_every, fs=self.fs)
        )

    def absorb_stats(self, store: Any) -> None:
        """View-cache and planner counters of a store that served queries."""
        stats = store.stats()
        self.counts["views.hits"] += stats["view_cache"]["hits"]
        self.counts["views.misses"] += stats["view_cache"]["misses"]
        for name, value in stats["planner"].items():
            self.counts[f"planner.{name}"] += value

    def measure_disk(self, path: str, records: int) -> None:
        total = 0
        for root, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
        self.bytes_per_record = total / records


# ---------------------------------------------------------------------------
# Shared flat-store pieces
# ---------------------------------------------------------------------------


def flat_events(
    rng: np.random.Generator,
    n: int,
    span: int,
    late_fraction: float,
    max_delay: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Items, timestamps and lognormal values in delivery order."""
    events = window_replay_events(
        n,
        span=span,
        universe=UNIVERSE,
        skew=1.3,
        late_fraction=late_fraction,
        max_delay=max_delay,
        rng=rng,
    )
    items = np.fromiter((item for item, _t in events), dtype=np.int64, count=n)
    times = np.fromiter((t for _item, t in events), dtype=np.float64, count=n)
    values = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    return items, times, values


def to_batches(
    items: np.ndarray, times: np.ndarray, values: np.ndarray, size: int
) -> List[Tuple[list, list]]:
    records = [
        {"hot": item, "lat": value}
        for item, value in zip(items.tolist(), values.tolist())
    ]
    keys = times.tolist()
    return [
        (records[i : i + size], keys[i : i + size]) for i in range(0, len(records), size)
    ]


def flat_store(codec: str) -> SegmentStore:
    store = SegmentStore(width=1, codec=codec)
    store.add_member("hot", "misra_gries", k=256)
    store.add_member("lat", "kll_quantiles", k=200)
    return store


def random_range(rng: np.random.Generator, span: int) -> Tuple[int, int]:
    """A uniformly drawn epoch range ``lo < hi`` inside ``[0, span]``."""
    lo, hi = sorted(rng.choice(span + 1, size=2, replace=False).tolist())
    return lo, hi


def distinct_ranges(rng: np.random.Generator, count: int, span: int) -> List[tuple]:
    """``count`` distinct ``("range", lo, hi)`` epoch ranges inside the span."""
    seen = set()
    while len(seen) < count:
        seen.add(random_range(rng, span))
    ranges = [("range", float(lo), float(hi)) for lo, hi in sorted(seen)]
    rng.shuffle(ranges)
    return ranges


def flat_query(meter: Meter, store: SegmentStore, oracle: FlatOracle, query: tuple) -> None:
    """One timed query plus answer extraction, then its oracle check."""
    kind, a, b = query

    def ask():
        if kind == "window":
            result = store.query(window=a, window_eps=b)
        else:
            result = store.query(a, b)
        result["hot"].heavy_hitters(HEAVY_PHI)
        return result, result["lat"].quantiles(QUANTILES)

    try:
        result, answers = meter.timed("query", ask)
    except OpFailed:
        return
    window = (a, b) if kind == "window" else None
    meter.check(
        (store.generation, query),
        lambda: check_flat_query(
            oracle, result, QUANTILES, answers, 1.0, meter.rank_errors, window
        ),
    )


def check_digest(meter: Meter, expected: str, store: Any, what: str, **kwargs) -> None:
    if state_digest(store, **kwargs) != expected:
        meter.fail(f"{what}: state digest differs from the one taken before")


def _epochs(times: np.ndarray) -> np.ndarray:
    return np.floor(times).astype(np.int64)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """WAL ingest with compact+save checkpoints → cold open → distinct queries."""

    name = "pipeline"
    #: compact+save checkpoints per round, evenly spaced, the last at the
    #: end of ingest; one snapshot would be one noisy sample per round
    checkpoints = 4

    def __init__(self, smoke: bool) -> None:
        self.n = 2**12 if smoke else 2**15
        self.span = 64 if smoke else 128
        self.batch = 64 if smoke else 32
        self.queries = 40 if smoke else 1000

    def setup(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        items, times, values = flat_events(rng, self.n, self.span, 0.05, 4)
        windows = rng.choice(
            np.arange(4, self.span + 1), size=self.queries // 10, replace=False
        )
        queries = distinct_ranges(rng, self.queries - len(windows), self.span)
        queries += [("window", float(w), 0.05) for w in windows.tolist()]
        rng.shuffle(queries)
        return {
            "batches": to_batches(items, times, values, self.batch),
            "queries": queries,
            "oracle": FlatOracle(_epochs(times), items, values, self.span, UNIVERSE),
        }

    def round(self, state: Dict[str, Any], meter: Meter, workdir: str) -> None:
        store = flat_store("binary.v1")
        store.enable_wal(os.path.join(workdir, "wal"), fsync_every=8, fs=meter.fs)
        every = len(state["batches"]) // self.checkpoints
        for index, (records, keys) in enumerate(state["batches"], start=1):
            meter.ingest(store, records, keys)
            if index % every == 0:
                meter.compact(store)
                meter.save(store, workdir)
        before = state_digest(store)
        store.wal.close()
        del store
        opened = meter.open(SegmentStore, workdir)
        check_digest(meter, before, opened, "cold open")
        for query in state["queries"]:
            flat_query(meter, opened, state["oracle"], query)
        meter.absorb_stats(opened)
        meter.measure_disk(workdir, opened.records)


# ---------------------------------------------------------------------------
# ingest_durable
# ---------------------------------------------------------------------------


class IngestDurable:
    """fsync-per-ack ingest with incremental saves and a WAL-only tail."""

    name = "ingest_durable"
    save_every = 200
    wal_tail = 50

    def __init__(self, smoke: bool) -> None:
        self.n = 6_000 if smoke else 30_000
        self.span = 64 if smoke else 128
        self.batch = 100 if smoke else 30
        self.queries = 40 if smoke else 1000
        if smoke:
            self.save_every, self.wal_tail = 20, 10

    def setup(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        items, times, values = flat_events(rng, self.n, self.span, 0.2, 8)
        return {
            "batches": to_batches(items, times, values, self.batch),
            "queries": distinct_ranges(rng, self.queries, self.span),
            "oracle": FlatOracle(_epochs(times), items, values, self.span, UNIVERSE),
        }

    def round(self, state: Dict[str, Any], meter: Meter, workdir: str) -> None:
        batches = state["batches"]
        last_save = len(batches) - self.wal_tail
        store = flat_store("binary.v1")
        store.enable_wal(os.path.join(workdir, "wal"), fsync_every=1, fs=meter.fs)
        for index, (records, keys) in enumerate(batches, start=1):
            meter.ingest(store, records, keys)
            if index <= last_save and (index % self.save_every == 0 or index == last_save):
                meter.compact(store)
                meter.save(store, workdir)
        before = state_digest(store, kll_samples=False)
        del store  # dropped without a save: the tail exists only in the WAL
        opened = meter.open(SegmentStore, workdir)
        check_digest(meter, before, opened, "WAL replay", kll_samples=False)
        for query in state["queries"]:
            flat_query(meter, opened, state["oracle"], query)
        meter.absorb_stats(opened)
        meter.measure_disk(workdir, opened.records)


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------


class QueryMix:
    """A live dashboard over a saved json.v2 store, writes beside reads."""

    name = "query_mix"
    ingest_every = 8
    ingest_size = 16
    compact_every = 500
    dashboard_share = 0.6

    def __init__(self, smoke: bool) -> None:
        self.n = 2**12 if smoke else 2**15
        self.span = 64 if smoke else 128
        self.queries = 400 if smoke else 2_000
        if smoke:
            self.compact_every = 200

    def _dashboard(self) -> List[tuple]:
        span = self.span
        return [
            ("range", 0.0, float(span)),
            ("range", float(span - span // 16), float(span)),
            ("range", float(span - span // 4), float(span)),
            ("range", float(span // 4), float(span // 2)),
            ("range", float(span // 2), float(3 * span // 4)),
            ("range", float(span - span // 8), float(span)),
            ("window", float(span // 32), 0.05),
            ("window", float(span // 8), 0.05),
        ]

    def setup(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        items, times, values = flat_events(rng, self.n, self.span, 0.05, 4)
        base = os.path.join(workdir, "base")
        store = flat_store("json.v2")
        for records, keys in to_batches(items, times, values, 256):
            store.ingest(records, keys)
        store.compact()
        digest = state_digest(store)
        store.save(base)

        dashboard = self._dashboard()
        weights = 1.0 / np.arange(1, len(dashboard) + 1) ** 1.1
        weights /= weights.sum()
        picks = rng.choice(len(dashboard), size=self.queries, p=weights)
        fresh = rng.random(self.queries) >= self.dashboard_share
        queries = []
        for pick, is_fresh in zip(picks.tolist(), fresh.tolist()):
            if is_fresh:
                lo, hi = random_range(rng, self.span)
                queries.append(("range", float(lo), float(hi)))
            else:
                queries.append(dashboard[pick])

        writes = self.queries // self.ingest_every
        size = writes * self.ingest_size
        w_items = (rng.zipf(1.3, size=size) - 1) % UNIVERSE
        w_times = self.span - rng.random(size) * (self.span / 16)
        w_times = np.minimum(w_times, np.nextafter(float(self.span), 0.0))
        w_values = rng.lognormal(mean=0.0, sigma=1.0, size=size)
        return {
            "base": base,
            "digest": digest,
            "queries": queries,
            "writes": to_batches(w_items, w_times, w_values, self.ingest_size),
            "write_arrays": (_epochs(w_times), w_items, w_values),
            "oracle": FlatOracle(_epochs(times), items, values, self.span, UNIVERSE),
        }

    def round(self, state: Dict[str, Any], meter: Meter, workdir: str) -> None:
        path = os.path.join(workdir, "store")
        shutil.copytree(state["base"], path)
        oracle = state["oracle"]
        oracle.reset_delta()
        w_epochs, w_items, w_values = state["write_arrays"]
        store = meter.open(SegmentStore, path, fsync_every=8)
        check_digest(meter, state["digest"], store, "cold open")
        writes = iter(enumerate(state["writes"]))
        for index, query in enumerate(state["queries"]):
            if index and index % self.ingest_every == 0:
                w, (records, keys) = next(writes)
                meter.ingest(store, records, keys)
                part = slice(w * self.ingest_size, (w + 1) * self.ingest_size)
                oracle.extend(w_epochs[part], w_items[part], w_values[part])
            if index and index % self.compact_every == 0:
                meter.compact(store)
                meter.save(store, path)
            flat_query(meter, store, oracle, query)
        meter.absorb_stats(store)
        meter.compact(store)
        meter.save(store, path)
        meter.measure_disk(path, store.records)
        oracle.reset_delta()


# ---------------------------------------------------------------------------
# cube_groupby
# ---------------------------------------------------------------------------

REGIONS = 8
SERVICES = 32
USERS = 2_000


class CubeGroupBy:
    """Group-by and sub-population queries over a dimension cube."""

    name = "cube_groupby"
    compact_workload = ({}, {"group_by": ["region"]}, {"group_by": ["service"]})

    def __init__(self, smoke: bool) -> None:
        self.n = 4_000 if smoke else 8_000
        self.span = 2
        self.batch = 32
        self.queries = 60 if smoke else 1000

    def setup(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        n = self.n
        times = np.sort(rng.random(n)) * self.span
        regions = rng.integers(0, REGIONS, size=n)
        services = (rng.zipf(1.4, size=n) - 1) % SERVICES
        latencies = rng.lognormal(mean=0.0, sigma=1.0, size=n)
        # few enough users that every group's distinct count stays in
        # HyperLogLog's linear-counting range (< 2.5 x 1024 registers)
        users = rng.integers(0, USERS, size=n)
        records = [
            {"region": f"r{r}", "service": f"s{s}", "lat": lat, "users": user}
            for r, s, lat, user in zip(
                regions.tolist(), services.tolist(), latencies.tolist(), users.tolist()
            )
        ]
        keys = times.tolist()
        batches = [
            (records[i : i + self.batch], keys[i : i + self.batch])
            for i in range(0, n, self.batch)
        ]
        # the shapes' latencies form separate modes: single-chain shapes
        # (where service=, grand total) are ~4x cheaper than group_by
        # region and ~15x cheaper than the 32-group where region= group_by
        # service.  At these shares p50 sits inside the group_by-region
        # mode and p99 inside the 32-group one, not on a mode boundary or
        # in its sparse tail.  Shape counts are exact and every shape
        # cycles through all epoch ranges, so seeds differ only in the
        # filtered values and the order.
        counts = [self.queries * share // 10 for share in (4, 2, 2)]
        shapes = np.repeat(np.arange(4), counts + [self.queries - sum(counts)])
        ranges = [
            (lo, hi) for lo in range(self.span) for hi in range(lo + 1, self.span + 1)
        ]
        queries = []
        for index, shape in enumerate(shapes.tolist()):
            lo, hi = ranges[index % len(ranges)]
            if shape == 0:
                queries.append((lo, hi, (), ("region",)))
            elif shape == 1:
                service = f"s{int(rng.integers(0, SERVICES))}"
                queries.append((lo, hi, (("service", service),), ()))
            elif shape == 2:
                queries.append((lo, hi, (), ()))
            else:
                region = f"r{int(rng.integers(0, REGIONS))}"
                queries.append((lo, hi, (("region", region),), ("service",)))
        rng.shuffle(queries)
        oracle = CubeOracle(
            regions, services, _epochs(times), latencies, users, SERVICES, self.span
        )
        return {"batches": batches, "queries": queries, "oracle": oracle}

    def _query(self, meter: Meter, cube: CubeStore, oracle: CubeOracle, query: tuple) -> None:
        lo, hi, where, group_by = query

        def ask():
            result = cube.query(lo, hi, where=dict(where), group_by=list(group_by))
            # a filter can select an empty group; it has no quantiles
            answers = {
                key: (
                    m["lat"].quantiles(QUANTILES) if m["lat"].n else [],
                    m["users"].distinct(),
                )
                for key, m in result.groups.items()
            }
            return result, answers

        try:
            result, answers = meter.timed("query", ask, span="op.cube_query")
        except OpFailed:
            return
        plan = result.plan
        meter.counts["cube.queries"] += 1
        meter.counts["cube.cells_merged"] += plan.cells_merged
        meter.counts["cube.groups"] += plan.groups
        meter.counts["cube.stale_epochs"] += plan.stale_epochs
        meter.check(
            (cube.generation, query),
            lambda: self._check(
                oracle, result, answers, dict(where), group_by, meter.rank_errors
            ),
        )

    @staticmethod
    def _check(oracle, result, answers, where, group_by, rank_errors) -> Optional[str]:
        lo, hi = (int(round(x)) for x in result.key_range)
        regions = [int(where["region"][1:])] if "region" in where else range(REGIONS)
        services = [int(where["service"][1:])] if "service" in where else range(SERVICES)
        expected = {}
        for key in _group_keys(group_by, regions, services):
            rs = [int(key[0][1:])] if group_by == ("region",) else regions
            ss = [int(key[0][1:])] if group_by == ("service",) else services
            latencies, users = oracle.group(rs, ss, lo, hi)
            if len(latencies) or not group_by:
                expected[key] = (latencies, users)
        if set(expected) != set(result.groups):
            return f"groups {sorted(result.groups)} but the oracle has {sorted(expected)}"
        for key, (latencies, users) in expected.items():
            if not len(latencies):
                continue
            quantiles, distinct = answers[key]
            problem = check_cube_group(
                latencies, users, result.groups[key], QUANTILES, quantiles, distinct,
                rank_errors,
            )
            if problem:
                return f"group {key}: {problem}"
        return None

    def round(self, state: Dict[str, Any], meter: Meter, workdir: str) -> None:
        # no view cache: every query merges, so this workload prices the
        # planner and the engine, and query_mix prices the cache
        cube = CubeStore(width=1, dims=("region", "service"), view_capacity=0)
        cube.add_member("lat", "kll_quantiles", k=200)
        cube.add_member("users", "hyperloglog", p=10)
        for records, keys in state["batches"]:
            meter.ingest(cube, records, keys)
        # snapshots before and after compaction: the second writes only
        # the new roll-up cells
        meter.save(cube, workdir)
        meter.compact(cube, workload=list(self.compact_workload))
        for query in state["queries"]:
            self._query(meter, cube, state["oracle"], query)
        meter.absorb_stats(cube)
        before = state_digest(cube)
        meter.save(cube, workdir)
        del cube
        opened = meter.open(CubeStore, workdir)
        check_digest(meter, before, opened, "cold open")
        meter.measure_disk(workdir, opened.records)


def _group_keys(group_by: Sequence[str], regions, services) -> List[tuple]:
    if group_by == ("region",):
        return [(f"r{r}",) for r in regions]
    if group_by == ("service",):
        return [(f"s{s}",) for s in services]
    return [()]


WORKLOADS = {
    cls.name: cls for cls in (Pipeline, IngestDurable, QueryMix, CubeGroupBy)
}
