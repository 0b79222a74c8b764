"""Process-parallel execution: the persistent worker runtime.

The merge/query runtime parallelizes two embarrassingly parallel
phases of a distributed aggregation: *leaf builds* (every node ingests
its own shard) and *level merges* (all pairs of a merge-tree level are
independent).  One mechanism serves both: the :class:`WorkerRuntime`
behind :func:`repro.engine.execute_plan`.  Workers are forked *once per
plan* and inherit every slot value and builder closure copy-on-write;
each wave is then **one IPC round-trip** shipping only plan-step ids
(slot names + merge ordinals), never summaries.  State stays resident
in the workers between waves; when a value must move (a wave result, a
stale slot synced to another worker) its bulk bytes travel through
:mod:`repro.core.shared_state` shared-memory arenas, not the command
pipes.  :class:`ParallelExecutor` is the long-lived handle that owns
the worker count and the degradation state across plans.

Design constraints, in order:

1. **Determinism.** Results must be byte-identical regardless of the
   worker count.  The runtime's wave groups are slot-disjoint and each
   slot's merge chain replays in plan order no matter which worker
   executes it.
2. **Graceful, *recoverable*, *visible* degradation.**  Anywhere a
   process pool cannot run — ``max_workers <= 1``, no ``fork`` start
   method, a sandbox that forbids subprocesses — execution degrades to
   the engine's in-process path with identical semantics.  A transient
   failure does **not** disable parallelism forever: the executor
   refuses the next runtime starts (8, doubling per consecutive
   failure up to 64) and then re-probes.  Every degradation is
   recorded in :attr:`ParallelExecutor.degradation_events` so callers
   (benchmarks, the CLI) can surface "this ran serial" instead of
   silently reporting parallel numbers.
3. **Exactly-once under worker crashes.**  A runtime worker publishes a
   wave's results in a single ack message and never mutates shared
   bytes in place, so a worker that dies mid-wave leaves no partial
   effects: the coordinator re-executes exactly the unacknowledged
   groups.
"""

from __future__ import annotations

import os
import pickle
import secrets
import traceback
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .exceptions import ParameterError
from .shared_state import (
    BlockCache,
    ShmArena,
    _unlink_block,
    _untrack,
    import_value,
)

__all__ = [
    "ParallelExecutor",
    "ExecutorLike",
    "resolve_executor",
    "WorkerRuntime",
    "RuntimeUnavailable",
]

#: fork-time payload slot for the persistent runtime: the plan/slot
#: state workers inherit.  Populated only while the worker processes
#: fork (cleared in a ``finally``) so it can never pin a plan's
#: summaries — or closures over them — alive after the fork.
_RUNTIME_PAYLOAD: Any = None

#: degradation cooldown: after a failed runtime start, refuse this many
#: runtime starts before re-probing (doubles per consecutive failure,
#: capped at _MAX_COOLDOWN)
_REPROBE_AFTER = 8
_MAX_COOLDOWN = 64

_PICKLE = pickle.HIGHEST_PROTOCOL


def _fork_available() -> bool:
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class RuntimeUnavailable(Exception):
    """Raised when a persistent worker runtime cannot be started."""


class ParallelExecutor:
    """Worker-count handle that starts runtimes, with serial fallback.

    Parameters
    ----------
    max_workers:
        Pool size.  ``None`` means ``os.cpu_count()``; ``0`` or ``1``
        means serial execution (no subprocesses, no pickling).

    Attributes
    ----------
    fallbacks:
        Number of runtime starts and worker crashes that degraded work
        to the serial path (0 on healthy platforms).
    degradation_events:
        Human-readable record of every degradation (runtime start
        failures, worker crashes) — what callers surface so serial runs
        are never silently reported as parallel.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 0:
            raise ParameterError(
                f"max_workers must be >= 0, got {max_workers!r}"
            )
        self.max_workers = int(max_workers)
        self.fallbacks = 0
        self.degradation_events: List[str] = []
        self._fork_unavailable = not _fork_available()
        self._cooldown = 0
        self._failure_streak = 0
        #: test hook: ``(worker_id, after_items, skip_runs)`` arms a
        #: debug crash in the next runtime started from this executor
        self._debug_worker_crash: Optional[Tuple[int, ...]] = None
        if self._fork_unavailable and self.max_workers > 1:
            self.degradation_events.append(
                "platform has no fork start method; all execution is serial"
            )

    @property
    def is_parallel(self) -> bool:
        """True when the next :meth:`start_runtime` will try to fork."""
        return (
            self.max_workers > 1
            and not self._fork_unavailable
            and self._cooldown == 0
        )

    @property
    def degraded(self) -> bool:
        """True while parallelism is requested but currently unavailable."""
        return self.max_workers > 1 and (
            self._fork_unavailable or self._cooldown > 0
        )

    def start_runtime(
        self,
        session_factory: Callable[..., Any],
        payload: Any,
        workers: Optional[int] = None,
    ) -> "WorkerRuntime":
        """Fork a persistent :class:`WorkerRuntime` inheriting ``payload``.

        Raises :class:`RuntimeUnavailable` when the executor is serial,
        while a failure cooldown lasts (each refused start ticks it
        down), and — after recording the degradation — when workers
        cannot be forked; the caller falls back to its serial path.
        """
        if self.max_workers <= 1 or self._fork_unavailable:
            raise RuntimeUnavailable("executor is serial")
        if self._cooldown > 0:
            self._cooldown -= 1
            raise RuntimeUnavailable("executor is degraded; re-probing later")
        count = min(self.max_workers, workers) if workers else self.max_workers
        try:
            runtime = WorkerRuntime(count, session_factory, payload)
        except (OSError, PermissionError, ImportError) as exc:
            # sandboxes without subprocess support: degrade, remember,
            # and re-probe later — one transient fault must not disable
            # parallelism for the process lifetime
            self.fallbacks += 1
            self._failure_streak += 1
            self._cooldown = min(
                _MAX_COOLDOWN, _REPROBE_AFTER * 2 ** (self._failure_streak - 1)
            )
            self.degradation_events.append(
                f"runtime start degraded to serial ({type(exc).__name__}: "
                f"{exc}); re-probing after {self._cooldown} refused start(s)"
            )
            raise RuntimeUnavailable(str(exc)) from exc
        self._failure_streak = 0
        if self._debug_worker_crash is not None:
            runtime.inject_crash(*self._debug_worker_crash)
            self._debug_worker_crash = None
        return runtime

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "parallel" if self.is_parallel else "serial"
        return f"<ParallelExecutor workers={self.max_workers} ({mode})>"


# ---------------------------------------------------------------------------
# The persistent worker runtime
# ---------------------------------------------------------------------------


def _runtime_worker_main(
    worker_id: int,
    conn: Any,
    session_factory: Callable[..., Any],
    arena_prefix: str,
) -> None:
    """Worker process body: resident state, one loop over commands.

    The payload (plan + slot state) arrives via fork inheritance, never
    the pipe.  Every command is answered with exactly one ack; a wave's
    results are published atomically in that ack, so a crash mid-wave
    leaves no partial effects visible anywhere.
    """
    payload = _RUNTIME_PAYLOAD
    arena = ShmArena(prefix=arena_prefix)
    cache = BlockCache()
    session = session_factory(worker_id, payload, arena)
    crash_after: Optional[int] = None
    crash_skip = 0
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):  # pragma: no cover - coordinator died
            break
        msg = pickle.loads(raw)
        cmd = msg[0]
        if cmd == "close":
            arena.close()
            cache.close()
            try:
                conn.send_bytes(pickle.dumps(("closed", arena.blocks), _PICKLE))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        if cmd == "debug_crash":
            crash_after, crash_skip = msg[1], msg[2]
            conn.send_bytes(pickle.dumps(("ok", [], [], 0), _PICKLE))
            continue
        # ("run", kind, items, sync)
        _cmd, kind, items, sync = msg
        armed = crash_after is not None and crash_skip == 0
        if crash_after is not None and crash_skip > 0:
            crash_skip -= 1
        try:
            for slot, packed in sync:
                tag, body = packed
                value = import_value(body, cache) if tag == "desc" else body
                session.install(slot, value)
            results = []
            for index, item in enumerate(items):
                if armed and index >= crash_after:
                    os._exit(99)  # debug hook: die mid-wave, before the ack
                results.append(session.execute(kind, item))
            if armed:
                os._exit(99)
            reply = ("ok", results, arena.blocks, arena.bytes_written)
        except BaseException as exc:
            try:
                packed_exc = pickle.dumps(exc, _PICKLE)
            except Exception:
                packed_exc = None
            reply = ("err", packed_exc, traceback.format_exc())
        try:
            conn.send_bytes(pickle.dumps(reply, _PICKLE))
        except (BrokenPipeError, OSError):  # pragma: no cover
            break


class WorkerRuntime:
    """Coordinator handle over one plan's persistent forked workers.

    ``session_factory(worker_id, payload, arena)`` runs *inside* each
    worker after the fork and returns the object that owns resident
    state; it must expose ``install(slot, value)`` and
    ``execute(kind, item) -> (slot, descriptor, size)``.  The engine's
    session lives in :mod:`repro.engine.executor`; this class only owns
    processes, pipes, shared-memory lifetime, and accounting.
    """

    def __init__(
        self,
        workers: int,
        session_factory: Callable[..., Any],
        payload: Any,
    ) -> None:
        global _RUNTIME_PAYLOAD
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.workers = int(workers)
        self.live: Set[int] = set()
        self.cache = BlockCache()
        self.stats: Dict[str, Any] = {
            "workers": self.workers,
            "dispatch_rounds": 0,
            "messages_sent": 0,
            "cmd_bytes": 0,
            "ack_bytes": 0,
            "synced_slots": 0,
            "sync_shm_bytes": 0,
            "exported_bytes": 0,
            "worker_crashes": 0,
        }
        self._conns: Dict[int, Any] = {}
        self._procs: Dict[int, Any] = {}
        self._blocks: Set[str] = set()
        self._exported: Dict[int, int] = {}
        self._closed = False
        # deterministic arena block names (short: macOS caps shm names at
        # ~31 chars) so close() can probe-unlink blocks a crashed worker
        # allocated but never got to report in an ack
        self._prefix = f"rs{secrets.token_hex(4)}"
        _RUNTIME_PAYLOAD = payload
        try:
            for worker_id in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_runtime_worker_main,
                    args=(
                        worker_id,
                        child_conn,
                        session_factory,
                        f"{self._prefix}w{worker_id}b",
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns[worker_id] = parent_conn
                self._procs[worker_id] = proc
                self.live.add(worker_id)
        except BaseException:
            _RUNTIME_PAYLOAD = None
            self.close()
            raise
        finally:
            # workers inherited the payload at fork; the coordinator
            # slot must not pin it (or its closures) any longer
            _RUNTIME_PAYLOAD = None

    # -- dispatch ---------------------------------------------------------

    def dispatch(
        self, assignments: Dict[int, Tuple[str, List[Any], List[Any]]]
    ) -> Tuple[Dict[int, List[Any]], List[int]]:
        """One wave: scatter commands, gather acks — a single round-trip.

        ``assignments`` maps worker id to ``(kind, items, sync)``.
        Returns ``(results, crashed)``: per-worker result lists for the
        workers that acked, plus the ids of workers that died before
        acking (their items were *not* applied anywhere — the caller
        re-executes exactly those).  Worker exceptions re-raise here.
        """
        sent: List[int] = []
        crashed: List[int] = []
        for worker_id, (kind, items, sync) in assignments.items():
            blob = pickle.dumps(("run", kind, items, sync), _PICKLE)
            self.stats["cmd_bytes"] += len(blob)
            self.stats["messages_sent"] += 1
            self.stats["synced_slots"] += len(sync)
            for _slot, (tag, body) in sync:
                if tag == "desc" and body.get("kind") != "inline":
                    self.stats["sync_shm_bytes"] += body["span"][1] + sum(
                        length for (_b, _o, length) in body.get("spans", ())
                    )
            try:
                self._conns[worker_id].send_bytes(blob)
                sent.append(worker_id)
            except (BrokenPipeError, OSError):
                self._mark_dead(worker_id)
                crashed.append(worker_id)
        self.stats["dispatch_rounds"] += 1
        results: Dict[int, List[Any]] = {}
        for worker_id in sent:
            try:
                raw = self._conns[worker_id].recv_bytes()
            except (EOFError, OSError):
                self._mark_dead(worker_id)
                crashed.append(worker_id)
                continue
            self.stats["ack_bytes"] += len(raw)
            reply = pickle.loads(raw)
            if reply[0] == "err":
                _tag, packed_exc, worker_tb = reply
                exc = None
                if packed_exc is not None:
                    try:
                        exc = pickle.loads(packed_exc)
                    except Exception:
                        exc = None
                if exc is None:
                    exc = RuntimeError(
                        f"runtime worker {worker_id} failed:\n{worker_tb}"
                    )
                raise exc
            _tag, body, blocks, exported = reply
            self._blocks.update(blocks)
            self._exported[worker_id] = exported
            self.stats["exported_bytes"] = sum(self._exported.values())
            results[worker_id] = body
        return results, crashed

    def _mark_dead(self, worker_id: int) -> None:
        if worker_id in self.live:
            self.live.discard(worker_id)
            self.stats["worker_crashes"] += 1
        conn = self._conns.get(worker_id)
        if conn is not None:
            conn.close()
        proc = self._procs.get(worker_id)
        if proc is not None:
            proc.join(timeout=1.0)

    # -- values -----------------------------------------------------------

    def fetch(self, descriptor: Dict[str, Any], copy: bool = True) -> Any:
        """Materialize an exported value in the coordinator."""
        return import_value(descriptor, self.cache, copy=copy)

    # -- debug ------------------------------------------------------------

    def inject_crash(
        self, worker_id: int, after_items: int, skip_runs: int = 0
    ) -> None:
        """Test hook: make ``worker_id`` die after ``after_items`` items of
        a run command (before its ack), simulating a mid-wave crash.
        ``skip_runs`` run commands execute normally first (e.g. 1 lets the
        build wave through so the crash lands in the first merge wave)."""
        conn = self._conns[worker_id]
        conn.send_bytes(
            pickle.dumps(("debug_crash", after_items, skip_runs), _PICKLE)
        )
        conn.recv_bytes()

    # -- shutdown ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers and release every shared-memory block."""
        if self._closed:
            return
        self._closed = True
        for worker_id in sorted(self._conns):
            conn = self._conns[worker_id]
            if worker_id in self.live:
                try:
                    conn.send_bytes(pickle.dumps(("close",), _PICKLE))
                    reply = pickle.loads(conn.recv_bytes())
                    if reply[0] == "closed":
                        self._blocks.update(reply[1])
                except (BrokenPipeError, EOFError, OSError):
                    pass
            conn.close()
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self.live.clear()
        # the coordinator owns block lifetime (workers are untracked so
        # a crash cannot vaporize state mid-recovery): unlink everything,
        # probing each worker's dense name sequence to also catch blocks
        # a crashed worker allocated but never acked
        from multiprocessing import shared_memory

        for worker_id in range(self.workers):
            seq = 0
            while True:
                name = f"{self._prefix}w{worker_id}b{seq}"
                try:
                    block = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    break
                _untrack(name)
                block.close()
                _unlink_block(block)
                seq += 1
        self.cache.unlink_all(self._blocks)
        self._blocks.clear()
        self.cache.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


ExecutorLike = Union[None, int, ParallelExecutor]


def resolve_executor(executor: ExecutorLike) -> Optional[ParallelExecutor]:
    """Normalize an executor argument.

    ``None`` stays ``None`` (callers keep their scalar legacy path); an
    ``int`` builds a :class:`ParallelExecutor` with that many workers
    (1 = the serial executor, same code path as parallel minus the
    pool); an executor instance passes through.
    """
    if executor is None:
        return None
    if isinstance(executor, ParallelExecutor):
        return executor
    if isinstance(executor, int):
        return ParallelExecutor(max_workers=executor)
    raise ParameterError(
        f"executor must be None, an int worker count, or a ParallelExecutor, "
        f"got {type(executor)!r}"
    )
