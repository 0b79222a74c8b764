#!/usr/bin/env python3
"""Dead-duplication guard for the chain kernel, the merge schedules,
the shared summary structures and the sliding window.

The storage kernel (``repro.store.chain`` + ``repro.store.common`` +
the kind-generic ``repro.store.persistence``) exists so that the flat
store and the cube share ONE implementation of epoch chains, ingest,
dyadic roll-up compaction, query range/window resolution,
fingerprinting, and the snapshot/WAL lifecycle.  This script fails CI
if a known pre-refactor duplicate creeps back in:

* ``_CubeGroup`` — the cube's private chain type that the kernel's
  :class:`~repro.store.chain.EpochChain` replaced;
* per-kind persistence entry points (``def save_store`` /
  ``def load_store`` / ``def save_cube`` / ``def load_cube`` /
  ``def _cube_from_manifest``, anywhere) — both kinds go through the
  one kind-tagged container format behind ``save``/``load`` and
  ``StoreBase.open``;
* per-kind ingest (``def _build_cells`` / ``def _install_cells``
  outside ``common.py``; ``def _build_base_segment`` and
  ``def _invalidate_mask_cells`` anywhere) — batches are routed,
  built, logged and installed by ``StoreBase``, with the cube's mask
  invalidation behind its ``_after_put`` hook;
* per-store roll-up compilers and compaction loops
  (``def _compile_rollup`` / ``def _rollup_steps`` /
  ``def _compile_compaction`` / ``def compile_rollup_steps`` anywhere;
  ``def compact_chains`` outside ``chain.py``) — time roll-ups of any
  set of chains are built by :func:`~repro.store.chain.compact_chains`;
* roll-ups compiled into the engine's plan IR (a ``MergeStep(`` or
  ``MergePlan(`` anywhere in the store package) — the store builds
  every roll-up and cube cell directly with
  :func:`~repro.store.chain.merged_segment`;
* per-store window/slack arithmetic (``def _resolve_window`` and
  ``def _window_range`` anywhere; ``def resolve_window`` outside
  ``chain.py``) — the slack rule lives only in
  :func:`~repro.store.chain.resolve_window`, reached through
  ``StoreBase._query_epochs``;
* per-kind fingerprints and chain aliases (``def _fingerprint_extra``
  / ``def _child_node`` anywhere) — ``StoreBase.fingerprint`` digests
  ``_chain_index()`` and ``_manifest_extra()`` for both kinds;
* a second summary copier (``def copy_summary`` outside ``segment.py``)
  or a serialization copy (a ``from_dict(`` … ``.to_dict())`` round trip
  on one line, anywhere) — every merge operand the store copies goes
  through :func:`~repro.store.segment.copy_summary`, which is
  ``Summary.copy()``; persistence decodes through ``repro.core.codecs``;
* a second roll-up builder (``def seed_segment`` anywhere;
  ``def merged_segment`` outside ``chain.py``) — every ingest
  replacement, time roll-up and cube cell is built by
  :func:`~repro.store.chain.merged_segment`.

It also scans all of ``src/repro`` for the deleted merge-plan IR and
for second copies of the merge shapes: ``merge_all``'s folds and the
distributed simulator both replay a
:class:`~repro.core.topology.MergeSchedule`, so

* ``class MergePlan``, ``class MergeStep``, ``def execute_plan``,
  ``def compile_fold``, ``def compile_aggregation`` and
  ``def _compile_(chain|tree|random|kway)`` are banned everywhere;
* ``def balanced_tree`` and ``def random_tree`` may appear only in
  ``core/topology.py``, the one copy of every shape;
* ``def _carry`` and ``def _flush_buffer`` may appear only in
  ``core/merge_reduce.py``: the Section 3.2 quantiles, MRL, the hybrid
  and the eps-approximation share one buffer and binary counter;
* ``def _row_indices`` may appear only in ``core/counter_table.py``:
  CountMin, conservative CountMin, CountSketch and AMS share one
  counter table;
* ``class WindowedMisraGries`` and ``class WindowQueryResult``, the
  fixed-bucket window the combinator replaced, are banned everywhere
  (its saved data decodes through ``windows/legacy.py``);
* ``def _time_target`` and ``def _expire`` may appear only in
  ``windows/windowed.py``: every sliding window routes events with one
  router and drops buckets by one eviction rule.

Run from the repo root: ``python tools/check_store_kernel.py``.
Exit status 0 = clean, 1 = duplicates found (each printed as
``path:line: pattern``).
"""

from __future__ import annotations

import pathlib
import re
import sys

STORE_PKG = pathlib.Path("src/repro/store")

# pattern -> module (relative to src/repro/store) allowed to define it;
# None means the name must not appear as a definition anywhere
BANNED_DEFINITIONS = {
    r"class _CubeGroup\b": None,
    r"def save_cube\b": None,
    r"def load_cube\b": None,
    r"def save_store\b": None,
    r"def load_store\b": None,
    r"def _cube_from_manifest\b": None,
    r"def _store_from_manifest\b": "persistence.py",
    r"def _build_cells\b": "common.py",
    r"def _install_cells\b": "common.py",
    r"def _build_base_segment\b": None,
    r"def _invalidate_mask_cells\b": None,
    r"def _compile_rollup\w*\b": None,
    r"def _rollup_steps\b": None,
    r"def _compile_compaction\b": None,
    r"def compile_rollup_steps\b": None,
    r"def compact_chains\b": "chain.py",
    r"def _resolve_window\b": None,
    r"def _window_range\b": None,
    r"def resolve_window\b": "chain.py",
    r"def _fingerprint_extra\b": None,
    r"def _child_node\b": None,
    r"def copy_summary\b": "segment.py",
    r"def seed_segment\b": None,
    r"def merged_segment\b": "chain.py",
}

# patterns banned anywhere in a line, in every module
BANNED_EXPRESSIONS = [r"from_dict\(.*\.to_dict\(\)\)", r"\bMerge(Step|Plan)\("]

REPRO_PKG = pathlib.Path("src/repro")

# the same, relative to src/repro, for the whole package
BANNED_REPRO_DEFINITIONS = {
    r"class MergePlan\b": None,
    r"class MergeStep\b": None,
    r"def execute_plan\b": None,
    r"def compile_fold\b": None,
    r"def compile_aggregation\b": None,
    r"def _compile_(chain|tree|random|kway)\b": None,
    r"def balanced_tree\b": "core/topology.py",
    r"def random_tree\b": "core/topology.py",
    r"def _carry\b": "core/merge_reduce.py",
    r"def _flush_buffer\b": "core/merge_reduce.py",
    r"def _row_indices\b": "core/counter_table.py",
    r"class WindowedMisraGries\b": None,
    r"class WindowQueryResult\b": None,
    r"def _time_target\b": "windows/windowed.py",
    r"def _expire\b": "windows/windowed.py",
}


def scan(package, definitions, expressions):
    """``(path, line, pattern, allowed)`` for every banned line under ``package``."""
    violations = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for pattern, allowed in definitions.items():
                if re.match(r"\s*" + pattern, line) and rel != allowed:
                    violations.append((path.as_posix(), lineno, pattern, allowed))
            for pattern in expressions:
                if re.search(pattern, line):
                    violations.append((path.as_posix(), lineno, pattern, None))
    return violations


def main() -> int:
    if not STORE_PKG.is_dir():
        print(f"error: {STORE_PKG} not found (run from the repo root)")
        return 2
    violations = scan(STORE_PKG, BANNED_DEFINITIONS, BANNED_EXPRESSIONS)
    violations += scan(REPRO_PKG, BANNED_REPRO_DEFINITIONS, [])
    for path, lineno, pattern, allowed in violations:
        where = f"only {allowed} may define this" if allowed else "banned everywhere"
        print(f"{path}:{lineno}: duplicated surface {pattern!r} ({where})")
    if violations:
        print(
            f"\n{len(violations)} duplication(s): the chain kernel "
            "(chain.py/common.py/persistence.py) is the single home for "
            "ingest, roll-up compaction, window slack, and store persistence; "
            "core/topology.py is the single home of every merge shape; "
            "core/merge_reduce.py of the buffer-and-counter carry; "
            "core/counter_table.py of the counter table's row hashing; "
            "windows/windowed.py of the window's event router and eviction "
            "rule; and no merge-plan IR or fixed-bucket window exists."
        )
        return 1
    print(
        "store kernel clean: no duplicated chain/persistence surface, "
        "no merge-plan IR, one copy of each merge shape, one carry, "
        "one counter table, one sliding window"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
