"""The ingest kernel on small cells, and the answer state of merged copies.

A cube batch lands in many cells of one to a few records each, so each
member summary is built from a handful of items (HyperLogLog folds
such batches item by item) and most cells replace an existing one by
``copy()`` + ``merge_many``.  The equivalence fixtures hold 40 records
per cell and never reach the small-batch side; the twin test below
does, against a reference fold kept here.

The copies the store merges at once (ingest replacements, time
roll-ups, cube cells) must not keep the answer state, or the link to
it, that ``copy()`` hands a clone: it was built for an ``n`` the merge
leaves behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import CubeStore, SegmentStore
from repro.store import common as common_module
from repro.store.segment import Segment

REGIONS = ("ap", "eu", "us")
EPOCHS = 4


# ---------------------------------------------------------------------------
# Small cells and re-ingests: the kernel against a reference fold
# ---------------------------------------------------------------------------


def _new_cube() -> CubeStore:
    cube = CubeStore(width=1.0, dims=("region",), view_capacity=0)
    cube.add_member("lat", "kll_quantiles", field="v", k=16, rng=5)
    cube.add_member("users", "hyperloglog", field="u", p=8, seed=1)
    cube.add_member("hot", "misra_gries", field="u", k=16)
    return cube


def _batches(seed: int) -> list:
    """Batches of 1-8 records per cell; the 12 cells are re-ingested
    again and again, and every third batch is weighted."""
    rng = np.random.default_rng(seed)
    cells = [(region, epoch) for region in REGIONS for epoch in range(EPOCHS)]
    batches = []
    for index in range(40):
        records, keys = [], []
        for cell in rng.choice(len(cells), size=int(rng.integers(1, 5)), replace=False):
            region, epoch = cells[int(cell)]
            for _ in range(int(rng.integers(1, 9))):
                record = {"region": region, "v": float(rng.normal())}
                if rng.random() < 0.9:  # some records lack the member field
                    record["u"] = int(rng.integers(0, 40))
                records.append(record)
                keys.append(epoch + 0.99 * float(rng.random()))
        weights = rng.integers(1, 4, len(records)).tolist() if index % 3 == 0 else None
        batches.append((records, keys, weights))
    return batches


def _reference_members(schema, records, weights):
    """Each member from a fresh ``spec.build()`` and per-item ``update``."""
    members = {}
    for name, spec in schema.items():
        summary = spec.build()
        for index, record in enumerate(records):
            if spec.field in record:
                summary.update(record[spec.field], 1 if weights is None else weights[index])
        members[name] = summary
    return members


def _reference_replacement(segment_id, level, start, parts):
    """An ingest replacement: a copy of the old cell merged with the new."""
    old, fresh = parts
    members = {
        name: old.members[name].copy().merge_many([fresh.members[name]])
        for name in old.members
    }
    return Segment(segment_id, level, start, old.count + fresh.count, members)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_cells_match_a_reference_fold(monkeypatch, seed):
    batches = _batches(seed)
    cube = _new_cube()
    replaced = 0
    for records, keys, weights in batches:
        replaced += cube.ingest(records, keys, weights)["cells_replaced"]
    assert replaced > len(batches)  # most cells are replacements

    with monkeypatch.context() as patch:
        patch.setattr(common_module, "build_members", _reference_members)
        patch.setattr(common_module, "merged_segment", _reference_replacement)
        twin = _new_cube()
        for records, keys, weights in batches:
            twin.ingest(records, keys, weights)
    assert twin.fingerprint() == cube.fingerprint()

    cube.compact()
    twin.compact()
    assert twin.fingerprint() == cube.fingerprint()


# ---------------------------------------------------------------------------
# Merged copies keep no answer state
# ---------------------------------------------------------------------------


def _answered_cube():
    """A one-cell cube (n = 50) whose KLL view and HLL estimate were
    built by a query."""
    cube = CubeStore(width=1.0, dims=("region",), view_capacity=0)
    cube.add_member("lat", "kll_quantiles", field="v", k=32, rng=3)
    cube.add_member("users", "hyperloglog", field="u", p=6)
    cube.ingest(
        [{"region": "eu", "v": float(i) / 50, "u": i} for i in range(50)],
        keys=[0.5] * 50,
    )
    result = cube.query(0, 1, group_by=["region"])
    result[("eu",)]["lat"].quantiles([0.5])
    result[("eu",)]["users"].distinct()
    stored = cube._groups[("eu",)].base[0].members
    assert stored["lat"]._view[0] == stored["users"]._estimate[0] == 50
    return cube


def _assert_nothing_kept(members):
    assert members["lat"]._view is None
    assert members["lat"]._source is None
    assert members["users"]._estimate is None
    assert members["users"]._source is None


def _answers(members):
    return members["lat"].quantiles([0.1, 0.5, 0.9]), members["users"].distinct().hex()


def _fresh_answers(members):
    """The same answers from round-tripped states: nothing kept, no link."""
    return _answers(
        {name: type(s).from_dict(s.to_dict()) for name, s in members.items()}
    )


def test_a_replaced_cell_keeps_no_answer_state():
    cube = _answered_cube()
    cube.ingest([{"region": "eu", "v": 0.5, "u": 99}], keys=[0.5])
    replacement = cube._groups[("eu",)].base[0].members
    assert replacement["lat"].n == 51
    _assert_nothing_kept(replacement)
    result = cube.query(0, 1, group_by=["region"])
    assert _answers(result[("eu",)]) == _fresh_answers(replacement)


@pytest.mark.parametrize("answered", [False, True], ids=["unanswered", "answered"])
def test_time_rollups_keep_no_answer_state(answered):
    store = SegmentStore(width=1.0)
    store.add_member("lat", "kll_quantiles", field="v", k=32, rng=3)
    store.add_member("users", "hyperloglog", field="u", p=6)
    store.ingest(
        [{"v": float(i % 7), "u": i} for i in range(40)],
        keys=[float(i % 2) for i in range(40)],
    )
    if answered:  # every base cell holds its answer state
        for epoch in range(2):
            _answers(store.query(epoch, epoch + 1))
    store.compact()
    rollup = store._chain.rollups[(1, 0)].members
    _assert_nothing_kept(rollup)
    assert _answers(store.query(0, 2)) == _fresh_answers(rollup)


def test_cube_cells_keep_no_answer_state():
    cube = CubeStore(width=1.0, dims=("region", "service"), view_capacity=0)
    cube.add_member("lat", "kll_quantiles", field="v", k=32, rng=3)
    cube.add_member("users", "hyperloglog", field="u", p=6)
    cube.ingest(
        [{"region": "eu", "service": f"s{i % 3}", "v": float(i), "u": i} for i in range(30)],
        keys=[0.5] * 30,
    )
    for service in ("s0", "s1", "s2"):
        result = cube.query(0, 1, where={"service": service}, group_by=["region"])
        _answers(result[("eu",)])
    cube.compact(workload=[{"group_by": ["region"]}])
    assert cube.materialized_masks()
    for mask in cube.materialized_masks():
        for chain in cube._masks[mask].values():
            cell = chain.base[0].members  # merges the three service cells
            _assert_nothing_kept(cell)
            assert cell["lat"].n == 30
