"""Dimension-cube suite: planner covers ≡ naive full scans, for every type.

Mirrors the flat store's S=64 equivalence proof (`test_store.py`): the
cube planner may answer a query from any mix of pre-merged mask cells,
dyadic time roll-ups, and stale-epoch base-cell fallbacks — mergeability
says the answer must match the naive one-merge-per-base-cell scan.  The
same three-way classification applies:

- ``STATE_IDENTICAL`` types must match bit-for-bit (canonicalized);
- ``CUSTOM_CHECKS`` types get per-type answer checks;
- the rest reuse the merge-runtime suite's bounded checkers.

Plus the cube-specific machinery: ingest invalidation and staleness,
workload-aware budgeted compaction, planner degradation surfacing, the
view cache, all-or-nothing compaction, and persistence.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from repro.core import ParameterError, QueryError, SerializationError
from repro.engine import FaultModel
from repro.store import CubeStore, SegmentStore
from repro.store import chain as chain_module
from repro.store import cube as cube_module

from tests.test_merge_runtime import MERGE_SPECS

from .test_store import (
    CUSTOM_CHECKS,
    STATE_IDENTICAL,
    STORE_MEMBERS,
    _canon,
    _kind_field,
)

EPOCHS = 32
REGIONS = ("ap", "eu", "us")
QUERY = (5, 29)  # ragged edges plus deep dyadic blocks


# ---------------------------------------------------------------------------
# Registry-wide equivalence: cube cover ≡ naive scan for every type
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def populated():
    """One cube holding every registered type, plus per-(region, kind,
    epoch) feeds for ground truth."""
    cube = CubeStore(width=1.0, dims=("region",))
    for name, (kwargs, _kind) in sorted(STORE_MEMBERS.items()):
        cube.add_member(name, name, field=_kind_field(name), **kwargs)
    feeds = {
        region: {"ints": [], "floats": [], "points": []} for region in REGIONS
    }
    records, keys = [], []
    for epoch in range(EPOCHS):
        for r, region in enumerate(REGIONS):
            rng = np.random.default_rng(1700 + epoch * len(REGIONS) + r)
            ints = rng.integers(0, 50, size=60).tolist()
            floats = rng.random(60).tolist()
            points = list(rng.random((10, 2)))
            feeds[region]["ints"].append(ints)
            feeds[region]["floats"].append(floats)
            feeds[region]["points"].append(points)
            for i in range(60):
                record = {"region": region, "ints": ints[i], "floats": floats[i]}
                if i < 10:
                    record["points"] = points[i]
                records.append(record)
                keys.append(float(epoch))
    cube.ingest(records, keys)
    # log the query shapes the compactor should serve, then materialize
    cube.query(0.0, float(EPOCHS))
    cube.query(0.0, float(EPOCHS), group_by=("region",))
    cube.compact(budget=10**6)
    return cube, feeds


def _covered(feeds, name: str, regions=REGIONS) -> list:
    lo, hi = QUERY
    kind = _kind_field(name)
    return [feeds[region][kind][epoch] for region in regions for epoch in range(lo, hi)]


def _check_equivalent(name: str, rollup, naive, covered) -> None:
    assert rollup.n == naive.n
    if name in STATE_IDENTICAL:
        assert _canon(rollup) == _canon(naive)
    elif name in CUSTOM_CHECKS:
        CUSTOM_CHECKS[name](rollup, naive, covered)
    else:
        spec = MERGE_SPECS[name]
        assert spec.mode == "bounded"
        spec.check(naive, rollup, covered)


@pytest.fixture(scope="module")
def answers(populated):
    cube, feeds = populated
    lo, hi = QUERY
    rollup = cube.query(float(lo), float(hi))
    naive = cube.query(float(lo), float(hi), use_rollups=False)
    grouped = cube.query(float(lo), float(hi), group_by=("region",))
    grouped_naive = cube.query(
        float(lo), float(hi), group_by=("region",), use_rollups=False
    )
    return cube, feeds, (rollup, naive), (grouped, grouped_naive)


def test_grand_total_served_from_mask(answers):
    cube, _feeds, (rollup, naive), _ = answers
    assert rollup.plan.serving_mask == ()
    assert naive.plan.serving_mask is None
    # the mask collapses |REGIONS| chains into one: strictly fewer cells
    assert rollup.plan.cells_merged * 5 <= naive.plan.cells_merged
    assert rollup.plan.rollup_nodes >= 1


def test_group_by_served_from_time_rollups(answers):
    cube, _feeds, _, (grouped, grouped_naive) = answers
    # grouping by every dim needs the base cells (they ARE the finest
    # mask), but the dyadic time roll-ups still shrink the cover
    assert grouped.plan.serving_mask is None
    assert grouped.plan.rollup_nodes >= 1
    assert grouped.plan.cells_merged * 2 <= grouped_naive.plan.cells_merged
    assert set(grouped.keys()) == {(r,) for r in REGIONS}
    assert set(grouped_naive.keys()) == {(r,) for r in REGIONS}


@pytest.mark.parametrize("name", sorted(STORE_MEMBERS))
def test_cube_grand_total_matches_naive_scan(answers, name):
    _cube, feeds, (rollup, naive), _ = answers
    _check_equivalent(name, rollup.members[name], naive.members[name],
                      _covered(feeds, name))


@pytest.mark.parametrize("name", sorted(STORE_MEMBERS))
def test_cube_groups_match_naive_scan(answers, name):
    _cube, feeds, _, (grouped, grouped_naive) = answers
    for region in REGIONS:
        _check_equivalent(
            name,
            grouped[region][name],
            grouped_naive[region][name],
            _covered(feeds, name, regions=(region,)),
        )


def test_where_filter_matches_naive_scan(answers):
    cube, feeds, _, _ = answers
    lo, hi = QUERY
    filtered = cube.query(float(lo), float(hi), where={"region": "eu"})
    naive = cube.query(
        float(lo), float(hi), where={"region": "eu"}, use_rollups=False
    )
    for name in sorted(STORE_MEMBERS):
        _check_equivalent(
            name,
            filtered.members[name],
            naive.members[name],
            _covered(feeds, name, regions=("eu",)),
        )


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def _small_cube(**kwargs) -> CubeStore:
    cube = CubeStore(width=kwargs.pop("width", 2.0),
                     dims=kwargs.pop("dims", ("region", "device")), **kwargs)
    cube.add_member("count", "exact_counter", field="v")
    return cube


def _records(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [
        {
            "region": ["ap", "eu", "us"][int(rng.integers(0, 3))],
            "device": ["ios", "android"][int(rng.integers(0, 2))],
            "v": int(rng.integers(0, 20)),
        }
        for _ in range(n)
    ]


class TestValidation:
    def test_bad_width(self):
        with pytest.raises(ParameterError):
            CubeStore(width=0, dims=("a",))

    def test_no_dims(self):
        with pytest.raises(ParameterError):
            CubeStore(width=1.0, dims=())

    def test_duplicate_dims(self):
        with pytest.raises(ParameterError):
            CubeStore(width=1.0, dims=("a", "a"))

    def test_member_field_cannot_be_a_dimension(self):
        cube = CubeStore(width=1.0, dims=("region",))
        with pytest.raises(ParameterError):
            cube.add_member("count", "exact_counter", field="region")

    def test_negative_budget_rejected(self):
        cube = _small_cube()
        with pytest.raises(ParameterError):
            cube.compact(budget=-1)

    def test_record_missing_dimension(self):
        cube = _small_cube()
        with pytest.raises(ParameterError):
            cube.ingest([{"region": "eu", "v": 1}])  # no device

    def test_non_scalar_dimension_value(self):
        cube = _small_cube()
        with pytest.raises(ParameterError):
            cube.ingest([{"region": ["eu"], "device": "ios", "v": 1}])

    @pytest.mark.parametrize("bad", [["eu"], {"eu": 1}, ("eu",), b"eu"])
    def test_non_scalar_where_value(self, bad):
        # rejected before the view-cache key is hashed or an index read
        cube = _small_cube()
        cube.ingest(_records(8))
        with pytest.raises(ParameterError, match="JSON scalar"):
            cube.query(0, 1, where={"region": bad})

    def test_unknown_where_dimension(self):
        cube = _small_cube()
        cube.ingest(_records(8))
        with pytest.raises(ParameterError):
            cube.query(0, 8, where={"bogus": 1})

    def test_where_and_group_by_overlap(self):
        cube = _small_cube()
        cube.ingest(_records(8))
        with pytest.raises(ParameterError):
            cube.query(0, 8, where={"region": "eu"}, group_by=("region",))

    def test_empty_range(self):
        cube = _small_cube()
        cube.ingest(_records(8))
        with pytest.raises(ParameterError):
            cube.query(5, 5)

    def test_query_without_members(self):
        cube = CubeStore(width=1.0, dims=("region",))
        with pytest.raises(QueryError):
            cube.query(0, 1)


class TestResultShape:
    def test_scalar_key_normalization(self):
        cube = _small_cube()
        cube.ingest(_records(40))
        result = cube.query(0, 40, group_by=("region",))
        assert result["eu"] is result[("eu",)]
        assert "eu" in result

    def test_members_requires_single_group(self):
        cube = _small_cube()
        cube.ingest(_records(40))
        result = cube.query(0, 40, group_by=("region",))
        with pytest.raises(QueryError):
            result.members

    def test_empty_window_yields_fresh_members(self):
        cube = _small_cube()
        cube.ingest(_records(8))
        result = cube.query(100, 120)
        assert result.members["count"].n == 0


# ---------------------------------------------------------------------------
# Chain selection: the posting index selects what an == scan selects
# ---------------------------------------------------------------------------

SELECT_DIMS = ("region", "service", "flag")
#: per dimension, the values records draw from; 1, 1.0 and True are
#: hash-equal, so a key holding one of them shares a chain with the others
SELECT_POOLS = (
    ("eu", "us", "ap", 1, None),
    ("s0", "s1", True, 2.5, 0),
    (True, "x", None, False, 1.0),
)
#: where values probed on every dimension besides its pool: an absent
#: value and every spelling of the hash-equal 1/True and 0/False
SELECT_PROBES = ("absent", 1, 1.0, True, 0, 0.0, False)


def _select_records(n: int, seed: int, width: int) -> tuple:
    rng = np.random.default_rng(seed)
    records = [
        {
            **{
                dim: pool[int(rng.integers(0, width))]
                for dim, pool in zip(SELECT_DIMS, SELECT_POOLS)
            },
            "v": int(rng.integers(0, 9)),
        }
        for _ in range(n)
    ]
    return records, rng.integers(0, 8, size=n).astype(float).tolist()


def _assert_selection_matches_scan(cube: CubeStore) -> int:
    """Every source mask x every dimension subset x every where value
    combination: the index returns the scan's (key, chain) pairs, in
    the scan's order.  Returns the number of filters checked."""
    checked = 0
    for mask in [None, *cube.materialized_masks()]:
        source = cube.dims if mask is None else mask
        chains = cube._groups if mask is None else cube._masks[mask]
        for r in range(len(source) + 1):
            for dims in combinations(source, r):
                idx = [source.index(dim) for dim in dims]
                pools = [
                    SELECT_POOLS[SELECT_DIMS.index(dim)] + SELECT_PROBES
                    for dim in dims
                ]
                for values in product(*pools):
                    where = tuple(zip(dims, values))
                    got = cube._select_chains(mask, where)
                    want = [
                        (key, chain)
                        for key, chain in chains.items()
                        if all(key[i] == value for i, value in zip(idx, values))
                    ]
                    assert [(k, id(c)) for k, c in got] == [
                        (k, id(c)) for k, c in want
                    ], (mask, where)
                    checked += 1
    return checked


class TestChainSelection:
    WORKLOAD = [
        {},
        {"group_by": ["region"]},
        {"group_by": ["service", "flag"]},
        {"where": ["region", "flag"]},
    ]

    def _cube(self) -> CubeStore:
        cube = CubeStore(width=1.0, dims=SELECT_DIMS)
        cube.add_member("count", "exact_counter", field="v")
        return cube

    def test_index_matches_scan_through_the_store_lifecycle(self, tmp_path):
        path = str(tmp_path / "cube")
        cube = self._cube()
        cube.ingest(*_select_records(120, seed=31, width=3))
        assert _assert_selection_matches_scan(cube) > 0

        cube.compact(workload=self.WORKLOAD)  # first mask chains
        assert len(cube.materialized_masks()) >= 3
        _assert_selection_matches_scan(cube)
        mask_chains = {m: len(c) for m, c in cube._masks.items()}

        # new full keys, and re-ingest into cells the masks already cover
        base_chains = len(cube._groups)
        cube.ingest(*_select_records(200, seed=32, width=5))
        assert len(cube._groups) > base_chains
        assert cube.query(0, 8).plan.stale_epochs > 0
        _assert_selection_matches_scan(cube)

        cube.compact(workload=self.WORKLOAD)  # new chains in indexed masks
        assert any(len(cube._masks[m]) > n for m, n in mask_chains.items())
        _assert_selection_matches_scan(cube)

        cube.save(path)
        restored = CubeStore.open(path)
        assert restored.fingerprint() == cube.fingerprint()
        _assert_selection_matches_scan(restored)

        durable = CubeStore.open_durable(path)
        records, keys = _select_records(60, seed=33, width=5)
        for record in records[::2]:
            record["region"] = "wal-only"  # chains only the log holds
        durable.ingest(records, keys)
        durable.wal.close()
        recovered, _report = CubeStore.recover(path)
        assert recovered.fingerprint() == durable.fingerprint()
        assert any(key[0] == "wal-only" for key in recovered._groups)
        _assert_selection_matches_scan(recovered)

    def test_hash_equal_where_values_select_the_same_chains(self):
        cube = CubeStore(width=1.0, dims=("service",))
        cube.add_member("count", "exact_counter", field="v")
        cube.ingest([{"service": True, "v": 1}, {"service": "s0", "v": 2}])
        for value in (True, 1, 1.0):
            result = cube.query(0, 1, where={"service": value})
            assert result.members["count"].n == 1
        assert cube.query(0, 1, where={"service": 0}).members["count"].n == 0

    def test_nan_where_value_selects_nothing(self):
        # NaN equals nothing, not even itself, so no chain matches it
        nan = float("nan")
        cube = CubeStore(width=1.0, dims=("region", "flag"))
        cube.add_member("count", "exact_counter", field="v")
        cube.ingest([{"region": nan, "flag": 1, "v": 1}])
        for where in ((("region", nan),), (("region", nan), ("flag", 1))):
            assert list(cube._select_chains(None, where)) == []
        assert cube.query(0, 1, where={"region": nan}).members["count"].n == 0


# ---------------------------------------------------------------------------
# Staleness: ingest after compaction must never serve stale cells
# ---------------------------------------------------------------------------


class TestStaleness:
    def test_reingest_invalidates_masks_but_stays_correct(self):
        cube = _small_cube(width=4.0)
        batch = _records(200, seed=1)
        cube.ingest(batch)
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        assert () in cube.materialized_masks()

        cube.ingest(_records(120, seed=2))
        fresh = cube.query(0, cube.records)
        naive = cube.query(0, cube.records, use_rollups=False)
        assert fresh.plan.stale_epochs > 0
        assert _canon(fresh.members["count"]) == _canon(naive.members["count"])
        label_stats = cube.stats()["masks"]["()"]
        assert label_stats["stale_epochs"] > 0

    def test_ingest_counters(self):
        cube = CubeStore(width=1.0, dims=("region",))
        cube.add_member("count", "exact_counter", field="v")
        first = cube.ingest(
            [{"region": "eu", "v": 1}, {"region": "eu", "v": 2},
             {"region": "us", "v": 3}],
            keys=[0.0, 1.0, 1.0],
        )
        assert first == {
            "cells_created": 3,
            "cells_replaced": 0,
            "rollups_invalidated": 0,
            "records": 3,
        }
        cube.compact()  # grand-total mask () plus every chain's time tree
        assert cube.materialized_masks() == [()]
        again = cube.ingest([{"region": "eu", "v": 4}], keys=[1.0])
        # eu's time roll-up (1, 0), the () mask's cell at epoch 1 and
        # the () mask's time roll-up (1, 0)
        assert again == {
            "cells_created": 0,
            "cells_replaced": 1,
            "rollups_invalidated": 3,
            "records": 1,
        }

    def test_recompaction_clears_stale_marks(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=3))
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        cube.ingest(_records(60, seed=4))
        cube.compact(budget=10**6)
        result = cube.query(0, cube.records)
        assert result.plan.stale_epochs == 0
        assert cube.stats()["masks"]["()"]["stale_epochs"] == 0
        naive = cube.query(0, cube.records, use_rollups=False)
        assert _canon(result.members["count"]) == _canon(naive.members["count"])


# ---------------------------------------------------------------------------
# Workload-aware budgeted compaction
# ---------------------------------------------------------------------------


class TestBudgetedCompaction:
    def test_zero_budget_materializes_no_masks(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=5))
        cube.query(0, cube.records)
        stats = cube.compact(budget=0)
        assert stats["masks"] == 0
        assert cube.materialized_masks() == []
        # time roll-ups over base cells are free of the cell budget
        assert stats["time_rollups_built"] > 0

    def test_workload_steers_mask_choice(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(400, seed=6))
        cube.compact(
            budget=10**6, workload=[{"group_by": ["region"], "weight": 5}]
        )
        masks = cube.materialized_masks()
        assert ("region",) in masks
        assert ("device",) not in masks

    def test_budget_is_respected(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(400, seed=7))
        budget = 30
        stats = cube.compact(
            budget=budget,
            workload=[{"group_by": ["region"]}, {"group_by": ["device"]}],
        )
        assert stats["materialized_cells"] <= budget

    def test_observed_queries_drive_default_workload(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(300, seed=8))
        cube.query(0, cube.records, group_by=("device",))
        cube.compact(budget=10**6)
        assert ("device",) in cube.materialized_masks()

    def test_mask_serving_prefers_cheapest_cover(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(300, seed=9))
        cube.compact(
            budget=10**6,
            workload=[{"group_by": ["region"]}, {"group_by": []}],
        )
        result = cube.query(0, cube.records)
        # the grand-total mask is strictly smaller than (region,)
        assert result.plan.serving_mask == ()


# ---------------------------------------------------------------------------
# Planner degradation surfacing and the view cache
# ---------------------------------------------------------------------------


class TestObservability:
    def test_stale_epochs_count_as_degraded(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=10))
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        cube.ingest(_records(80, seed=11))
        result = cube.query(0, cube.records)
        assert result.plan.stale_epochs > 0
        assert result.plan.degraded_blocks >= result.plan.stale_epochs
        assert "stale" in result.plan.describe()
        assert cube.stats()["planner"]["degraded_blocks_total"] > 0

    def test_full_compaction_leaves_no_degraded_blocks(self):
        # one group holds a single epoch, the other two
        cube = CubeStore(width=1.0, dims=("region",))
        cube.add_member("count", "exact_counter", field="v")
        cube.ingest(
            [{"region": "eu", "v": 1}, {"region": "us", "v": 2},
             {"region": "us", "v": 3}],
            keys=[0.0, 0.0, 1.0],
        )
        cube.compact()
        result = cube.query(0.0, 2.0, group_by=("region",))
        assert result["eu"]["count"].n == 1
        assert result["us"]["count"].n == 2
        assert result.plan.degraded_blocks == 0
        assert cube.stats()["planner"]["degraded_blocks_total"] == 0

    def test_view_cache_hits(self):
        cube = _small_cube(width=4.0, view_capacity=4)
        cube.ingest(_records(100, seed=12))
        first = cube.query(0, cube.records)
        again = cube.query(0, cube.records)
        assert again is first
        stats = cube.stats()["view_cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_view_cache_disabled(self):
        cube = _small_cube(width=4.0, view_capacity=0)
        cube.ingest(_records(100, seed=13))
        first = cube.query(0, cube.records)
        again = cube.query(0, cube.records)
        assert again is not first

    def test_ingest_invalidates_cached_views(self):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(100, seed=14))
        stale_view = cube.query(0, cube.records)
        cube.ingest(_records(50, seed=15))
        fresh = cube.query(0, cube.records)
        assert fresh is not stale_view
        assert fresh.members["count"].n == 150


# ---------------------------------------------------------------------------
# Faults: compaction is in-process and all-or-nothing
# ---------------------------------------------------------------------------


def _failing_builder(*_args):
    raise RuntimeError("injected build failure")


class TestFaults:
    def test_exhausted_retries_leave_stale_marks_not_bad_data(self, monkeypatch):
        # a re-compaction whose cell builds fail keeps the ingest's stale
        # marks: queries fall back to base cells and never see bad data
        cube = _small_cube(width=4.0)
        cube.ingest(_records(300, seed=17))
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        cube.ingest(_records(80, seed=21))  # stale-marks the masks
        monkeypatch.setattr(cube_module, "merged_segment", _failing_builder)
        with pytest.raises(RuntimeError, match="injected build failure"):
            cube.compact(budget=10**6)
        result = cube.query(0, cube.records)
        naive = cube.query(0, cube.records, use_rollups=False)
        assert result.plan.stale_epochs > 0
        assert _canon(result.members["count"]) == _canon(naive.members["count"])
        monkeypatch.undo()
        cube.compact(budget=10**6)
        result = cube.query(0, cube.records)
        assert result.plan.stale_epochs == 0
        assert _canon(result.members["count"]) == _canon(naive.members["count"])

    def test_failed_time_rollup_phase_installs_no_rollup(self, monkeypatch):
        # phase 2 fails after the first chain's whole tree and one
        # roll-up of the next were built: no chain gets a roll-up, the
        # answers equal the base-cell scan, and a later compact() gives
        # the roll-ups of an uninterrupted run
        workload = [{}, {"group_by": ["region"]}]

        def filled():
            cube = _small_cube(width=4.0)
            cube.ingest(_records(300, seed=23))
            return cube

        def rollup_states(cube):
            return [
                (chain_id, chain.max_level, {
                    block: (segment.count, _canon(segment.members["count"]))
                    for block, segment in chain.rollups.items()
                })
                for chain_id, chain in cube._chain_index()
            ]

        baseline = filled()
        baseline.compact(workload=workload)
        first_tree = len(baseline._chain_index()[0][1].rollups)
        real_builder = chain_module.merged_segment
        built = []

        def failing(*args):
            if len(built) > first_tree:
                raise RuntimeError("injected build failure")
            built.append(args)
            return real_builder(*args)

        cube = filled()
        monkeypatch.setattr(chain_module, "merged_segment", failing)
        with pytest.raises(RuntimeError, match="injected build failure"):
            cube.compact(workload=workload)
        chains = cube._chain_index()
        assert len(chains) > 2 and len(built) == first_tree + 1
        assert all(not chain.rollups for _id, chain in chains)
        assert all(chain.max_level == 0 for _id, chain in chains)
        for group_by in ((), ("region",)):
            served = cube.query(0, cube.records, group_by=group_by)
            naive = cube.query(0, cube.records, group_by=group_by, use_rollups=False)
            assert served.keys() == naive.keys()
            for key in naive.keys():
                assert _canon(served[key]["count"]) == _canon(naive[key]["count"])
        monkeypatch.undo()
        cube.compact(workload=workload)
        assert rollup_states(cube) == rollup_states(baseline)

    def test_corruption_model_rejected(self):
        # cells are built in process and never cross a fabric, so
        # compaction takes no fault model at all
        cube = _small_cube(width=4.0)
        cube.ingest(_records(40, seed=18))
        with pytest.raises(TypeError, match="fault_model"):
            cube.compact(fault_model=FaultModel(corruption=0.1, rng=1))
        assert cube.materialized_masks() == []


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_round_trip_fingerprint(self, tmp_path):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=19))
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        cube.save(tmp_path / "cube")
        restored = CubeStore.open(tmp_path / "cube")
        assert restored.fingerprint() == cube.fingerprint()
        a = restored.query(0, restored.records)
        b = cube.query(0, cube.records)
        assert _canon(a.members["count"]) == _canon(b.members["count"])

    def test_stale_marks_survive_restart(self, tmp_path):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=20))
        cube.query(0, cube.records)
        cube.compact(budget=10**6)
        cube.ingest(_records(80, seed=21))  # stale-marks the masks
        cube.save(tmp_path / "cube")
        restored = CubeStore.open(tmp_path / "cube")
        assert restored.fingerprint() == cube.fingerprint()
        result = restored.query(0, restored.records)
        naive = restored.query(0, restored.records, use_rollups=False)
        assert result.plan.stale_epochs > 0
        assert _canon(result.members["count"]) == _canon(naive.members["count"])

    def test_incremental_save_reuses_cells(self, tmp_path):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(200, seed=22))
        first = cube.save(tmp_path / "cube")
        cube.ingest(_records(40, seed=23))
        second = cube.save(tmp_path / "cube")
        assert second["written"] < first["written"]
        restored = CubeStore.open(tmp_path / "cube")
        assert restored.fingerprint() == cube.fingerprint()

    def test_flat_store_refuses_cube_directory(self, tmp_path):
        cube = _small_cube(width=4.0)
        cube.ingest(_records(40, seed=24))
        cube.save(tmp_path / "cube")
        with pytest.raises(SerializationError, match="CubeStore.open"):
            SegmentStore.open(tmp_path / "cube")

    def test_cube_refuses_flat_directory(self, tmp_path):
        store = SegmentStore(width=4.0)
        store.add_member("count", "exact_counter", field="v")
        store.ingest([{"v": i} for i in range(20)])
        store.save(tmp_path / "flat")
        with pytest.raises(SerializationError, match="SegmentStore.open"):
            CubeStore.open(tmp_path / "flat")

    def test_view_capacity_survives_restart(self, tmp_path):
        cube = CubeStore(width=4.0, dims=("region",), view_capacity=3)
        cube.add_member("count", "exact_counter", field="v")
        cube.ingest(
            [{"region": "eu", "v": i} for i in range(20)]
        )
        cube.save(tmp_path / "cube")
        restored = CubeStore.open(tmp_path / "cube")
        for lo in range(5):  # 5 distinct views through a capacity-3 LRU
            restored.query(float(lo), float(lo) + 4.0)
        assert restored.stats()["view_cache"]["size"] == 3
