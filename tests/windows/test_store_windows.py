"""Trailing-window queries against SegmentStore and CubeStore.

The store layer of the windowing PR: ``query(window=W)`` plans the
dyadic cover of the trailing window (≤ 2 blocks per level — the EH
invariant applied to the roll-up tree), and ``window_eps`` lets the
planner absorb the one materialized roll-up straddling the window
start *whole* — the EH oldest-bucket rule — trading a bounded mass
overshoot for strictly fewer merges.
"""

from __future__ import annotations

import math

import pytest

from repro.core import ParameterError, QueryError
from repro.store import CubeStore, SegmentStore

EPOCHS = 64
PER_EPOCH = 3


def _store() -> SegmentStore:
    store = SegmentStore(width=1.0)
    store.add_member("count", "exact_counter", field="value")
    records, keys = [], []
    for epoch in range(EPOCHS):
        for i in range(PER_EPOCH):
            records.append({"value": (epoch + i) % 7})
            keys.append(epoch + i / PER_EPOCH)
    store.ingest(records, keys)
    store.compact()
    return store


@pytest.fixture(scope="module")
def store() -> SegmentStore:
    return _store()


class TestSegmentStoreWindows:
    def test_window_equals_explicit_range(self, store):
        window = store.query(window=16.0)
        explicit = store.query(lo=float(EPOCHS - 16), hi=float(EPOCHS))
        assert window.key_range == explicit.key_range
        assert window["count"].n == explicit["count"].n == 16 * PER_EPOCH
        for item in range(7):
            assert window["count"].estimate(item) == explicit[
                "count"
            ].estimate(item)

    def test_window_rounds_outward_to_epochs(self, store):
        result = store.query(window=15.3)
        assert result["count"].n == 16 * PER_EPOCH
        assert result.key_range == (float(EPOCHS - 16), float(EPOCHS))

    def test_explicit_end_anchors_the_window(self, store):
        result = store.query(hi=32.0, window=16.0)
        assert result.key_range == (16.0, 32.0)
        assert result["count"].n == 16 * PER_EPOCH

    def test_naive_scan_agrees(self, store):
        planned = store.query(window=48.0)
        naive = store.query(window=48.0, use_rollups=False)
        assert planned["count"].n == naive["count"].n
        assert len(naive.plan.segments) > len(planned.plan.segments)

    def test_eps_slack_absorbs_straddling_rollup(self, store):
        # [16, 64) exactly: two blocks; with eps=0.5 the slack
        # (floor(0.5 * 48) = 24 epochs) lets the planner serve the
        # whole [0, 64) roll-up instead — one segment, 16 epochs over
        exact = store.query(window=48.0)
        relaxed = store.query(window=48.0, window_eps=0.5)
        assert exact.plan.window_slack_used == 0
        assert relaxed.plan.window_slack_used == 16
        assert len(relaxed.plan.segments) < len(exact.plan.segments)
        assert relaxed.key_range == (0.0, float(EPOCHS))
        assert exact.key_range == (16.0, float(EPOCHS))
        assert relaxed["count"].n == EPOCHS * PER_EPOCH
        assert exact["count"].n == 48 * PER_EPOCH

    def test_slack_is_bounded_by_eps(self, store):
        for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
            for window in (7.0, 16.0, 33.0, 48.0):
                plan = store.plan_window(window, eps=eps)
                window_epochs = int(math.ceil(window))
                assert plan.window_slack_used <= math.floor(
                    eps * window_epochs
                )
                assert plan.covered_lo_epoch == (
                    plan.lo_epoch - plan.window_slack_used
                )

    def test_relaxed_answer_is_a_superset_of_the_window(self, store):
        exact = store.query(window=48.0)
        relaxed = store.query(window=48.0, window_eps=0.5)
        for item in range(7):
            assert relaxed["count"].estimate(item) >= exact[
                "count"
            ].estimate(item)

    def test_window_queries_are_cached(self):
        store = _store()
        first = store.query(window=16.0, window_eps=0.25)
        again = store.query(window=16.0, window_eps=0.25)
        assert again is first
        different = store.query(window=16.0)
        assert different is not first

    def test_stats_track_window_queries(self):
        store = _store()
        base = store.stats()["planner"]
        store.query(window=48.0, window_eps=0.5)
        store.plan_window(16.0)
        after = store.stats()["planner"]
        assert after["window_queries"] == base["window_queries"] + 2
        assert (
            after["window_slack_epochs_total"]
            == base["window_slack_epochs_total"] + 16
        )

    def test_window_and_range_are_mutually_exclusive(self, store):
        with pytest.raises(ParameterError, match="not both"):
            store.query(lo=0.0, window=5.0)

    def test_query_requires_range_or_window(self, store):
        with pytest.raises(ParameterError, match="range or window"):
            store.query()
        with pytest.raises(ParameterError, match="range or window"):
            store.query(lo=0.0)

    def test_window_validation(self, store):
        with pytest.raises(ParameterError, match="window must be positive"):
            store.query(window=0.0)
        with pytest.raises(ParameterError, match="window_eps must be in"):
            store.query(window=8.0, window_eps=1.5)
        with pytest.raises(ParameterError, match="eps must be in"):
            store.plan_window(8.0, eps=-0.1)

    def test_window_on_empty_store_rejected(self):
        empty = SegmentStore(width=1.0)
        empty.add_member("count", "exact_counter", field="value")
        with pytest.raises(QueryError, match="empty store"):
            empty.query(window=8.0)


# ---------------------------------------------------------------------------
# CubeStore
# ---------------------------------------------------------------------------

REGIONS = ("ap", "eu", "us")


def _cube() -> CubeStore:
    cube = CubeStore(width=1.0, dims=("region",))
    cube.add_member("count", "exact_counter", field="v")
    records, keys = [], []
    for epoch in range(EPOCHS):
        for region in REGIONS:
            records.append({"region": region, "v": epoch % 5})
            keys.append(float(epoch))
    cube.ingest(records, keys)
    cube.compact(budget=10**6)
    return cube


@pytest.fixture(scope="module")
def cube() -> CubeStore:
    return _cube()


class TestCubeStoreWindows:
    def test_window_equals_explicit_range(self, cube):
        window = cube.query(window=16.0, where={"region": "eu"})
        explicit = cube.query(
            float(EPOCHS - 16), float(EPOCHS), where={"region": "eu"}
        )
        assert window.key_range == explicit.key_range
        assert window[()]["count"].n == explicit[()]["count"].n == 16

    def test_grouped_window_query(self, cube):
        result = cube.query(window=8.0, group_by=["region"])
        assert sorted(result.keys()) == sorted((r,) for r in REGIONS)
        for region in REGIONS:
            assert result[region]["count"].n == 8

    def test_eps_slack_absorbs_per_chain(self, cube):
        exact = cube.query(window=48.0, where={"region": "eu"})
        relaxed = cube.query(
            window=48.0, where={"region": "eu"}, window_eps=0.5
        )
        assert exact.plan.window_slack_used == 0
        assert relaxed.plan.window_slack_used == 16
        assert relaxed.key_range == (0.0, float(EPOCHS))
        assert relaxed[()]["count"].n == EPOCHS
        assert exact[()]["count"].n == 48
        assert relaxed.plan.cells_merged < exact.plan.cells_merged

    def test_window_anchors_at_explicit_end(self, cube):
        result = cube.query(hi=32.0, window=16.0, group_by=["region"])
        for region in REGIONS:
            assert result[region]["count"].n == 16

    def test_window_and_range_are_mutually_exclusive(self, cube):
        with pytest.raises(ParameterError, match="not both"):
            cube.query(0.0, window=5.0)

    def test_window_validation(self, cube):
        with pytest.raises(ParameterError, match="window must be positive"):
            cube.query(window=-3.0)
        with pytest.raises(ParameterError, match="window_eps"):
            cube.query(window=8.0, window_eps=2.0)

    def test_window_on_empty_cube_rejected(self):
        empty = CubeStore(width=1.0, dims=("region",))
        empty.add_member("count", "exact_counter", field="v")
        with pytest.raises(QueryError, match="empty cube"):
            empty.query(window=8.0)
