"""Behavior of the generic sliding-window combinator.

Construction and registry wiring, count-mode and time-mode semantics
(expiry, the query horizon, out-of-order events), serialization, and
the legacy ``WindowedMisraGries`` shim: old-vs-new equivalence within
the EH envelope plus transparent legacy-payload migration.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter

import pytest

from repro.core import ParameterError, QueryError, registered_names
from repro.decay import WindowedMisraGries
from repro.frequency import CountMin, ExactCounter, MisraGries
from repro.quantiles import EqualWeightQuantiles, KLLQuantiles
from repro.sketches import HyperLogLog
from repro.windows import WindowedSummary, windowed_class, windowed_names
from repro.workloads import window_replay_events


class TestConstruction:
    def test_entry_point_returns_registered_variant(self):
        win = MisraGries(8).windowed(eps=0.25, window=64)
        assert type(win) is windowed_class("misra_gries")
        assert type(win).registry_name == "windowed.misra_gries"
        assert win.base_cls is MisraGries
        assert win.is_empty

    def test_base_kwargs_flow_through_variant_constructor(self):
        cls = windowed_class("misra_gries")
        win = cls(eps=0.5, window=32, k=8)
        assert win.eps == 0.5
        assert json.loads(win._proto_json)["k"] == 8

    def test_prototype_must_be_empty(self):
        proto = MisraGries(8)
        proto.update("x")
        with pytest.raises(ParameterError, match="must be empty"):
            proto.windowed()

    def test_non_windowable_base_rejected(self):
        with pytest.raises(ParameterError, match="not windowable"):
            EqualWeightQuantiles(16).windowed()
        assert not any("equal_weight" in name for name in windowed_names())

    def test_windowed_of_windowed_rejected(self):
        win = MisraGries(8).windowed()
        with pytest.raises(ParameterError, match="not windowable"):
            win.windowed()

    def test_abstract_base_rejected(self):
        with pytest.raises(ParameterError, match="abstract"):
            WindowedSummary()
        with pytest.raises(ParameterError, match="abstract"):
            WindowedSummary.from_dict({})

    def test_from_prototype_dispatches_through_registry(self):
        win = WindowedSummary.from_prototype(MisraGries(8), window=16)
        assert type(win) is windowed_class("misra_gries")
        assert win.window == 16

    def test_from_prototype_type_mismatch(self):
        with pytest.raises(ParameterError, match="expects"):
            windowed_class("count_min").from_prototype(MisraGries(8))

    def test_parameter_validation(self):
        proto = MisraGries(8)
        with pytest.raises(ParameterError, match="eps"):
            proto.windowed(eps=0.0)
        with pytest.raises(ParameterError, match="eps"):
            proto.windowed(eps=1.5)
        with pytest.raises(ParameterError, match="window"):
            proto.windowed(window=0)
        with pytest.raises(ParameterError, match="mode"):
            proto.windowed(mode="sideways")
        with pytest.raises(ParameterError, match="granularity"):
            proto.windowed(granularity=-1)


class TestRegistry:
    def test_windowed_names_are_registered(self):
        names = windowed_names()
        assert names
        assert all(name.startswith("windowed.") for name in names)
        assert set(names) <= set(registered_names())

    def test_kind_filter_partitions_registry(self):
        base = registered_names(kind="base")
        windowed = registered_names(kind="windowed")
        assert set(base) | set(windowed) == set(registered_names())
        assert not set(base) & set(windowed)
        assert set(windowed_names()) <= set(windowed)

    def test_shim_is_windowed_kind_and_not_rederived(self):
        # the legacy shim is itself a windowed summary: it is listed
        # under kind="windowed" and no windowed.windowed_misra_gries
        # second-order variant exists
        assert "windowed_misra_gries" in registered_names(kind="windowed")
        assert "windowed.windowed_misra_gries" not in registered_names()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown summary kind"):
            registered_names(kind="sideways")

    def test_windowed_class_accepts_name_and_class(self):
        assert windowed_class("misra_gries") is windowed_class(MisraGries)


class TestCountMode:
    def test_expiry_keeps_roughly_one_window(self):
        win = ExactCounter().windowed(eps=0.25, window=64, granularity=4)
        for i in range(400):
            win.update(i)
        bounds = win.window_count_bounds()
        assert bounds.lower <= 64 <= bounds.upper
        # retained mass covers the window but not unboundedly more
        assert 64 <= win.n <= 64 * 2 + win.granularity
        assert win._expired_end is not None

    def test_unbounded_window_never_expires(self):
        win = ExactCounter().windowed(eps=0.25, granularity=4)
        for i in range(300):
            win.update(i % 7)
        assert win.n == 300
        assert win._expired_end is None
        view = win.window_query()
        assert view.summary.n == 300
        assert view.summary.estimate(0) >= 42

    def test_query_past_horizon_raises(self):
        win = ExactCounter().windowed(eps=0.25, window=32, granularity=4)
        for i in range(200):
            win.update(i)
        with pytest.raises(QueryError, match="has expired"):
            win.window_count_bounds(window=150)
        with pytest.raises(QueryError, match="has expired"):
            win.window_query(window=150)

    def test_explicit_window_narrows_the_view(self):
        win = ExactCounter().windowed(eps=0.25, window=64, granularity=4)
        for i in range(100):
            win.update(i)
        narrow = win.window_query(window=16)
        wide = win.window_query(window=64)
        assert narrow.bounds.upper <= wide.bounds.upper
        assert narrow.bounds.lower <= 16 <= narrow.bounds.upper

    def test_weighted_updates_advance_mass_clock(self):
        win = ExactCounter().windowed(eps=0.25, granularity=4)
        win.update("a", weight=3)
        win.update("b", weight=2)
        assert win._clock == 5
        assert win.window_count_bounds().upper == 5

    def test_update_validation(self):
        win = ExactCounter().windowed()
        with pytest.raises(ParameterError, match="weight"):
            win.update("a", weight=0)
        with pytest.raises(ParameterError, match="mode='time'"):
            win.observe("a", 1.0)
        with pytest.raises(ParameterError, match="window must be positive"):
            win.window_query(window=-1)


class TestTimeMode:
    def _ingest(self, win, events):
        for item, t in events:
            win.observe(item, t)
        return win

    def test_watermark_tracks_max_timestamp(self):
        win = ExactCounter().windowed(mode="time", window=10.0, granularity=1.0)
        self._ingest(win, [("a", 3.0), ("b", 1.0), ("c", 2.5)])
        assert win._clock == 3.0

    def test_out_of_order_events_are_absorbed(self):
        events = window_replay_events(
            400, span=100.0, universe=16, late_fraction=0.3, max_delay=5.0, rng=7
        )
        assert [t for _, t in events] != sorted(t for _, t in events)
        win = ExactCounter().windowed(
            eps=0.25, mode="time", window=200.0, granularity=5.0
        )
        self._ingest(win, events)
        # nothing within the (ample) window is lost
        assert win.n == 400
        view = win.window_query()
        truth = Counter(item for item, _ in events)
        for item, count in truth.most_common(5):
            assert view.summary.estimate(item) == count

    def test_expiry_by_event_time(self):
        win = ExactCounter().windowed(
            eps=0.25, mode="time", window=20.0, granularity=2.0
        )
        events = [(i % 4, float(i) / 2) for i in range(400)]  # span [0, 200)
        self._ingest(win, events)
        assert win._expired_end is not None
        bounds = win.window_count_bounds()
        # 20 time units at 2 events per unit
        assert bounds.lower <= 40 <= bounds.upper
        with pytest.raises(QueryError, match="has expired"):
            win.window_query(window=150.0)

    def test_timestamp_validation(self):
        win = ExactCounter().windowed(mode="time")
        with pytest.raises(ParameterError, match="finite"):
            win.observe("a", float("nan"))
        with pytest.raises(ParameterError, match="weight"):
            win.observe("a", 1.0, weight=0)

    def test_timestampless_update_lands_at_watermark(self):
        win = ExactCounter().windowed(mode="time", granularity=1.0)
        win.observe("a", 5.0)
        win.update("b")  # stamps at watermark 5.0
        view = win.window_query()
        assert view.summary.estimate("b") == 1
        assert win._clock == 5.0


class TestSerialization:
    def test_round_trip_preserves_answers(self):
        win = MisraGries(8).windowed(eps=0.25, window=64, granularity=4)
        for i in range(200):
            win.update(i % 10)
        clone = type(win).from_dict(win.to_dict())
        assert clone.n == win.n
        assert clone.window_count_bounds() == win.window_count_bounds()
        mine = win.window_query()
        theirs = clone.window_query()
        assert (mine.covered_start, mine.covered_end) == (
            theirs.covered_start,
            theirs.covered_end,
        )
        for item in range(10):
            assert mine.summary.estimate(item) == theirs.summary.estimate(item)

    def test_identical_histories_serialize_identically(self):
        # the volatile re-seed invariant: identically-seeded instances
        # replaying the same ops draw the same re-seeds, so serialized
        # states compare exactly
        def build():
            win = CountMin(32, 3, seed=1).windowed(
                eps=0.25, window=32, granularity=4
            )
            for i in range(100):
                win.update(i % 13)
            return win

        assert json.dumps(build().to_dict(), sort_keys=True) == json.dumps(
            build().to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "base, key",
        [(lambda: HyperLogLog(p=10, seed=1), "sparse"),
         (lambda: KLLQuantiles(16, rng=1), "packed"),
         (lambda: MisraGries(8), "items")],
        ids=["hyperloglog", "kll_quantiles", "misra_gries"],
    )
    def test_buckets_are_stored_in_their_base_stored_form(self, base, key):
        win = base().windowed(eps=0.25, granularity=4)
        win.extend([float(i % 37) for i in range(150)])
        stored = copy.deepcopy(win).to_stored()
        logical = win.to_dict()  # the same seed draws as the copy's to_stored
        rows = stored["buckets"] + [stored["pending"]]
        assert len(rows) > 2 and all(key in row["state"] for row in rows)
        assert not any(key in row["state"] for row in logical["buckets"])
        # the prototype stays in its logical form: to_dict() writes it back
        assert stored["proto"] == logical["proto"]
        restored = type(win).from_dict(json.loads(json.dumps(stored)))
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            type(win).from_dict(logical).to_dict(), sort_keys=True
        )

    def test_round_trip_continues_deterministically(self):
        win = ExactCounter().windowed(eps=0.25, window=32, granularity=4)
        for i in range(50):
            win.update(i)
        clone = type(win).from_dict(win.to_dict())
        for i in range(50, 120):
            win.update(i)
            clone.update(i)
        assert win.window_count_bounds() == clone.window_count_bounds()
        assert win.n == clone.n


# ---------------------------------------------------------------------------
# The legacy shim (satellite: deprecated alias + old-vs-new equivalence)
# ---------------------------------------------------------------------------


class _LegacyReference:
    """~15-line dict-of-Counters model of the pre-combinator semantics:

    every event lands in bucket ``floor(t / width)``; exactly
    ``num_buckets`` recent indices are retained; queries sum whole
    buckets.  With ``k >= distinct items`` per-bucket Misra-Gries is
    exact, so the shim must match this model *exactly*.
    """

    def __init__(self, width: float, num_buckets: int) -> None:
        self.width = width
        self.num = num_buckets
        self.buckets: dict = {}

    def observe(self, item, t: float) -> None:
        self.buckets.setdefault(math.floor(t / self.width), Counter())[item] += 1
        latest = max(self.buckets)
        for idx in [i for i in self.buckets if i <= latest - self.num]:
            del self.buckets[idx]

    def estimate(self, item) -> int:
        return sum(c[item] for c in self.buckets.values())

    def query(self, end: float, length: float) -> Counter:
        last = math.floor(end / self.width)
        first = math.floor((end - length) / self.width)
        total: Counter = Counter()
        for idx, counts in self.buckets.items():
            if first <= idx <= last:
                total += counts
        return total


def _shim_stream(n=320, span=80.0, universe=12, rng=11):
    return window_replay_events(n, span=span, universe=universe, rng=rng)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestShim:
    def test_construction_warns_deprecated(self):
        with pytest.warns(DeprecationWarning, match="windowed"):
            WindowedMisraGries(8, bucket_width=5.0, num_buckets=8)

    def test_is_deprecated_alias_over_the_combinator(self):
        assert issubclass(WindowedMisraGries, windowed_class("misra_gries"))
        assert issubclass(WindowedMisraGries, WindowedSummary)
        shim = WindowedMisraGries(8, bucket_width=5.0, num_buckets=8)
        assert shim.mode == "time"
        assert shim.horizon == 40.0
        # eps chosen so the EH cascade never fires: cap > num_buckets
        assert shim.cap > shim.num_buckets

    def test_matches_legacy_reference_exactly(self):
        events = _shim_stream()
        shim = WindowedMisraGries(64, bucket_width=5.0, num_buckets=8)
        ref = _LegacyReference(5.0, 8)
        for item, t in events:
            shim.observe(item, t)
            ref.observe(item, t)
        for item in range(12):
            assert shim.estimate(item) == ref.estimate(item)
        end = max(t for _, t in events)
        got = shim.query(end, 20.0)
        want = ref.query(end, 20.0)
        assert got.n == sum(want.values())
        for item in range(12):
            assert got.estimate(item) == want[item]

    def test_old_vs_new_equivalence_within_eh_envelope(self):
        # the shim and the generic time-mode combinator cover slightly
        # different bucket-aligned spans of the same suffix; every
        # estimate must agree within the straddling-bucket slack the
        # (1 + eps) envelope prices
        events = _shim_stream()
        shim = WindowedMisraGries(64, bucket_width=5.0, num_buckets=8)
        generic = MisraGries(64).windowed(
            eps=0.25, window=40.0, mode="time", granularity=5.0
        )
        for item, t in events:
            shim.observe(item, t)
            generic.observe(item, t)
        view = generic.window_query()
        slack = (view.bounds.upper - view.bounds.lower) + 0
        # the generic window covers a superset of the shim's horizon
        truth = Counter(item for item, _ in events)
        for item, _ in truth.most_common(6):
            new = view.summary.estimate(item)
            old = shim.estimate(item)
            assert new >= old
            assert new - old <= slack

    def test_legacy_payload_migration(self):
        width, num = 5.0, 4
        chunks = {
            "2": MisraGries(8).extend([1, 1, 2]),
            "3": MisraGries(8).extend([1, 3]),
            "4": MisraGries(8).extend([2, 2, 2]),
        }
        payload = {
            "k": 8,
            "bucket_width": width,
            "num_buckets": num,
            "n": 8,
            "evicted_through": 1,
            "buckets": {idx: mg.to_dict() for idx, mg in chunks.items()},
        }
        shim = WindowedMisraGries.from_dict(payload)
        assert shim.n == 8
        assert shim.estimate(1) == 3
        assert shim.estimate(2) == 4
        assert shim.live_buckets() == {2: 3, 3: 2, 4: 3}
        # eviction horizon survives migration
        with pytest.raises(QueryError, match="expired"):
            shim.query(24.0, 20.0)
        # and the migrated instance re-serializes in the new schema
        fresh = WindowedMisraGries.from_dict(shim.to_dict())
        assert isinstance(shim.to_dict()["buckets"], list)
        assert fresh.estimate(2) == 4

    def test_merge_aligns_by_absolute_index(self):
        a = WindowedMisraGries(16, bucket_width=1.0, num_buckets=8)
        b = WindowedMisraGries(16, bucket_width=1.0, num_buckets=8)
        a.observe("x", 0.5)
        a.observe("x", 2.5)
        b.observe("x", 2.7)
        b.observe("y", 3.5)
        a.merge(b)
        assert a.live_buckets() == {0: 1, 2: 2, 3: 1}
        assert a.estimate("x") == 3

    def test_incompatible_geometry_rejected(self):
        from repro.core import MergeError

        a = WindowedMisraGries(16, bucket_width=1.0, num_buckets=8)
        b = WindowedMisraGries(16, bucket_width=2.0, num_buckets=8)
        with pytest.raises(MergeError, match="geometry"):
            a.merge(b)
