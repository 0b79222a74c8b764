"""Behavior of the generic sliding-window combinator.

Construction and registry wiring, count-mode and time-mode semantics
(expiry, the query horizon, out-of-order events), serialization, the
mass invariant over seeded histories, and the states and parameters
that decoding and construction refuse.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from collections import Counter

import numpy as np
import pytest

from repro.core import ParameterError, QueryError, registered_names
from repro.core.codecs import dumps, loads
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


class TestLateEvents:
    def test_late_event_before_anything_sealed_keeps_the_open_bucket(self):
        win = MisraGries(8).windowed(mode="time", granularity=4)
        win.observe("a", 10.0)
        win.observe("b", 1.0)  # predates the open bucket; nothing is sealed
        view = win.window_query()
        assert win.n == view.n == 2
        assert view.summary.estimate("a") == 1
        assert view.summary.estimate("b") == 1

    def test_late_quantile_events_are_all_held(self):
        win = KLLQuantiles(8, rng=1).windowed(mode="time", granularity=4)
        for t in (10.0, 1.0, 2.0):
            win.observe(t, t)
        assert win.n == win.window_query().n == 3


# ---------------------------------------------------------------------------
# n is the mass the buckets hold, for every windowed type and both modes
# ---------------------------------------------------------------------------


def _held(win) -> int:
    return sum(row["n"] for row in win.live_buckets())


def _holds_its_n(win) -> bool:
    """``n`` is the mass the buckets hold: exactly under integer weights,
    up to rounding under float ones."""
    n, held = win.n, _held(win)
    if isinstance(n, numbers.Integral) and isinstance(held, numbers.Integral):
        return n == held
    return math.isclose(n, held, rel_tol=1e-9, abs_tol=1e-12)


def _history(win, feed, rng, weights=None) -> None:
    """Feed ``feed`` into ``win``: count mode in order; time mode at
    jittered timestamps, about one event in five late by up to ten
    granules, so some land before anything is sealed.  ``weights``, if
    given, is the pool each event's weight is drawn from (default 1)."""
    t = 0.0
    for item in feed:
        weight = 1 if weights is None else weights[int(rng.integers(len(weights)))]
        if win.mode == "count":
            win.update(item, weight)
            continue
        t += float(rng.uniform(0.0, 0.6))
        late = rng.random() < 0.2
        win.observe(item, t - float(rng.uniform(0.0, 10.0)) if late else t, weight)
        assert _holds_its_n(win)


def _merged_histories(base, mode, weights=None):
    """Two seeded histories per seed, each with expiry, and their merge
    (into an empty window, then into a fed one)."""
    from tests.test_protocol_conformance import BASE_SPECS

    spec = BASE_SPECS[base]
    geometry = (
        {"window": 24, "granularity": 4}
        if mode == "count"
        else {"window": 6.0, "granularity": 1.0}
    )
    feeds = (list(spec.feed_a()), list(spec.feed_b()))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        parts = []
        for feed in feeds:
            win = spec.factory().windowed(eps=0.5, mode=mode, **geometry)
            _history(win, feed[: 20 + 20 * seed], rng, weights)
            assert _holds_its_n(win)
            parts.append(win)
            yield win
        merged = spec.factory().windowed(eps=0.5, mode=mode, **geometry)
        for part in parts:
            merged.merge(part)
            assert _holds_its_n(merged)
            yield merged


WINDOWED_BASES = sorted(name.split(".", 1)[1] for name in windowed_names())


@pytest.mark.parametrize("mode", ["count", "time"])
@pytest.mark.parametrize("base", WINDOWED_BASES)
def test_n_is_the_mass_the_buckets_hold(base, mode):
    for win in _merged_histories(base, mode):
        restored = type(win).from_dict(json.loads(json.dumps(win.to_stored())))
        assert restored.n == win.n


def _takes_float_weights(base) -> bool:
    """Whether the base type counts a fractional weight as such and
    saves the result."""
    from tests.test_protocol_conformance import BASE_SPECS

    spec = BASE_SPECS[base]
    summary = spec.factory()
    try:
        summary.update(next(iter(spec.feed_a())), 0.5)
        return summary.n == 0.5 and loads(dumps(summary)).n == 0.5
    except (TypeError, ValueError, ParameterError):
        return False


FLOAT_WEIGHTED_BASES = [base for base in WINDOWED_BASES if _takes_float_weights(base)]


def test_the_float_weighted_battery_covers_the_counters():
    assert {"misra_gries", "space_saving", "exact_counter", "count_sketch"} <= set(
        FLOAT_WEIGHTED_BASES
    )


@pytest.mark.parametrize("mode", ["count", "time"])
@pytest.mark.parametrize("base", FLOAT_WEIGHTED_BASES)
def test_a_float_weighted_window_reloads_after_expiry_and_merges(base, mode):
    for win in _merged_histories(base, mode, weights=(0.1, 0.2, 0.3, 0.7)):
        for codec in ("json.v2", "binary.v1"):
            restored = loads(dumps(win, codec))
            assert restored.n == win.n
            assert restored.to_dict() == win.to_dict()


def test_an_expired_float_weighted_bucket_leaves_no_residue():
    win = ExactCounter().windowed(eps=0.5, window=2.0, mode="time", granularity=1.0)
    for item, t, weight in (("a", 0.0, 0.1), ("b", 1.0, 0.2), ("c", 2.0, 0.3)):
        win.observe(item, t, weight)
    assert win.n == _held(win) == 0.2 + 0.3
    assert loads(dumps(win)).n == win.n


# ---------------------------------------------------------------------------
# States and parameters no window reaches
# ---------------------------------------------------------------------------


def _time_state() -> dict:
    """A time-mode ``windowed.misra_gries`` state with a cascaded
    histogram, a pending bucket and an expired span, as JSON left it."""
    win = MisraGries(8).windowed(eps=0.5, window=12.0, mode="time", granularity=2.0)
    for t in range(24):
        win.observe(t % 3, float(t))
    state = json.loads(json.dumps(win.to_stored()))
    assert len(state["buckets"]) > 2 and state["pending"] and state["expired_end"]
    return state


def _count_state() -> dict:
    win = MisraGries(8).windowed(eps=0.5, granularity=1)
    win.extend([1, 2, 3])
    return json.loads(json.dumps(win.to_stored()))


def _bucket(field, value):
    def edit(state):
        state["buckets"][0][field] = value

    return edit


def _field(field, value):
    def edit(state):
        state[field] = value

    return edit


def _start_above_end(state):
    row = state["buckets"][0]
    row["start"] = row["end"] + 1.0


def _narrow_prototype(state):
    state["proto"] = MisraGries(4).to_dict()


UNREACHABLE_STATES = {
    "count is text": _bucket("count", "abc"),
    "count is a bool": _bucket("count", True),
    "count is negative": _bucket("count", -1),
    "level is fractional": _bucket("level", 2.5),
    "level is negative": _bucket("level", -1),
    "level is a bool": _bucket("level", True),
    "start is null": _bucket("start", None),
    "start is a bool": _bucket("start", False),
    "start above end": _start_above_end,
    "end is infinite": _bucket("end", math.inf),
    "pending count is text": lambda s: s["pending"].update(count="abc"),
    "n above the buckets' mass": _field("n", 999),
    "n is a bool": _field("n", True),
    "clock is text": _field("clock", "x"),
    "expired_end is text": _field("expired_end", "x"),
    "expired_end is infinite": _field("expired_end", math.inf),
    "bucket k above the prototype's": _narrow_prototype,
}


class TestUnreachableStates:
    cls = windowed_class("misra_gries")

    def test_the_untouched_states_load(self):
        for state in (_time_state(), _count_state()):
            restored = self.cls.from_dict(state)
            assert json.loads(json.dumps(restored.to_stored())) == state

    @pytest.mark.parametrize("case", sorted(UNREACHABLE_STATES))
    def test_is_refused_directly_and_through_a_codec(self, case):
        from repro.core.codecs import loads, state_checksum

        state = _time_state()
        UNREACHABLE_STATES[case](state)
        with pytest.raises(ParameterError):
            self.cls.from_dict(state)
        envelope = json.dumps(
            {
                "format": 2,
                "type": "windowed.misra_gries",
                "state": state,
                "checksum": state_checksum(state),
            }
        )
        with pytest.raises(ParameterError):
            loads(envelope)

    def test_count_mode_clock_must_be_a_number(self):
        state = _count_state()
        state["clock"] = None
        with pytest.raises(ParameterError, match="clock"):
            self.cls.from_dict(state)

    def test_a_time_mode_window_with_no_events_has_no_clock(self):
        empty = MisraGries(8).windowed(mode="time")
        assert self.cls.from_dict(empty.to_dict()).to_dict() == empty.to_dict()

    def test_a_huge_level_decodes_and_the_next_update_returns(self):
        from tests.test_protocol_conformance import _returns_within

        state = _count_state()
        state["buckets"][0]["level"] = 10**12
        win = self.cls.from_dict(state)
        assert _returns_within(5, lambda: win.update(4))
        assert [b["level"] for b in win.live_buckets()][0] == 10**12


class TestNonFiniteGeometry:
    @pytest.mark.parametrize(
        "kwargs",
        [{"granularity": math.nan}, {"granularity": math.inf}, {"window": math.nan}],
        ids=["granularity-nan", "granularity-inf", "window-nan"],
    )
    def test_is_refused(self, kwargs):
        with pytest.raises(ParameterError):
            MisraGries(8).windowed(mode="time", **kwargs)

    def test_an_infinite_window_still_means_no_expiry(self):
        win = ExactCounter().windowed(window=math.inf, granularity=4)
        win.extend(range(40))
        assert win.window_query().n == 40


def _canonicalize_level_by_level(buckets, cap) -> None:
    """The cascade as first written: every level from 0 to the highest."""
    level = 0
    while True:
        positions = [i for i, b in enumerate(buckets) if b.level == level]
        while len(positions) > cap:
            buckets[positions[0]].absorb(buckets[positions[1]])
            del buckets[positions[1]]
            positions = [i for i, b in enumerate(buckets) if b.level == level]
        if not any(b.level > level for b in buckets):
            return
        level += 1


def test_canonicalize_makes_the_merges_of_the_level_by_level_cascade():
    from repro.windows.eh import Bucket, canonicalize

    rng = np.random.default_rng(5)
    for _ in range(200):
        levels = rng.integers(0, 6, size=int(rng.integers(0, 24))).tolist()
        cap = int(rng.integers(2, 5))
        lists = []
        for _copy in range(2):
            buckets = []
            for i, level in enumerate(levels):
                summary = ExactCounter().extend([i])
                buckets.append(Bucket(summary, 1, level, float(i), float(i) + 1))
            lists.append(buckets)
        canonicalize(lists[0], cap)
        _canonicalize_level_by_level(lists[1], cap)
        rows = [
            [(b.level, b.count, b.start, b.end, b.summary.to_dict()) for b in buckets]
            for buckets in lists
        ]
        assert rows[0] == rows[1]
