"""Unit and property tests for the time-decayed Misra-Gries extension."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeError, ParameterError
from repro.decay import DecayedMisraGries


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            DecayedMisraGries(0, 1.0)
        with pytest.raises(ParameterError):
            DecayedMisraGries(4, 0.0)


class TestDecaySemantics:
    def test_no_time_passing_behaves_like_mg(self):
        dmg = DecayedMisraGries(4, half_life=100.0)
        for item in [1, 1, 2, 3]:
            dmg.observe(item, 0.0)
        assert dmg.estimate(1) == pytest.approx(2.0)
        assert dmg.decayed_total == pytest.approx(4.0)

    def test_weight_halves_per_half_life(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 0.0)
        dmg.advance_to(10.0)
        assert dmg.estimate("x") == pytest.approx(0.5)
        dmg.advance_to(30.0)
        assert dmg.estimate("x") == pytest.approx(0.125)

    def test_out_of_order_arrival_decays_incoming(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("a", 20.0)
        dmg.observe("late", 10.0)  # arrives after time 20
        assert dmg.reference_time == 20.0
        assert dmg.estimate("late") == pytest.approx(0.5)

    def test_advance_never_rewinds(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 50.0)
        dmg.advance_to(10.0)
        assert dmg.reference_time == 50.0

    def test_query_at_future_time(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 0.0)
        assert dmg.estimate("x", at=10.0) == pytest.approx(0.5)

    def test_query_in_past_raises(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 100.0)
        with pytest.raises(ParameterError):
            dmg.estimate("x", at=50.0)

    def test_old_items_fade_from_heavy_hitters(self):
        dmg = DecayedMisraGries(8, half_life=5.0)
        for t in range(20):
            dmg.observe("old", float(t))
        for t in range(200, 220):
            dmg.observe("new", float(t))
        hh = dmg.heavy_hitters(0.5)
        assert "new" in hh
        assert "old" not in hh

    def test_size_bounded(self):
        dmg = DecayedMisraGries(4, half_life=10.0)
        for t in range(100):
            dmg.observe(t, float(t))
        assert dmg.size() <= 4


class TestGuarantee:
    def test_deduction_within_bound(self):
        dmg = DecayedMisraGries(8, half_life=20.0)
        for t in range(500):
            dmg.observe(t % 40, float(t) * 0.5)
        assert dmg.deduction <= dmg.error_bound + 1e-9

    def test_estimate_underestimates_decayed_truth(self):
        half_life = 15.0
        dmg = DecayedMisraGries(6, half_life=half_life)
        events = [(t % 9, float(t)) for t in range(300)]
        for item, t in events:
            dmg.observe(item, t)
        now = dmg.reference_time
        for item in range(9):
            truth = sum(
                0.5 ** ((now - t) / half_life) for i, t in events if i == item
            )
            estimate = dmg.estimate(item)
            assert estimate <= truth + 1e-9
            assert truth - estimate <= dmg.deduction + 1e-9


class TestMerge:
    def test_merge_aligns_reference_times(self):
        a = DecayedMisraGries(4, 10.0)
        b = DecayedMisraGries(4, 10.0)
        a.observe("x", 0.0)
        b.observe("y", 30.0)
        a.merge(b)
        assert a.reference_time == 30.0
        assert a.estimate("x") == pytest.approx(0.125)
        assert a.estimate("y") == pytest.approx(1.0)

    def test_merge_does_not_mutate_other(self):
        a = DecayedMisraGries(4, 10.0)
        b = DecayedMisraGries(4, 10.0)
        a.observe("x", 100.0)
        b.observe("y", 0.0)
        a.merge(b)
        assert b.reference_time == 0.0
        assert b.estimate("y") == pytest.approx(1.0)

    def test_merge_guarantee_holds(self):
        half_life = 25.0
        events_a = [(t % 7, float(t)) for t in range(200)]
        events_b = [(t % 11, float(t) + 50) for t in range(200)]
        a = DecayedMisraGries(6, half_life)
        b = DecayedMisraGries(6, half_life)
        for item, t in events_a:
            a.observe(item, t)
        for item, t in events_b:
            b.observe(item, t)
        a.merge(b)
        now = a.reference_time
        assert a.deduction <= a.error_bound + 1e-9
        for item in range(11):
            truth = sum(
                0.5 ** ((now - t) / half_life)
                for i, t in events_a + events_b
                if i == item
            )
            estimate = a.estimate(item)
            assert estimate <= truth + 1e-9
            assert truth - estimate <= a.deduction + 1e-9

    def test_half_life_mismatch_refused(self):
        with pytest.raises(MergeError, match="half_life"):
            DecayedMisraGries(4, 10.0).merge(DecayedMisraGries(4, 20.0))

    def test_k_mismatch_refused(self):
        with pytest.raises(MergeError, match="k mismatch"):
            DecayedMisraGries(4, 10.0).merge(DecayedMisraGries(8, 10.0))


@given(
    events=st.lists(
        st.tuples(st.integers(0, 10), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=150,
    ),
    k=st.integers(1, 8),
    split=st.integers(0, 150),
)
@settings(max_examples=80, deadline=None)
def test_decayed_merge_invariant_property(events, k, split):
    """For any event sequence and split: estimates underestimate the
    decayed truth by at most the deduction, which respects the bound."""
    half_life = 10.0
    split = split % (len(events) + 1)
    a = DecayedMisraGries(k, half_life)
    b = DecayedMisraGries(k, half_life)
    for item, t in events[:split]:
        a.observe(item, t)
    for item, t in events[split:]:
        b.observe(item, t)
    merged = a.merge(b) if events[split:] or True else a
    now = merged.reference_time
    assert merged.deduction <= merged.error_bound + 1e-6
    for item in {i for i, _ in events}:
        truth = sum(
            0.5 ** ((now - t) / half_life) for i, t in events if i == item
        )
        estimate = merged.estimate(item)
        assert estimate <= truth + 1e-6
        assert truth - estimate <= merged.deduction + 1e-6
