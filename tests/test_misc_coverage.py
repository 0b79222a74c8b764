"""Focused tests for helper paths not covered by the main suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParameterError
from repro.quantiles.estimator import check_quantile


class TestCheckQuantile:
    def test_bounds(self):
        assert check_quantile(0) == 0.0
        assert check_quantile(1) == 1.0
        for bad in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                check_quantile(bad)


class TestGKInternals:
    def test_compress_reduces_tuples(self):
        from repro.quantiles import GKQuantiles

        gk = GKQuantiles(0.1)
        for v in np.random.default_rng(1).random(500):
            gk._insert(float(v), 1)
        before = gk.size()
        gk.compress()
        assert gk.size() < before

    def test_compress_preserves_total_g(self):
        from repro.quantiles import GKQuantiles

        gk = GKQuantiles(0.05).extend(np.random.default_rng(2).random(1_000))
        gk.compress()
        assert sum(g for _, g, _ in gk._tuples) == 1_000

    def test_error_bound_property_empty(self):
        from repro.quantiles import GKQuantiles

        assert GKQuantiles(0.1).error_bound == 0.0


class TestSpaceSavingExtras:
    def test_contains(self):
        from repro.frequency import SpaceSaving

        ss = SpaceSaving(4).extend([1, 1, 2])
        assert 1 in ss
        assert 99 not in ss

    def test_error_bound_property(self):
        from repro.frequency import SpaceSaving

        ss = SpaceSaving(10).extend(range(100))
        assert ss.error_bound == 10.0


class TestMisraGriesExtras:
    def test_error_bound_property(self):
        from repro.frequency import MisraGries

        mg = MisraGries(9).extend(range(100))
        assert mg.error_bound == 10.0

    def test_counters_is_a_copy(self):
        from repro.frequency import MisraGries

        mg = MisraGries(4).extend([1, 1])
        snapshot = mg.counters()
        snapshot[1] = 999
        assert mg.estimate(1) == 2


class TestMergeStrategiesRegistry:
    def test_registry_names(self):
        from repro.core.merge import MERGE_STRATEGIES

        assert set(MERGE_STRATEGIES) == {"chain", "tree", "random", "kway"}


class TestRangeSpaceExtras:
    def test_intervals_check_points_1d_reshape(self):
        from repro.ranges import Intervals1D

        pts = Intervals1D().check_points(np.array([1.0, 2.0]))
        assert pts.shape == (2, 1)

    def test_count_helper(self):
        from repro.ranges import Rectangles2D

        pts = np.array([[0.5, 0.5], [2.0, 2.0]])
        assert Rectangles2D().count(pts, (0, 1, 0, 1)) == 1


class TestKernelExtras:
    def test_hull_method_returns_hull_of_kernel(self):
        from repro.kernels import EpsKernel, convex_hull

        pts = np.random.default_rng(3).normal(size=(500, 2))
        kernel = EpsKernel(0.1).extend_points(pts)
        hull = kernel.hull()
        assert len(hull) <= kernel.size()
        assert np.allclose(
            np.sort(hull, axis=0), np.sort(convex_hull(kernel.kernel_points()), axis=0)
        )

    def test_empty_kernel_points(self):
        from repro.kernels import EpsKernel

        assert EpsKernel(0.1).kernel_points().shape == (0, 2)


class TestDecayedExtras:
    def test_update_without_timestamp_uses_reference(self):
        from repro.decay import DecayedMisraGries

        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 100.0)
        dmg.update("y", weight=2)
        assert dmg.reference_time == 100.0
        assert dmg.estimate("y") == pytest.approx(2.0)

    def test_contains(self):
        from repro.decay import DecayedMisraGries

        dmg = DecayedMisraGries(4, half_life=10.0)
        dmg.observe("x", 0.0)
        assert "x" in dmg
        assert "y" not in dmg


class TestCLIExtras:
    def test_parse_item_precedence(self):
        from repro.cli import _parse_item

        assert _parse_item("42") == 42
        assert _parse_item("4.5") == 4.5
        assert _parse_item("abc") == "abc"
        assert _parse_item("  7 ") == 7

    def test_parse_args_kv_literals(self):
        from repro.cli import _parse_args_kv

        kwargs = _parse_args_kv(["k=8", "epsilon=0.5", "name=foo"])
        assert kwargs == {"k": 8, "epsilon": 0.5, "name": "foo"}

    def test_parse_args_kv_none(self):
        from repro.cli import _parse_args_kv

        assert _parse_args_kv(None) == {}
