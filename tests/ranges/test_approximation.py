"""Unit and behaviour tests for the mergeable eps-approximation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EmptySummaryError, MergeError, ParameterError, merge_all
from repro.ranges import EpsApproximation


class TestConstruction:
    def test_odd_s_rejected(self):
        with pytest.raises(ParameterError, match="even"):
            EpsApproximation("intervals_1d", s=33)

    def test_too_small_s_rejected(self):
        with pytest.raises(ParameterError):
            EpsApproximation("intervals_1d", s=0)

    def test_unknown_space_rejected(self):
        with pytest.raises(ParameterError):
            EpsApproximation("donuts", s=8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            EpsApproximation("intervals_1d", s=8, method="wish")

    def test_from_epsilon_even_size(self):
        ea = EpsApproximation.from_epsilon("intervals_1d", 0.01)
        assert ea.s % 2 == 0
        assert ea.s >= 200


class TestCounting1D:
    def test_small_set_exact(self):
        ea = EpsApproximation("intervals_1d", s=16).extend_points(
            np.array([0.1, 0.2, 0.7])
        )
        assert ea.count((-np.inf, 0.5)) == 2
        assert ea.fraction((-np.inf, 0.5)) == pytest.approx(2 / 3)

    def test_counting_error_bounded(self):
        rng = np.random.default_rng(1)
        pts = rng.random(2**13)
        s = 128
        ea = EpsApproximation("intervals_1d", s=s, rng=2).extend_points(pts)
        for b in np.linspace(0.05, 0.95, 19):
            true = (pts <= b).sum()
            assert abs(ea.count((-np.inf, b)) - true) <= 8 / s * len(pts)

    def test_weight_conservation(self):
        pts = np.random.default_rng(3).random(1000)
        ea = EpsApproximation("intervals_1d", s=32, rng=1).extend_points(pts)
        # total weighted count over the full line equals n exactly
        assert ea.count((-np.inf, np.inf)) == ea.n == 1000

    def test_update_single_points(self):
        ea = EpsApproximation("intervals_1d", s=8, rng=1)
        ea.update(0.5)
        ea.update(np.array([0.7]))
        assert ea.n == 2

    def test_empty_fraction_raises(self):
        with pytest.raises(EmptySummaryError):
            EpsApproximation("intervals_1d", s=8).fraction((-np.inf, 1))


class TestCounting2D:
    def test_rectangle_counting_error(self):
        rng = np.random.default_rng(4)
        pts = rng.random((2**12, 2))
        ea = EpsApproximation("rectangles_2d", s=128, rng=5).extend_points(pts)
        for _ in range(20):
            x, y = rng.random(2)
            r = (-np.inf, x, -np.inf, y)
            true = ((pts[:, 0] <= x) & (pts[:, 1] <= y)).sum()
            assert abs(ea.count(r) - true) <= 0.08 * len(pts)

    def test_halfplane_counting_error(self):
        rng = np.random.default_rng(6)
        pts = rng.random((2**12, 2))
        ea = EpsApproximation("halfplanes_2d", s=128, rng=7).extend_points(pts)
        for _ in range(20):
            angle = rng.random() * 2 * np.pi
            a, b = np.cos(angle), np.sin(angle)
            c = float(pts @ np.array([a, b]) @ np.ones(len(pts)) / len(pts))
            true = (pts @ np.array([a, b]) <= c + 1e-12).sum()
            assert abs(ea.count((a, b, c)) - true) <= 0.1 * len(pts)


class TestMerge:
    def test_merged_error_on_adversarial_shards(self):
        rng = np.random.default_rng(8)
        pts = np.sort(rng.random(2**13))
        shards = np.array_split(pts, 16)  # disjoint value ranges per node
        parts = [
            EpsApproximation("intervals_1d", s=128, rng=20 + i).extend_points(s)
            for i, s in enumerate(shards)
        ]
        merged = merge_all(parts, strategy="chain")
        assert merged.n == len(pts)
        for b in np.linspace(0.05, 0.95, 19):
            true = (pts <= b).sum()
            assert abs(merged.count((-np.inf, b)) - true) <= 0.06 * len(pts)

    def test_space_mismatch_refused(self):
        a = EpsApproximation("intervals_1d", s=8)
        b = EpsApproximation("rectangles_2d", s=8)
        with pytest.raises(MergeError, match="range space mismatch"):
            a.merge(b)

    def test_s_mismatch_refused(self):
        with pytest.raises(MergeError, match="block size mismatch"):
            EpsApproximation("intervals_1d", s=8).merge(
                EpsApproximation("intervals_1d", s=16)
            )

    def test_method_mismatch_refused(self):
        with pytest.raises(MergeError, match="halving method mismatch"):
            EpsApproximation("intervals_1d", s=8).merge(
                EpsApproximation("intervals_1d", s=8, method="greedy")
            )

    def test_size_stays_logarithmic(self):
        pts = np.random.default_rng(9).random(64 * 64)
        ea = EpsApproximation("intervals_1d", s=64, rng=1).extend_points(pts)
        assert ea.size() <= 64 * 8

    def test_points_accessor_weights(self):
        ea = EpsApproximation("intervals_1d", s=4, rng=1).extend_points(
            np.random.default_rng(10).random(16)
        )
        total = sum(w for _, w in ea.points())
        assert total == ea.n
