"""Unit tests for merge topologies."""

from __future__ import annotations

import pytest

from repro.core import ParameterError
from repro.distributed import (
    TOPOLOGIES,
    MergeSchedule,
    balanced_tree,
    build_topology,
    chain,
    kary_tree,
    random_tree,
    star,
)


def _validate_schedule(schedule: MergeSchedule):
    """Every non-root leaf absorbed exactly once; root never absorbed."""
    absorbed = [src for _, src in schedule.steps]
    assert len(absorbed) == schedule.leaves - 1
    assert len(set(absorbed)) == len(absorbed)
    assert schedule.root not in absorbed
    assert set(absorbed) | {schedule.root} <= set(range(schedule.leaves))


class TestBuilders:
    @pytest.mark.parametrize("leaves", [1, 2, 3, 7, 16, 33])
    def test_balanced_valid(self, leaves):
        _validate_schedule(balanced_tree(leaves))

    @pytest.mark.parametrize("leaves", [1, 2, 5, 16])
    def test_chain_valid(self, leaves):
        _validate_schedule(chain(leaves))

    @pytest.mark.parametrize("leaves", [1, 3, 10])
    def test_star_valid(self, leaves):
        _validate_schedule(star(leaves))

    @pytest.mark.parametrize("leaves,arity", [(16, 4), (27, 3), (5, 2)])
    def test_kary_valid(self, leaves, arity):
        _validate_schedule(kary_tree(leaves, arity))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_valid(self, seed):
        _validate_schedule(random_tree(12, rng=seed))

    def test_random_deterministic(self):
        assert random_tree(10, rng=5).steps == random_tree(10, rng=5).steps

    def test_kary_bad_arity(self):
        with pytest.raises(ParameterError):
            kary_tree(8, arity=1)


class TestDepth:
    def test_chain_depth_linear(self):
        assert chain(16).depth == 15

    def test_balanced_depth_logarithmic(self):
        assert balanced_tree(16).depth == 4
        assert balanced_tree(17).depth == 5

    def test_single_leaf_depth_zero(self):
        assert balanced_tree(1).depth == 0


class TestScheduleValidation:
    def test_self_merge_rejected(self):
        with pytest.raises(ParameterError, match="self-merge"):
            MergeSchedule("bad", 2, [(0, 0)], root=0)

    def test_reuse_of_absorbed_rejected(self):
        with pytest.raises(ParameterError, match="already-absorbed"):
            MergeSchedule("bad", 3, [(0, 1), (1, 2)], root=0)

    def test_wrong_step_count_rejected(self):
        with pytest.raises(ParameterError, match="exactly"):
            MergeSchedule("bad", 3, [(0, 1)], root=0)

    def test_absorbed_root_rejected(self):
        with pytest.raises(ParameterError, match="absorbed"):
            MergeSchedule("bad", 2, [(1, 0)], root=0)


class TestBuildTopology:
    def test_by_name(self):
        assert build_topology("chain", 4).name == "chain"
        assert build_topology("balanced", 4).name == "balanced"
        assert build_topology("random", 4, rng=1).name == "random"
        assert build_topology("kary", 9, arity=3).name == "3-ary"

    def test_unknown_raises(self):
        with pytest.raises(ParameterError, match="unknown topology"):
            build_topology("pentagram", 4)

    @pytest.mark.parametrize("leaves", [0, -2])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_fewer_than_one_leaf_rejected(self, name, leaves):
        # a typed error from every builder, never an IndexError
        with pytest.raises(ParameterError, match="leaves must be >= 1"):
            build_topology(name, leaves, rng=0)


class TestDescribe:
    def test_header_then_one_line_per_step(self):
        schedule = balanced_tree(5)
        lines = schedule.describe().splitlines()
        assert lines[0] == "schedule 'balanced': leaves=5, merges=4, depth=3, root=0"
        assert lines[1:] == [
            f"  {i:>3}. merge {dst} <- {src}"
            for i, (dst, src) in enumerate(schedule.steps)
        ]

    def test_single_leaf_has_no_steps(self):
        assert chain(1).describe().splitlines() == [
            "schedule 'chain': leaves=1, merges=0, depth=0, root=0"
        ]
