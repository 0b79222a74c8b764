"""Copies inherit their source's answer state (KLL view, HLL estimate).

A native ``copy()`` of :class:`KLLQuantiles` or :class:`HyperLogLog`
hands the copy the source's answer state, or a weak link through which
the copy's first answer builds that state on the source.  The link
holds only while neither side has moved ``n``; answers never differ
from a fresh build of the copy's own state.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.quantiles import KLLQuantiles
from repro.sketches import HyperLogLog
from repro.store import CubeStore


def _kll():
    return KLLQuantiles(64, rng=7).extend(np.random.default_rng(1).random(3000))


def _hll():
    return HyperLogLog(p=8, seed=2).extend(range(2000))


#: kind -> (factory, attribute holding the answer state, the answer)
KINDS = {
    "kll": (_kll, "_view", lambda s: s.quantiles([0.01, 0.5, 0.99])),
    "hll": (_hll, "_estimate", lambda s: s.distinct()),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _fresh(summary):
    """The same state with nothing kept or linked: the reference."""
    return type(summary).from_dict(copy.deepcopy(summary).to_dict())


def _change(summary, how):
    if how == "update":
        summary.update(0.123456 if isinstance(summary, KLLQuantiles) else "new")
    else:
        other = (
            KLLQuantiles(64, rng=8).extend(np.linspace(0.0, 2.0, 400))
            if isinstance(summary, KLLQuantiles)
            else HyperLogLog(p=8, seed=2).extend(range(5000, 5400))
        )
        summary.merge(other)


class TestInheritance:
    def test_copy_of_an_answered_summary_shares_its_state(self, kind):
        make, attr, answer = kind
        source = make()
        expected = answer(source)
        clone = source.copy()
        assert getattr(clone, attr) is getattr(source, attr)
        assert clone._source is None
        assert answer(clone) == expected

    def test_first_answer_builds_on_the_source(self, kind):
        make, attr, answer = kind
        source = make()
        clone = source.copy()
        assert getattr(source, attr) is None
        assert answer(clone) == answer(_fresh(source))
        assert getattr(clone, attr) is getattr(source, attr) is not None
        assert source.copy().__dict__[attr] is getattr(source, attr)

    def test_inherited_view_equals_a_fresh_build(self):
        source = _kll()
        clone = source.copy()
        inherited = clone._sorted_view()
        built = _fresh(source)._sorted_view()
        assert inherited[0] == built[0] == source.n
        assert np.array_equal(inherited[1], built[1])
        assert np.array_equal(inherited[2], built[2])
        # copies share the arrays, so nobody may write into them
        assert not inherited[1].flags.writeable
        assert not inherited[2].flags.writeable
        assert clone.view_stats == {"hits": 1, "misses": 0}
        assert source.view_stats == {"hits": 0, "misses": 1}

    @pytest.mark.parametrize("side", ["copy", "source"])
    @pytest.mark.parametrize("how", ["update", "merge"])
    def test_link_is_dropped_when_either_side_moves(self, kind, side, how):
        make, attr, answer = kind
        source = make()
        clone = source.copy()
        _change(clone if side == "copy" else source, how)
        assert answer(clone) == answer(_fresh(clone))
        assert clone._source is None
        assert getattr(clone, attr)[0] == clone.n
        assert getattr(source, attr) is None  # nothing was built there

    def test_a_collected_source_leaves_the_copy_answering(self, kind):
        make, _attr, answer = kind
        source = make()
        expected = answer(_fresh(source))
        clone = source.copy()
        ref = weakref.ref(source)
        del source
        gc.collect()
        assert ref() is None
        assert answer(clone) == expected

    def test_linked_copies_pickle_and_deepcopy(self, kind):
        make, _attr, answer = kind
        source = make()
        clone = source.copy()
        assert clone._source is not None
        expected = answer(_fresh(source))
        assert answer(pickle.loads(pickle.dumps(clone))) == expected
        assert answer(copy.deepcopy(clone)) == expected
        assert clone._source is not None  # neither consumed the link
        assert answer(clone) == expected


# ---------------------------------------------------------------------------
# Through the cube: stored cells answered via fresh copies
# ---------------------------------------------------------------------------


def _cube():
    cube = CubeStore(width=1.0, dims=("region",), view_capacity=0)
    cube.add_member("lat", "kll_quantiles", field="v", k=32, rng=3)
    cube.add_member("users", "hyperloglog", field="u", p=6)
    rng = np.random.default_rng(5)
    records = [
        {"region": region, "v": float(rng.random()), "u": int(rng.integers(0, 300))}
        for region in ("eu", "us", "ap")
        for _ in range(200)
    ]
    cube.ingest(records, keys=[float(i % 2) for i in range(len(records))])
    return cube


def _answers(result):
    return {
        key: (
            members["lat"].quantiles([0.1, 0.5, 0.9]),
            members["users"].distinct().hex(),
        )
        for key, members in result.groups.items()
    }


class TestCubeCells:
    def test_stored_cell_answers_later_queries_from_kept_state(self):
        cube = _cube()
        first = cube.query(0, 1, group_by=["region"])
        expected = _answers(first)
        second = cube.query(0, 1, group_by=["region"])
        for members in second.groups.values():
            assert members["lat"]._view is not None
            assert members["users"]._estimate is not None
        assert _answers(second) == expected
        for members in second.groups.values():
            assert members["lat"].view_stats == {"hits": 1, "misses": 0}

    def test_query_results_pickle_and_deepcopy(self):
        cube = _cube()
        result = cube.query(0, 1, group_by=["region"])
        assert result[("eu",)]["lat"]._source is not None  # linked, unanswered
        pickled = pickle.loads(pickle.dumps(result))
        deep = copy.deepcopy(result)
        expected = _answers(result)
        assert _answers(pickled) == expected
        assert _answers(deep) == expected

    def test_replaced_cell_is_collected(self):
        expected = _answers(_cube().query(0, 1, group_by=["region"]))
        cube = _cube()
        result = cube.query(0, 1, group_by=["region"])
        assert result[("eu",)]["lat"]._source is not None  # linked, unanswered
        ref = weakref.ref(cube._groups[("eu",)].base[0].members["lat"])
        cube.ingest([{"region": "eu", "v": 0.5, "u": 1}], keys=[0.0])  # replaces it
        gc.collect()
        assert ref() is None
        assert _answers(result) == expected
