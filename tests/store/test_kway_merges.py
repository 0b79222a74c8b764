"""k-way merges of every store member, past 2κ distinct items.

A store query, a cube query and a cube compaction merge all their parts
in one ``merge_many`` call.  ``tests/test_merge_runtime.py`` checks
``merge_many`` for each type at one configuration; this suite takes
every member configuration of the store suites (non-default options
included) plus the Cafaro prune rule of the counter summaries, whose
closed form covers the combine of two summaries only.  Each operand
draws from its own range of values, so a 16-counter summary's operands
hold more than 2κ distinct counters between them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.merge import merge_all, merge_chain
from repro.store import CubeStore, SegmentStore
from repro.store.segment import MemberSpec

from tests.test_merge_runtime import MERGE_SPECS

from .test_store import CUSTOM_CHECKS, STATE_IDENTICAL, STORE_MEMBERS, _canon

PARTS = 4

#: id -> (type name, constructor arguments, feed kind)
CONFIGS = {name: (name, kwargs, kind) for name, (kwargs, kind) in STORE_MEMBERS.items()}
CONFIGS.update(
    {
        f"{name}-cafaro": (name, {"k": 16, "prune_rule": "cafaro"}, "ints")
        for name in ("misra_gries", "space_saving")
    }
)


def _feeds(kind: str) -> list:
    feeds = []
    for part in range(PARTS):
        rng = np.random.default_rng(700 + part)
        if kind == "ints":  # skewed, over 50 values of its own per operand
            feeds.append(((rng.zipf(1.3, size=160) - 1) % 50 + 50 * part).tolist())
        elif kind == "floats":
            feeds.append(rng.random(160).tolist())
        else:
            feeds.append(list(rng.random((24, 2))))
    return feeds


def _parts(type_name: str, kwargs: dict, feeds: list) -> list:
    spec = MemberSpec(type_name, "v", kwargs)  # built as a store member is
    parts = []
    for feed in feeds:
        summary = spec.build()
        summary.update_batch(feed)
        parts.append(summary)
    return parts


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_merge_many_past_two_kappa_stays_within_the_bound(config):
    type_name, kwargs, kind = CONFIGS[config]
    feeds = _feeds(kind)
    parts = _parts(type_name, kwargs, feeds)
    if "prune_rule" in kwargs:
        assert sum(part.size() for part in parts) > 2 * kwargs["k"]
    kway = parts[0].merge_many(parts[1:])
    fold = merge_chain(_parts(type_name, kwargs, feeds))
    assert kway.n == fold.n == sum(len(feed) for feed in feeds)
    if type_name in STATE_IDENTICAL:
        assert _canon(kway) == _canon(fold)
    elif type_name in CUSTOM_CHECKS:
        CUSTOM_CHECKS[type_name](kway, fold, feeds)
    else:
        MERGE_SPECS[type_name].check(fold, kway, feeds)


def _cafaro_parts(name: str) -> tuple:
    """Four k = 4 operands holding more counters than a two-way combine."""
    feeds = _feeds("ints")
    parts = _parts(name, {"k": 4, "prune_rule": "cafaro"}, feeds)
    assert sum(part.size() for part in parts) > 2 * 4
    return feeds, parts


def _assert_counter_bound(summary, truth: Counter) -> None:
    """Theorem 2.1 for MG (under-counts) and SS (over-counts)."""
    n = sum(truth.values())
    assert summary.n == n
    assert summary.size() <= summary.k
    for item, count in truth.items():
        error = summary.estimate(item) - count
        if type(summary).__name__ == "SpaceSaving":
            assert 0 <= error <= n / summary.k
        else:
            assert -n / (summary.k + 1) <= error <= 0


@pytest.mark.parametrize("name", ["misra_gries", "space_saving"])
class TestCafaroThroughTheStore:
    def test_merge_all_kway(self, name):
        feeds, parts = _cafaro_parts(name)
        merged = merge_all(parts, "kway")
        _assert_counter_bound(merged, Counter(v for feed in feeds for v in feed))

    def test_store_query_over_four_segments(self, name):
        store = SegmentStore(width=1.0)
        store.add_member("hot", name, field="v", k=4, prune_rule="cafaro")
        feeds, _ = _cafaro_parts(name)
        store.ingest(
            [{"v": v} for feed in feeds for v in feed],
            keys=[float(epoch) for epoch, feed in enumerate(feeds) for _ in feed],
        )
        result = store.query(0, PARTS, use_rollups=False)
        assert result.plan.fan_in == PARTS
        _assert_counter_bound(result["hot"], Counter(v for feed in feeds for v in feed))

    def test_cube_query_and_compaction_over_four_cells(self, name):
        cube = CubeStore(width=1.0, dims=("region",))
        cube.add_member("hot", name, field="v", k=4, prune_rule="cafaro")
        feeds, _ = _cafaro_parts(name)
        cube.ingest(
            [{"region": f"r{part}", "v": v} for part, feed in enumerate(feeds) for v in feed],
            keys=[0.5] * sum(len(feed) for feed in feeds),
        )
        truth = Counter(v for feed in feeds for v in feed)
        _assert_counter_bound(cube.query(0, 1)[()]["hot"], truth)
        cube.compact(workload=[{}])
        assert () in cube.materialized_masks()
        _assert_counter_bound(cube.query(0, 1)[()]["hot"], truth)
