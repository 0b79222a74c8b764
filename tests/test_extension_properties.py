"""Property-based tests (hypothesis) for the extension components.

Same discipline as the §2/§3 property suites: quantify over arbitrary
streams and split points, assert the invariant each extension claims.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequency import DyadicHierarchy
from repro.quantiles import KLLQuantiles
from repro.sketches import BloomFilter, HyperLogLog, KMinValues

small_domain_items = st.lists(st.integers(0, 255), min_size=1, max_size=250)


def _split(stream: List[int], cut: int) -> tuple:
    cut = cut % (len(stream) + 1)
    return stream[:cut], stream[cut:]


# ---------------------------------------------------------------------------
# Dyadic hierarchy: bracketing under any stream and any split
# ---------------------------------------------------------------------------


@given(stream=small_domain_items, k=st.integers(2, 16), cut=st.integers(0, 10**6),
       lo=st.integers(0, 255), hi=st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_hierarchy_range_brackets_truth_after_merge(stream, k, cut, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    left, right = _split(stream, cut)
    a = DyadicHierarchy(k, 8)
    b = DyadicHierarchy(k, 8)
    for x in left:
        a.update(x)
    for x in right:
        b.update(x)
    a.merge(b)
    truth = sum(1 for x in stream if lo <= x <= hi)
    assert a.range_count(lo, hi) <= truth <= a.range_count_upper(lo, hi)


@given(stream=small_domain_items, k=st.integers(2, 16))
@settings(max_examples=80, deadline=None)
def test_hierarchy_levels_conserve_total(stream, k):
    h = DyadicHierarchy(k, 8)
    for x in stream:
        h.update(x)
    # top level has a single block holding everything: exact count
    assert h.prefix_estimate(0, 8) == len(stream)
    assert h.n == len(stream)


# ---------------------------------------------------------------------------
# Distinct sketches: merged state == sequential state, any split
# ---------------------------------------------------------------------------


@given(stream=small_domain_items, cut=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_kmv_merge_equals_sequential(stream, cut):
    left, right = _split(stream, cut)
    sequential = KMinValues(16, seed=5).extend(stream)
    merged = KMinValues(16, seed=5).extend(left)
    merged.merge(KMinValues(16, seed=5).extend(right))
    assert merged.to_dict()["values"] == sequential.to_dict()["values"]


@given(stream=small_domain_items, cut=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_hll_merge_equals_sequential(stream, cut):
    left, right = _split(stream, cut)
    sequential = HyperLogLog(p=4, seed=5).extend(stream)
    merged = HyperLogLog(p=4, seed=5).extend(left)
    merged.merge(HyperLogLog(p=4, seed=5).extend(right))
    assert (merged._registers == sequential._registers).all()


@given(stream=small_domain_items)
@settings(max_examples=60, deadline=None)
def test_kmv_small_cardinality_exact(stream):
    distinct = len(set(stream))
    kmv = KMinValues(1024, seed=1).extend(stream)
    if distinct < 1024:
        assert kmv.distinct() == distinct


# ---------------------------------------------------------------------------
# Bloom: never a false negative, any split + merge
# ---------------------------------------------------------------------------


@given(stream=small_domain_items, cut=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_bloom_no_false_negatives_after_merge(stream, cut):
    left, right = _split(stream, cut)
    a = BloomFilter(256, 3, seed=2).extend(left) if left else BloomFilter(256, 3, seed=2)
    b = BloomFilter(256, 3, seed=2).extend(right) if right else BloomFilter(256, 3, seed=2)
    a.merge(b)
    for x in stream:
        assert x in a


# ---------------------------------------------------------------------------
# KLL: weight conservation and monotone ranks under splits
# ---------------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ),
    cut=st.integers(0, 10**6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_kll_weight_conserved_after_merge(values, cut, seed):
    left, right = _split(values, cut)
    a = KLLQuantiles(16, rng=seed).extend(left) if left else KLLQuantiles(16, rng=seed)
    b = KLLQuantiles(16, rng=seed + 1).extend(right) if right else KLLQuantiles(
        16, rng=seed + 1
    )
    a.merge(b)
    total = sum((2**level) * len(buf) for level, buf in enumerate(a._levels))
    assert total == a.n == len(values)


@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=150,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_kll_rank_monotone(values, seed):
    kll = KLLQuantiles(16, rng=seed).extend(values)
    probes = sorted(set(values))
    ranks = [kll.rank(x) for x in probes]
    assert ranks == sorted(ranks)
    assert ranks[-1] <= len(values)


@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=150,
    ),
    q=st.floats(0, 1),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_kll_quantile_returns_input_value(values, q, seed):
    kll = KLLQuantiles(16, rng=seed).extend(values)
    assert kll.quantile(q) in set(float(v) for v in values)
