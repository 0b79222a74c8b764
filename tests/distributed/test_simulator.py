"""Integration tests for the distributed aggregation simulator."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.distributed import (
    ContiguousPartitioner,
    FaultModel,
    Node,
    SortedPartitioner,
    balanced_tree,
    build_topology,
    chain,
    run_aggregation,
)
from repro.frequency import ExactCounter, MisraGries
from repro.quantiles import MergeableQuantiles
from repro.workloads import zipf_stream


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(10_000, alpha=1.2, universe=2_000, rng=9)


class TestRunAggregation:
    def test_exact_counter_equals_sequential(self, stream):
        result = run_aggregation(
            stream, ContiguousPartitioner(), ExactCounter, balanced_tree(8)
        )
        assert result.summary.counters() == dict(Counter(stream.tolist()))
        assert result.summary.n == len(stream)
        assert result.merges == 7
        assert result.depth == 3

    @pytest.mark.parametrize("topology", ["balanced", "chain", "star"])
    def test_mg_guarantee_through_simulator(self, stream, topology):
        k = 16
        result = run_aggregation(
            stream,
            ContiguousPartitioner(),
            lambda: MisraGries(k),
            build_topology(topology, 12),
        )
        truth = Counter(stream.tolist())
        bound = len(stream) / (k + 1)
        assert result.summary.n == len(stream)
        assert result.max_size_en_route <= k
        for item, count in truth.most_common(30):
            est = result.summary.estimate(item)
            assert est <= count
            assert count - est <= bound

    def test_serialize_mode_ships_bytes(self, stream):
        result = run_aggregation(
            stream,
            ContiguousPartitioner(),
            lambda: MisraGries(8),
            chain(4),
            serialize=True,
        )
        assert result.bytes_shipped > 0
        assert result.summary.n == len(stream)

    def test_serialize_and_plain_agree(self, stream):
        plain = run_aggregation(
            stream, ContiguousPartitioner(), lambda: MisraGries(8), chain(4)
        )
        wired = run_aggregation(
            stream,
            ContiguousPartitioner(),
            lambda: MisraGries(8),
            chain(4),
            serialize=True,
        )
        assert plain.summary.counters() == wired.summary.counters()

    def test_quantile_summary_on_sorted_partition(self):
        values = np.random.default_rng(10).random(2**13)
        result = run_aggregation(
            values,
            SortedPartitioner(),
            lambda: MergeableQuantiles(128, rng=3),
            balanced_tree(16),
        )
        n = len(values)
        data = np.sort(values)
        for q in (0.1, 0.5, 0.9):
            x = data[int(q * (n - 1))]
            true_rank = np.searchsorted(data, x, side="right")
            assert abs(result.summary.rank(x) - true_rank) <= 0.05 * n

    def test_duplicate_injection_counts_and_inflates_n(self, stream):
        result = run_aggregation(
            stream,
            ContiguousPartitioner(),
            lambda: MisraGries(16),
            chain(8),
            fault_model=FaultModel(duplicate=1.0, rng=1),
            exactly_once=False,
        )
        assert result.duplicated_deliveries == 7
        assert result.summary.n > len(stream)

    def test_duplicates_are_noop_for_lattice_summaries(self, stream):
        from repro.sketches import HyperLogLog

        clean = run_aggregation(
            stream, ContiguousPartitioner(),
            lambda: HyperLogLog(p=10, seed=1), chain(8),
        )
        faulty = run_aggregation(
            stream, ContiguousPartitioner(),
            lambda: HyperLogLog(p=10, seed=1), chain(8),
            fault_model=FaultModel(duplicate=1.0, rng=2), exactly_once=False,
        )
        assert faulty.duplicated_deliveries == 7
        assert faulty.summary.distinct() == clean.summary.distinct()

    def test_invalid_duplicate_probability(self, stream):
        from repro.core import ParameterError

        with pytest.raises(ParameterError):
            run_aggregation(
                stream, ContiguousPartitioner(), lambda: MisraGries(8),
                chain(4), fault_model=FaultModel(duplicate=1.5),
            )

    def test_timings_populated(self, stream):
        result = run_aggregation(
            stream, ContiguousPartitioner(), lambda: MisraGries(8), chain(4)
        )
        assert result.build_seconds >= 0
        assert result.merge_seconds >= 0


class TestNode:
    def test_emit_before_build_raises(self):
        node = Node(node_id=0, shard=np.array([1, 2]))
        with pytest.raises(RuntimeError, match="no summary"):
            node.emit()

    def test_absorb_before_build_raises(self):
        node = Node(node_id=0, shard=np.array([1]))
        with pytest.raises(RuntimeError):
            node.absorb("{}", serialized=True)

    def test_emit_serialized_counts_bytes(self):
        node = Node(node_id=0, shard=np.array([1, 2, 2]))
        node.build(ExactCounter)
        payload = node.emit(serialize=True)
        assert isinstance(payload, str)
        assert node.bytes_sent == len(payload)

    def test_absorb_merges(self):
        a = Node(node_id=0, shard=np.array([1, 1]))
        b = Node(node_id=1, shard=np.array([2]))
        a.build(ExactCounter)
        b.build(ExactCounter)
        a.absorb(b.emit(serialize=True))
        assert a.summary.n == 3
        assert a.merges_performed == 1

    def test_build_with_pre_aggregated_shard(self):
        # distinct values + multiplicities: a pre-aggregated leaf shard
        node = Node(
            node_id=0,
            shard=np.array([1, 2, 3]),
            shard_weights=np.array([10, 20, 30]),
        )
        node.build(ExactCounter)
        assert node.summary.n == 60
        assert node.summary.estimate(2) == 20
