"""Wire-format round-trips for every registered summary type."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import SerializationError, registered_names
from repro.core.codecs import dumps, from_envelope, loads, state_checksum, to_envelope
from repro.frequency import CountMin, ExactCounter, MisraGries
from repro.kernels import EpsKernel
from repro.quantiles import MergeableQuantiles
from repro.ranges import EpsApproximation


def _build_all_registered():
    """One populated instance per registered summary type."""
    from repro.frequency import CountSketch, MajorityVote, SpaceSaving
    from repro.quantiles import (
        BottomKSample,
        EqualWeightQuantiles,
        ExactQuantiles,
        GKQuantiles,
        HybridQuantiles,
        MomentSketch,
        MRLQuantiles,
    )

    from repro.decay import DecayedMisraGries, WindowedMisraGries
    from repro.quantiles import KLLQuantiles
    from repro.sketches import AmsF2Sketch, BloomFilter, HyperLogLog, KMinValues

    from repro.frequency import ConservativeCountMin

    def _conservative(items_):
        return ConservativeCountMin(32, 3, seed=1).extend(items_)

    def _hierarchy(items_):
        from repro.frequency import DyadicHierarchy

        return DyadicHierarchy(8, 8).extend(items_)

    rng = np.random.default_rng(3)
    items = rng.integers(0, 50, size=400).tolist()
    values = rng.random(400)
    points = rng.random((64, 2))
    decayed = DecayedMisraGries(8, half_life=5.0)
    for t, item in enumerate(items[:50]):
        decayed.observe(item, float(t))
    windowed = WindowedMisraGries(8, bucket_width=5.0, num_buckets=6)
    for t, item in enumerate(items[:50]):
        windowed.observe(item, float(t))
    instances = {
        "k_min_values": KMinValues(16, seed=1).extend(items),
        "hyperloglog": HyperLogLog(p=4, seed=1).extend(items),
        "bloom_filter": BloomFilter(64, 3, seed=1).extend(items),
        "ams_f2": AmsF2Sketch(8, 3, seed=1).extend(items),
        "decayed_misra_gries": decayed,
        "windowed_misra_gries": windowed,
        "kll_quantiles": KLLQuantiles(16, rng=1).extend(values),
        "moment_sketch": MomentSketch(10).extend(values),
        "misra_gries": MisraGries(8).extend(items),
        "space_saving": SpaceSaving(8).extend(items),
        "majority_vote": MajorityVote().extend(items),
        "count_min": CountMin(32, 3, seed=1).extend(items),
        "conservative_count_min": _conservative(items),
        "dyadic_hierarchy": _hierarchy(items),
        "count_sketch": CountSketch(32, 3, seed=1).extend(items),
        "exact_counter": ExactCounter().extend(items),
        "exact_quantiles": ExactQuantiles().extend(values),
        "gk_quantiles": GKQuantiles(0.05).extend(values),
        "equal_weight_quantiles": EqualWeightQuantiles(16).extend(values[:10]),
        "mergeable_quantiles": MergeableQuantiles(32, rng=1).extend(values),
        "hybrid_quantiles": HybridQuantiles(0.1, rng=1).extend(values),
        "mrl_quantiles": MRLQuantiles(32).extend(values),
        "bottom_k_sample": BottomKSample(50, rng=1).extend(values),
        "eps_approximation": EpsApproximation("intervals_1d", s=32, rng=1).extend_points(
            values
        ),
        "eps_kernel": EpsKernel(0.1).extend_points(points),
    }
    # auto-derived windowed.<name> variants: built from the conformance
    # suite's prototype factories so no per-type code is needed here
    from tests.test_protocol_conformance import SPECS as conformance_specs

    for name, spec in conformance_specs.items():
        if name.startswith("windowed."):
            instances[name] = spec.factory().extend(spec.feed_a())
    return instances


class TestRoundTrips:
    def test_every_registered_type_round_trips(self):
        instances = _build_all_registered()
        missing = set(registered_names()) - set(instances)
        assert not missing, f"serialization test misses registered types: {missing}"
        for name, summary in instances.items():
            restored = loads(dumps(summary))
            assert type(restored) is type(summary), name
            assert restored.n == summary.n, name
            assert restored.size() == summary.size(), name

    def test_frequency_estimates_survive(self):
        summary = MisraGries(8).extend([1, 1, 1, 2, 2, 3])
        restored = loads(dumps(summary))
        assert restored.counters() == summary.counters()
        assert restored.deduction == summary.deduction

    def test_quantile_answers_survive(self):
        values = np.random.default_rng(5).random(500)
        summary = MergeableQuantiles(32, rng=2).extend(values)
        restored = loads(dumps(summary))
        for q in (0.1, 0.5, 0.9):
            assert restored.quantile(q) == summary.quantile(q)

    def test_restored_summary_still_merges(self):
        a = MisraGries(8).extend([1, 1, 2])
        b = loads(dumps(MisraGries(8).extend([2, 3])))
        a.merge(b)
        assert a.n == 5

    def test_countmin_table_survives(self):
        sketch = CountMin(16, 2, seed=4).extend([1, 2, 3, 1])
        restored = loads(dumps(sketch))
        assert restored.estimate(1) == sketch.estimate(1)


class TestEnvelopeErrors:
    def test_invalid_json_raises(self):
        with pytest.raises(SerializationError, match="invalid JSON"):
            loads("{not json")

    def test_unknown_type_raises(self):
        payload = json.dumps({"format": 1, "type": "no_such", "state": {}})
        with pytest.raises(SerializationError, match="unknown summary name"):
            loads(payload)

    def test_missing_keys_raise(self):
        with pytest.raises(SerializationError, match="malformed"):
            from_envelope({"format": 1})

    def test_bad_version_raises(self):
        envelope = to_envelope(ExactCounter())
        envelope["format"] = 99
        with pytest.raises(SerializationError, match="unsupported envelope format"):
            from_envelope(envelope)

    def test_unregistered_class_raises(self):
        class Rogue(ExactCounter):
            pass

        rogue = Rogue()
        rogue.registry_name = None
        with pytest.raises(SerializationError, match="not registered"):
            to_envelope(rogue)


class TestChecksum:
    def test_envelope_carries_state_checksum(self):
        envelope = to_envelope(MisraGries(8).extend([1, 1, 2]))
        assert envelope["format"] == 2
        assert envelope["checksum"] == state_checksum(envelope["state"])

    def test_checksum_survives_wire_round_trip(self):
        """The CRC computed over the in-memory state must equal the one
        computed over the parsed state — for every registered type."""
        for name, summary in _build_all_registered().items():
            loads(dumps(summary))  # raises on any checksum instability

    def test_tampered_state_rejected(self):
        envelope = to_envelope(MisraGries(8).extend([1, 1, 2]))
        envelope["state"]["n"] = 999
        with pytest.raises(SerializationError, match="checksum mismatch"):
            from_envelope(envelope)

    def test_tampered_checksum_rejected(self):
        envelope = to_envelope(MisraGries(8).extend([1, 1, 2]))
        envelope["checksum"] ^= 1
        with pytest.raises(SerializationError, match="checksum mismatch"):
            from_envelope(envelope)

    def test_checksumless_v1_payload_still_loads(self):
        """Payloads persisted by the previous format version keep working."""
        envelope = to_envelope(MisraGries(8).extend([1, 2, 2]))
        legacy = {"format": 1, "type": envelope["type"], "state": envelope["state"]}
        restored = from_envelope(legacy)
        assert restored.n == 3

    def test_checksumless_v2_payload_rejected(self):
        # every format-2 envelope is written with its checksum, so a
        # missing one is damage: it must not switch the check off
        envelope = to_envelope(MisraGries(8).extend([1, 2, 3, 3, 4] * 5))
        del envelope["checksum"]
        envelope["state"]["n"] = 999
        with pytest.raises(SerializationError, match="no checksum"):
            from_envelope(envelope)
        with pytest.raises(SerializationError, match="no checksum"):
            loads(json.dumps(envelope))

    def test_single_digit_flip_anywhere_is_detected(self):
        payload = dumps(MisraGries(8).extend([1, 1, 2, 3, 3, 3]))
        for i, char in enumerate(payload):
            if not char.isdigit():
                continue
            flipped = payload[:i] + str((int(char) + 1) % 10) + payload[i + 1 :]
            with pytest.raises(SerializationError):
                loads(flipped)
