"""Protocol-conformance suite: every registered summary, same contract.

Parametrized over all registered summary types, these tests pin the
library-wide invariants that make summaries interchangeable behind the
`Summary` protocol:

- fresh summaries are empty;
- `merge` adds `n` exactly and leaves the other operand untouched;
- `merge` accepts a wire-round-tripped operand;
- serialization preserves `n` and `size`;
- `copy` equals the `from_dict(to_dict())` round trip and shares no
  state with its source;
- the stored form (`to_stored`, what the codecs write) makes the seed
  draws `to_dict` makes and restores the same logical state and answers
  through every codec;
- `compatible_with` accepts an identically configured twin;
- `update` rejects non-positive weights;
- merging a summary into itself returns, and equals merging a copy.

A new summary type only needs a `Spec` entry here (and the suite fails
loudly if a registered type forgets to add one).
"""

from __future__ import annotations

import copy
import json
import signal
from dataclasses import dataclass
from typing import Callable, List

import numpy as np
import pytest

from repro.core import (
    ParameterError,
    ReproError,
    Summary,
    dumps,
    loads,
    registered_codecs,
    registered_names,
)
from tests.store.test_store import _canon

# ---------------------------------------------------------------------------
# Per-type specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    name: str
    factory: Callable[[], Summary]
    feed_a: Callable[[], list]
    feed_b: Callable[[], list]
    #: lattice summaries (idempotent joins) vs additive ones
    supports_plain_update: bool = True


def _items(seed: int, n: int = 120) -> list:
    return np.random.default_rng(seed).integers(0, 40, size=n).tolist()


def _values(seed: int, n: int = 120) -> list:
    return np.random.default_rng(seed).random(n).tolist()


def _points(seed: int, n: int = 40) -> list:
    return list(np.random.default_rng(seed).random((n, 2)))


def _specs() -> List[Spec]:
    from repro.decay import DecayedMisraGries
    from repro.frequency import (
        ConservativeCountMin,
        DyadicHierarchy,
        CountMin,
        CountSketch,
        ExactCounter,
        MajorityVote,
        MisraGries,
        SpaceSaving,
    )
    from repro.kernels import EpsKernel
    from repro.quantiles import (
        BottomKSample,
        EqualWeightQuantiles,
        ExactQuantiles,
        GKQuantiles,
        HybridQuantiles,
        KLLQuantiles,
        MergeableQuantiles,
        MomentSketch,
        MRLQuantiles,
    )
    from repro.ranges import EpsApproximation
    from repro.sketches import AmsF2Sketch, BloomFilter, HyperLogLog, KMinValues

    def decayed_factory():
        return DecayedMisraGries(8, half_life=10.0)

    return [
        Spec("misra_gries", lambda: MisraGries(8), lambda: _items(1), lambda: _items(2)),
        Spec("space_saving", lambda: SpaceSaving(8), lambda: _items(3), lambda: _items(4)),
        Spec("majority_vote", MajorityVote, lambda: _items(5), lambda: _items(6)),
        Spec("count_min", lambda: CountMin(16, 3, seed=1), lambda: _items(7), lambda: _items(8)),
        Spec(
            "conservative_count_min",
            lambda: ConservativeCountMin(16, 3, seed=1),
            lambda: _items(9),
            lambda: _items(10),
        ),
        Spec(
            "dyadic_hierarchy",
            lambda: DyadicHierarchy(8, 8),
            lambda: _items(47),
            lambda: _items(48),
        ),
        Spec("count_sketch", lambda: CountSketch(16, 3, seed=1), lambda: _items(11), lambda: _items(12)),
        Spec("exact_counter", ExactCounter, lambda: _items(13), lambda: _items(14)),
        Spec("exact_quantiles", ExactQuantiles, lambda: _values(15), lambda: _values(16)),
        Spec("gk_quantiles", lambda: GKQuantiles(0.1), lambda: _values(17), lambda: _values(18)),
        Spec(
            "equal_weight_quantiles",
            lambda: EqualWeightQuantiles(8, rng=1),
            lambda: _values(19, n=8),
            lambda: _values(20, n=8),
        ),
        Spec(
            "mergeable_quantiles",
            lambda: MergeableQuantiles(16, rng=1),
            lambda: _values(21),
            lambda: _values(22),
        ),
        Spec(
            "hybrid_quantiles",
            lambda: HybridQuantiles(0.2, rng=1),
            lambda: _values(23),
            lambda: _values(24),
        ),
        Spec("kll_quantiles", lambda: KLLQuantiles(16, rng=1), lambda: _values(25), lambda: _values(26)),
        Spec("moment_sketch", lambda: MomentSketch(10), lambda: _values(49), lambda: _values(50)),
        Spec("mrl_quantiles", lambda: MRLQuantiles(16), lambda: _values(27), lambda: _values(28)),
        Spec(
            "bottom_k_sample",
            lambda: BottomKSample(20, rng=1),
            lambda: _values(29),
            lambda: _values(30),
        ),
        Spec(
            "eps_approximation",
            lambda: EpsApproximation("intervals_1d", s=8, rng=1),
            lambda: _values(31),
            lambda: _values(32),
        ),
        Spec("eps_kernel", lambda: EpsKernel(0.2), lambda: _points(33), lambda: _points(34)),
        Spec("k_min_values", lambda: KMinValues(16, seed=1), lambda: _items(35), lambda: _items(36)),
        Spec("hyperloglog", lambda: HyperLogLog(p=4, seed=1), lambda: _items(37), lambda: _items(38)),
        Spec("bloom_filter", lambda: BloomFilter(64, 3, seed=1), lambda: _items(39), lambda: _items(40)),
        Spec("ams_f2", lambda: AmsF2Sketch(8, 3, seed=1), lambda: _items(41), lambda: _items(42)),
        Spec(
            "decayed_misra_gries",
            decayed_factory,
            lambda: _items(43),
            lambda: _items(44),
        ),
    ]


def _windowed_specs(base_specs: List[Spec]) -> List[Spec]:
    """Derive a spec for every auto-registered ``windowed.<name>`` variant.

    Zero per-type code: the windowed combinator is parametrized by an
    empty prototype, so each base spec's factory doubles as the
    prototype factory.  Coarse granularity keeps the sub-summary count
    (and suite runtime) small while still exercising the EH cascade.
    """
    from repro.windows import windowed_names

    derived = set(windowed_names())
    specs = []
    for spec in base_specs:
        name = f"windowed.{spec.name}"
        if name not in derived:
            continue
        specs.append(
            Spec(
                name,
                lambda s=spec: s.factory().windowed(eps=0.25, granularity=4),
                spec.feed_a,
                spec.feed_b,
                spec.supports_plain_update,
            )
        )
    return specs


BASE_SPECS = {spec.name: spec for spec in _specs()}
SPECS = dict(BASE_SPECS)
SPECS.update({spec.name: spec for spec in _windowed_specs(list(BASE_SPECS.values()))})


def test_every_registered_type_has_a_spec():
    missing = set(registered_names()) - set(SPECS)
    assert not missing, f"conformance suite misses registered types: {missing}"


@pytest.fixture(params=sorted(SPECS), ids=sorted(SPECS))
def spec(request) -> Spec:
    return SPECS[request.param]


def _returns_within(seconds: int, call: Callable[[], object]) -> bool:
    """Run ``call``; ``False`` if it has not returned after ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        call()
    except TimeoutError:
        return False
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return True


def _state(summary: Summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


def _answers(summary: Summary, feed: list) -> str:
    """What a reader asks of ``summary``, for the first items of ``feed``.

    A windowed summary answers through its merged window view.  A query
    that raises answers with its error type, and the answers are
    compared as text, so NaN equals NaN.
    """

    def ask(method, *args):
        try:
            return getattr(summary, method)(*args)
        except ReproError as exc:  # an empty summary has no quantiles
            return type(exc).__name__

    if hasattr(summary, "window_query"):
        summary = summary.window_query().summary
    answers = [summary.n, summary.size()]
    for probe in feed[:3]:
        for method in ("estimate", "rank", "__contains__"):
            if hasattr(summary, method) and not isinstance(probe, np.ndarray):
                answers.append(ask(method, probe))
    for method, args in (("quantile", (0.5,)), ("distinct", ()), ("f2", ())):
        if hasattr(summary, method):
            answers.append(ask(method, *args))
    return repr(answers)


class TestProtocolConformance:
    def test_fresh_summary_is_empty(self, spec):
        summary = spec.factory()
        assert summary.is_empty
        assert summary.n == 0

    def test_extend_counts_n(self, spec):
        feed = spec.feed_a()
        summary = spec.factory().extend(feed)
        assert summary.n == len(feed)
        assert not summary.is_empty
        assert summary.size() >= 0

    def test_merge_adds_n_exactly(self, spec):
        a = spec.factory().extend(spec.feed_a())
        b = spec.factory().extend(spec.feed_b())
        total = a.n + b.n
        assert a.merge(b) is a
        assert a.n == total

    def test_merge_leaves_other_unchanged(self, spec):
        a = spec.factory().extend(spec.feed_a())
        b = spec.factory().extend(spec.feed_b())
        b_n, b_size = b.n, b.size()
        a.merge(b)
        assert b.n == b_n
        assert b.size() == b_size

    def test_serialization_preserves_shape(self, spec):
        summary = spec.factory().extend(spec.feed_a())
        restored = loads(dumps(summary))
        assert type(restored) is type(summary)
        assert restored.n == summary.n
        assert restored.size() == summary.size()

    def test_merge_accepts_roundtripped_operand(self, spec):
        a = spec.factory().extend(spec.feed_a())
        b = loads(dumps(spec.factory().extend(spec.feed_b())))
        total = a.n + b.n
        a.merge(b)
        assert a.n == total

    def test_compatible_with_identical_twin(self, spec):
        a = spec.factory()
        b = spec.factory()
        assert a.compatible_with(b) is None

    def test_update_rejects_nonpositive_weight(self, spec):
        if not spec.supports_plain_update:
            pytest.skip("type has no plain update")
        summary = spec.factory()
        sample = spec.feed_a()[0]
        for bad in (0, -3):
            with pytest.raises(ParameterError):
                summary.update(sample, weight=bad)

    def test_len_matches_size(self, spec):
        summary = spec.factory().extend(spec.feed_a())
        assert len(summary) == summary.size()

    def test_copy_is_an_independent_round_trip(self, spec):
        # half feeds keep equal-weight bases able to merge and update
        feed_a, feed_b = spec.feed_a(), spec.feed_b()
        half = len(feed_a) // 2
        summary = spec.factory().extend(feed_a[:half])
        copy = summary.copy()
        restored = type(summary).from_dict(summary.to_dict())
        assert type(copy) is type(summary)
        assert (copy.n, copy.size()) == (restored.n, restored.size())
        assert _canon(copy) == _canon(restored)
        # neither side may share mutable state with the other
        original = _canon(summary)
        copy.merge(spec.factory().extend(feed_b[:half]))
        assert _canon(summary) == original
        copy = summary.copy()  # a merge may have replaced shared state
        copied = _canon(copy)
        summary.extend(feed_a[half:])
        assert _canon(copy) == copied

    @pytest.mark.parametrize("codec", [None] + registered_codecs())
    @pytest.mark.parametrize("fed", [False, True], ids=["empty", "fed"])
    def test_stored_form_restores_the_logical_state(self, spec, codec, fed):
        summary = spec.factory()
        if fed:
            summary.extend(spec.feed_a())
        stored_side, dict_side = copy.deepcopy(summary), copy.deepcopy(summary)
        if codec is None:
            restored = type(summary).from_dict(stored_side.to_stored())
        else:
            restored = loads(dumps(stored_side, codec))  # writes to_stored()
        logical = json.loads(json.dumps(dict_side.to_dict()))
        # to_stored made the seed draws to_dict made: the streams agree
        assert _state(stored_side) == _state(dict_side)
        reference = type(summary).from_dict(logical)
        assert type(restored) is type(summary)
        assert _state(restored) == _state(reference)
        assert _answers(restored, spec.feed_b()) == _answers(reference, spec.feed_b())

    def test_merge_into_itself_merges_a_snapshot(self, spec):
        # merge code walks the operand while growing itself: with one
        # object on both sides it used to loop forever or go wrong, and
        # merge_many silently dropped the operand
        summary = spec.factory().extend(spec.feed_a())
        reference = copy.deepcopy(summary)
        reference.merge(copy.deepcopy(reference))
        # one to_dict per summary: it may draw a seed from its coins
        expected = json.dumps(reference.to_dict(), sort_keys=True)
        for how in ("merge", "merge_many"):
            merged = copy.deepcopy(summary)
            if how == "merge":
                call = lambda: merged.merge(merged)
            else:
                call = lambda: merged.merge_many([merged])
            if not _returns_within(3, call):
                merged = None  # free what the runaway merge grew
                pytest.fail(f"{how} of a summary with itself ran past 3 s")
            assert merged.n == 2 * summary.n, how
            assert json.dumps(merged.to_dict(), sort_keys=True) == expected, how
