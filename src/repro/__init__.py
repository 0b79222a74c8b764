"""repro — a full reproduction of "Mergeable Summaries" (PODS 2012).

A summary is *mergeable* when two summaries with error parameter
``eps`` combine into one summary for the union of their datasets with
the **same** error and size bounds, under arbitrary merge sequences.
This package implements every summary family the paper analyzes:

- frequency / heavy hitters: :class:`repro.frequency.MisraGries`,
  :class:`repro.frequency.SpaceSaving` (Section 2);
- quantiles: :mod:`repro.quantiles` (Section 3);
- eps-approximations of range spaces: :mod:`repro.ranges` (Section 4);
- eps-kernels for directional width: :mod:`repro.kernels` (Section 5);

plus the distributed-aggregation simulator (:mod:`repro.distributed`),
synthetic workloads (:mod:`repro.workloads`) and the error/bounds
toolkit (:mod:`repro.analysis`) used by the benchmark harness.

Quickstart::

    from repro import MisraGries, merge_all
    from repro.workloads import zipf_stream, chunk_evenly

    shards = chunk_evenly(zipf_stream(100_000, rng=7), 16)
    summaries = [MisraGries(64).extend(shard) for shard in shards]
    merged = merge_all(summaries, strategy="random", rng=7)
    print(merged.heavy_hitters(0.05))
"""

from .core import (
    EmptySummaryError,
    SummaryBundle,
    MergeError,
    ParameterError,
    QueryError,
    ReproError,
    SerializationError,
    Summary,
    dumps,
    loads,
    merge_all,
    merge_chain,
    merge_kway,
    merge_random_tree,
    merge_tree,
    registered_names,
)
from .frequency import (
    CountMin,
    CountSketch,
    ExactCounter,
    MajorityVote,
    MisraGries,
    SpaceSaving,
)
from .decay import DecayedMisraGries
from .kernels import EpsKernel
from .quantiles import (
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
from .ranges import EpsApproximation
from .sketches import AmsF2Sketch, BloomFilter, HyperLogLog, KMinValues
from .store import CubeStore, SegmentStore

# importing .windows installs the registration hook that derives a
# windowed.<name> variant for every windowable summary type above (the
# hook replays over everything already registered, so import order does
# not matter for coverage — last is simply clearest)
from .windows import WindowView, WindowedSummary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Summary",
    "SummaryBundle",
    "ReproError",
    "ParameterError",
    "MergeError",
    "QueryError",
    "SerializationError",
    "EmptySummaryError",
    "merge_all",
    "merge_chain",
    "merge_tree",
    "merge_random_tree",
    "merge_kway",
    "dumps",
    "loads",
    "registered_names",
    "MisraGries",
    "SpaceSaving",
    "MajorityVote",
    "CountMin",
    "CountSketch",
    "ExactCounter",
    "ExactQuantiles",
    "GKQuantiles",
    "EqualWeightQuantiles",
    "MergeableQuantiles",
    "HybridQuantiles",
    "MRLQuantiles",
    "BottomKSample",
    "EpsApproximation",
    "EpsKernel",
    "KMinValues",
    "HyperLogLog",
    "BloomFilter",
    "AmsF2Sketch",
    "DecayedMisraGries",
    "KLLQuantiles",
    "MomentSketch",
    "SegmentStore",
    "CubeStore",
    "WindowedSummary",
    "WindowView",
]
