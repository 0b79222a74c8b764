"""Core framework: the mergeable-summary protocol and merge executors."""

from .base import Summary, normalize_batch
from .bundle import SummaryBundle
from .exceptions import (
    EmptySummaryError,
    MergeError,
    ParameterError,
    QueryError,
    ReproError,
    SerializationError,
)
from .codecs import (
    Codec,
    decode_summary,
    dumps,
    encode_summary,
    from_envelope,
    get_codec,
    loads,
    register_codec,
    registered_codecs,
    to_envelope,
)
from .merge import (
    MERGE_STRATEGIES,
    MergeStrategy,
    merge_all,
    merge_chain,
    merge_kway,
    merge_random_tree,
    merge_tree,
)
from .registry import (
    add_registration_hook,
    get_summary_class,
    register_summary,
    registered_names,
)
from .rng import resolve_rng, spawn

__all__ = [
    "Summary",
    "normalize_batch",
    "SummaryBundle",
    "ReproError",
    "ParameterError",
    "MergeError",
    "QueryError",
    "SerializationError",
    "EmptySummaryError",
    "MERGE_STRATEGIES",
    "MergeStrategy",
    "merge_all",
    "merge_chain",
    "merge_tree",
    "merge_random_tree",
    "merge_kway",
    "register_summary",
    "add_registration_hook",
    "get_summary_class",
    "registered_names",
    "resolve_rng",
    "spawn",
    "dumps",
    "loads",
    "to_envelope",
    "from_envelope",
    "Codec",
    "register_codec",
    "get_codec",
    "registered_codecs",
    "encode_summary",
    "decode_summary",
]
