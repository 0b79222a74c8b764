"""Decode-only reader for the retired ``windowed_misra_gries`` type, a fixed-bucket
Misra-Gries that was a time-mode ``windowed.misra_gries`` under another name: its saved
states and store member specs read as that type.  The registry does not know the name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.exceptions import ParameterError
from ..core.registry import get_summary_class

RETIRED = "windowed_misra_gries"
CURRENT = "windowed.misra_gries"


def _geometry(k: Any, bucket_width: Any, num_buckets: Any) -> Dict[str, Any]:
    """The ``windowed.misra_gries`` arguments the retired type built."""
    count = int(num_buckets)
    if count < 1:
        raise ParameterError(f"num_buckets must be >= 1, got {num_buckets!r}")
    width = float(bucket_width)
    return {"eps": 1.0 / count, "window": width * count, "mode": "time",
            "granularity": width, "k": k}


def current_spec(type_name: str, kwargs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """``(type name, kwargs)`` that a saved member spec stands for today."""
    if type_name != RETIRED:
        return type_name, kwargs
    return CURRENT, _geometry(kwargs["k"], kwargs["bucket_width"], kwargs["num_buckets"])


def _read(old: Dict[str, Any]) -> Any:
    if not isinstance(old.get("buckets"), dict):  # the combinator's schema
        return get_summary_class(CURRENT).from_dict(old)
    # the first schema: {k, bucket_width, num_buckets, n, evicted_through,
    # buckets: {index: misra_gries state}}
    state = _geometry(old["k"], old["bucket_width"], old["num_buckets"])
    width = state["granularity"]
    state["proto"] = get_summary_class("misra_gries")(state.pop("k")).to_dict()
    rows = []
    for index, mg in sorted(old["buckets"].items(), key=lambda kv: int(kv[0])):
        start = int(index) * width
        rows.append({"level": 0, "count": mg["n"], "start": start, "end": start + width,
                     "state": mg})
    evicted = old.get("evicted_through")
    state.update(n=old["n"], buckets=rows, pending=None,
                 clock=max((row["start"] for row in rows), default=None),
                 expired_end=None if evicted is None else (evicted + 1) * width)
    return get_summary_class(CURRENT).from_dict(state)


def retired_reader(name: str) -> Optional[Callable[[Dict[str, Any]], Any]]:
    """The ``from_dict`` of a retired type name, or ``None``."""
    return _read if name == RETIRED else None
