"""A ``depth`` x ``width`` table of int64 counters, merged entry-wise.

CountMin, conservative CountMin, CountSketch and the AMS F2 sketch keep
the same state: ``depth`` rows of ``width`` counters, plus the hash
``seed`` every site must share.  The linear ones are trivially
mergeable, because the sketch of ``A union B`` is the entry-wise sum
of the two tables; conservative CountMin merges the same way, and only
loses its accuracy edge (see :mod:`repro.frequency.conservative`).

:class:`CounterTable` owns that state: the width/depth/seed checks,
the table, ``compatible_with``, ``size``, the entry-wise merge and the
serialization.  Each sketch keeps only its update and estimate rules.
Row ``r`` hashes an item with seed ``seed * 1_000_003 + r``
(:meth:`CounterTable._row_indices`, :meth:`CounterTable._batch_columns`);
the AMS sketch hashes its cells its own way.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .base import Summary
from .exceptions import ParameterError
from .hashing import hash_batch, stable_hash

__all__ = ["CounterTable"]


class CounterTable(Summary):
    """``depth`` rows of ``width`` int64 counters (see module docstring).

    Two tables merge only when built with identical ``width``,
    ``depth`` and ``seed``: the coordination cost of linear sketches
    that deterministic mergeable summaries avoid.
    """

    #: round an even depth up, so that a median over rows is an entry
    odd_depth: bool = False
    #: the :meth:`to_dict` key that holds the table
    table_key: str = "table"

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        super().__init__()
        if width < 1 or depth < 1:
            raise ParameterError(
                f"width and depth must be >= 1, got {width!r} x {depth!r}"
            )
        if self.odd_depth and depth % 2 == 0:
            depth += 1
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)

    # ------------------------------------------------------------------
    # Row hashing
    # ------------------------------------------------------------------

    def _row_hashes(self, item: Any) -> List[int]:
        """The 64-bit hash of ``item`` in every row."""
        return [
            stable_hash(item, seed=self.seed * 1_000_003 + row)
            for row in range(self.depth)
        ]

    def _row_indices(self, item: Any) -> np.ndarray:
        """The column of ``item`` in every row."""
        return np.array(
            [h % self.width for h in self._row_hashes(item)], dtype=np.int64
        )

    def _batch_columns(self, items) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """``(row, hashes, columns)`` of a whole batch, one row at a time."""
        for row in range(self.depth):
            hashes = hash_batch(items, seed=self.seed * 1_000_003 + row)
            yield row, hashes, (hashes % np.uint64(self.width)).astype(np.int64)

    # ------------------------------------------------------------------
    # Shape, merge, serialization
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Number of stored counters (``width * depth``)."""
        return self.width * self.depth

    def compatible_with(self, other: "CounterTable") -> Optional[str]:
        assert isinstance(other, CounterTable)
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            return (
                f"sketch geometry/seed mismatch: "
                f"({self.width},{self.depth},{self.seed}) vs "
                f"({other.width},{other.depth},{other.seed})"
            )
        return None

    def _merge_same_type(self, other: "CounterTable") -> None:
        self._table += other._table
        self._n += other._n

    def _merge_many_same_type(self, others: Sequence["CounterTable"]) -> None:
        # the s-way merge is one stacked entry-wise sum
        self._table += np.sum(np.stack([o._table for o in others]), axis=0)
        self._n += sum(o._n for o in others)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "n": self._n,
            self.table_key: self._table.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CounterTable":
        sketch = cls(payload["width"], payload["depth"], payload["seed"])
        sketch._table = np.array(payload[cls.table_key], dtype=np.int64)
        sketch._n = payload["n"]
        return sketch
