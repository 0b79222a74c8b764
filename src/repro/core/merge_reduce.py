"""Merge-reduce: a raw buffer plus a binary counter of equal-size blocks.

The paper builds its fully mergeable quantiles (Section 3.2) and its
mergeable eps-approximations (Section 4) from one construction:

- a raw buffer of fewer than ``s`` items, weight 1 each;
- per level ``i``, blocks of exactly ``s`` items of weight ``2^i``
  each; after a carry, at most one block per level.

``update`` appends to the buffer and seals every ``s`` buffered items
into a level-0 block; ``merge`` concatenates buffers and per-level
block lists.  Both then *carry*: while a level holds two blocks, they
are halved into one block a level up, exactly a binary-counter
addition.  Every halving is an equal-weight merge, so the error
analysis applies level by level, whatever the merge sequence.

:class:`MergeReduce` owns that structure.  A subclass supplies only
the halving rule (:meth:`MergeReduce._halve`), whether a sealed block
is sorted (:attr:`MergeReduce.sorted_blocks`) and its queries; the
hybrid summary also diverts blocks that reach its top level
(:meth:`MergeReduce._promote`).  Updates take scalar items; a weight
of at least ``s`` drops in through its binary decomposition as
constant blocks (:meth:`MergeReduce._add_constant`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from .base import Summary, normalize_batch
from .exceptions import ParameterError

__all__ = ["MergeReduce"]


class MergeReduce(Summary):
    """Buffer + binary counter of ``s``-item blocks (see module docstring)."""

    #: sort a sealed level-0 block (scalar items); point sets keep order
    sorted_blocks: bool = True

    def __init__(self, s: int) -> None:
        super().__init__()
        self.s = int(s)
        self._buffer: List[Any] = []
        #: level -> blocks of ``s`` items, each item of weight ``2**level``
        self._blocks: Dict[int, List[np.ndarray]] = {}

    def _halve(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Reduce two level-``i`` blocks to one block of level ``i + 1``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: float, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        value = float(item)
        weight = int(weight)
        self._n += weight
        if weight < self.s:
            self._buffer.extend([value] * weight)
            if len(self._buffer) >= self.s:
                self._flush_buffer()
            return
        # O(s log w): a constant block of s copies at level j summarizes
        # s * 2**j occurrences exactly, so the full-block part of the
        # weight drops in via its binary decomposition and only the
        # remainder (< s) touches the raw buffer
        full_blocks, rest = divmod(weight, self.s)
        self._add_constant(
            value,
            [level for level in range(full_blocks.bit_length()) if full_blocks >> level & 1],
        )
        if rest:
            self._buffer.extend([value] * rest)
        self._flush_buffer()

    def _add_constant(self, value: float, levels: Sequence[int]) -> None:
        """Add one block of ``s`` copies of ``value`` at each of ``levels``."""
        for level in levels:
            self._blocks.setdefault(level, []).append(
                np.full(self.s, value, dtype=np.float64)
            )

    def update_batch(self, items, weights=None) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        if weights is None:
            self._buffer.extend(np.asarray(items, dtype=np.float64).tolist())
            self._n += total
            self._flush_buffer()
        else:
            for item, weight in zip(items, weights.tolist()):
                self.update(item, weight)

    def _flush_buffer(self) -> None:
        """Seal every ``s`` buffered items into a level-0 block, then carry."""
        if len(self._buffer) >= self.s:
            buffered = self._buffer
            full = (len(buffered) // self.s) * self.s
            level0 = self._blocks.setdefault(0, [])
            for start in range(0, full, self.s):
                block = np.array(buffered[start : start + self.s], dtype=np.float64)
                level0.append(np.sort(block) if self.sorted_blocks else block)
            self._buffer = buffered[full:]
        self._carry()

    def _carry(self) -> None:
        """Halve block pairs upward until every level holds at most one."""
        level = 0
        while level <= self.max_level():
            blocks = self._blocks.get(level, [])
            while len(blocks) >= 2:
                right = blocks.pop()
                left = blocks.pop()
                self._promote(self._halve(left, right), level + 1)
            if not blocks:
                self._blocks.pop(level, None)
            level += 1

    def _promote(self, block: np.ndarray, level: int) -> None:
        """Place a block produced by a halving at ``level``."""
        self._blocks.setdefault(level, []).append(block)

    # ------------------------------------------------------------------
    # Shape and samples
    # ------------------------------------------------------------------

    def max_level(self) -> int:
        """Highest occupied level (-1 when no blocks exist)."""
        return max(self._blocks, default=-1)

    def levels(self) -> Dict[int, int]:
        """Occupied levels -> number of blocks (diagnostics)."""
        return {level: len(blocks) for level, blocks in sorted(self._blocks.items())}

    def size(self) -> int:
        return len(self._buffer) + sum(
            len(block) for blocks in self._blocks.values() for block in blocks
        )

    def _sample_state(self):
        """Every stored scalar item with its weight (buffer first)."""
        parts: List[np.ndarray] = [np.asarray(self._buffer, dtype=np.float64)]
        weights: List[np.ndarray] = [np.ones(len(self._buffer))]
        for level, blocks in self._blocks.items():
            w = float(2**level)
            for block in blocks:
                parts.append(np.asarray(block, dtype=np.float64))
                weights.append(np.full(len(block), w))
        return np.concatenate(parts), np.concatenate(weights)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def _absorb(self, other: "MergeReduce") -> None:
        """Add ``other``'s buffer and blocks to ``self`` without carrying."""
        self._buffer.extend(other._buffer)
        for level, blocks in other._blocks.items():
            self._blocks.setdefault(level, []).extend(block.copy() for block in blocks)
        self._n += other._n

    def _merge_same_type(self, other: "MergeReduce") -> None:
        self._absorb(other)
        self._flush_buffer()

    def _merge_many_same_type(self, others: Sequence["MergeReduce"]) -> None:
        # all operands in, then ONE carry pass over the union: every
        # halving is still an equal-weight merge, so the analysis is
        # unchanged; only the pairing order differs from a sequential fold
        for other in others:
            self._absorb(other)
        self._flush_buffer()

    # ------------------------------------------------------------------
    # Serialization (the buffer and blocks part)
    # ------------------------------------------------------------------

    def _counter_state(self) -> Dict[str, Any]:
        """The ``buffer`` and ``blocks`` entries of :meth:`to_dict`."""
        return {
            "buffer": np.asarray(self._buffer, dtype=np.float64).tolist(),
            "blocks": {
                str(level): [np.asarray(block, dtype=np.float64).tolist() for block in blocks]
                for level, blocks in self._blocks.items()
            },
        }

    def _load_counter(
        self, payload: Dict[str, Any], item: Callable[[Any], Any] = float
    ) -> "MergeReduce":
        """Restore ``n``, the buffer (each entry through ``item``) and blocks."""
        self._buffer = [item(v) for v in payload["buffer"]]
        self._blocks = {
            int(level): [np.array(block, dtype=np.float64) for block in blocks]
            for level, blocks in payload["blocks"].items()
        }
        self._n = payload["n"]
        return self
