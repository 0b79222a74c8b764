"""HyperLogLog distinct-count summary.

The register-maximum structure (Flajolet et al.): hash each item, route
it to one of ``m = 2**p`` registers by its low ``p`` bits, and keep per
register the maximum number of leading zeros (+1) of the remaining
bits.  Registers combine by element-wise ``max``, so HyperLogLog is a
*lattice* summary — fully mergeable with a lossless merge, the second
classic F0 example the paper's related-work discussion points to
(alongside KMV, :mod:`repro.sketches.kmv`).

Estimation uses the standard HLL estimator with the small-range
linear-counting correction; 64-bit hashing makes the large-range
correction unnecessary at any realistic cardinality.  Relative error
``~1.04 / sqrt(m)``.
"""

from __future__ import annotations

import base64
import math
from typing import Any, Dict, Iterable, Optional, Sequence

import numpy as np

from ..core.base import Summary, normalize_batch
from ..core.exceptions import ParameterError
from ..core.hashing import hash_batch, stable_hash
from ..core.registry import register_summary

__all__ = ["HyperLogLog"]


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` over a ``uint64`` array.

    Each 32-bit half converts to float64 exactly, and the ``frexp``
    exponent of a positive float is its bit length (0 for 0).  Converting
    the whole word instead would round values near ``2**53`` and above.
    """
    hi = (x >> np.uint64(32)).astype(np.float64)
    lo = (x & np.uint64(0xFFFFFFFF)).astype(np.float64)
    return np.where(hi > 0, np.frexp(hi)[1] + 32, np.frexp(lo)[1])


#: 2**-r for every rank a register can hold: 0 (empty) up to 65 - 4 at p=4
_RANK_WEIGHTS = 2.0 ** -np.arange(65 - 4 + 1)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


@register_summary("hyperloglog")
class HyperLogLog(Summary):
    """HyperLogLog with ``2**p`` registers (``4 <= p <= 18``)."""

    def __init__(self, p: int = 12, seed: int = 0) -> None:
        super().__init__()
        if not 4 <= p <= 18:
            raise ParameterError(f"precision p must be in [4, 18], got {p!r}")
        self.p = int(p)
        self.m = 1 << self.p
        self.seed = int(seed)
        self._registers = np.zeros(self.m, dtype=np.uint8)

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        h = stable_hash(item, seed=self.seed)
        register = h & (self.m - 1)
        remaining = h >> self.p
        # rank = leading-zero count of the remaining (64 - p) bits, + 1
        width = 64 - self.p
        rank = width - remaining.bit_length() + 1
        if rank > self._registers[register]:
            self._registers[register] = rank
        self._n += weight

    def update_batch(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        hashes = hash_batch(items, seed=self.seed)
        registers = (hashes & np.uint64(self.m - 1)).astype(np.int64)
        remaining = hashes >> np.uint64(self.p)
        ranks = (65 - self.p - _bit_length_u64(remaining)).astype(np.uint8)
        np.maximum.at(self._registers, registers, ranks)
        self._n += total

    def distinct(self) -> float:
        """Estimated number of distinct items observed."""
        # one pass: a rank histogram dotted with 2**-r; every term is
        # dyadic, so the sum equals the per-register one on real sketches
        ranks = np.bincount(self._registers, minlength=len(_RANK_WEIGHTS))
        estimate = _alpha(self.m) * self.m * self.m / ranks.dot(_RANK_WEIGHTS)
        zeros = int(ranks[0])
        if estimate <= 2.5 * self.m and zeros:
            return self.m * math.log(self.m / zeros)  # linear counting
        return float(estimate)

    @property
    def relative_error(self) -> float:
        """Expected relative standard error ``1.04/sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    def size(self) -> int:
        return self.m

    def compatible_with(self, other: "HyperLogLog") -> Optional[str]:
        assert isinstance(other, HyperLogLog)
        if (self.p, self.seed) != (other.p, other.seed):
            return (
                f"parameter mismatch: (p={self.p}, seed={self.seed}) vs "
                f"(p={other.p}, seed={other.seed})"
            )
        return None

    def _merge_same_type(self, other: "HyperLogLog") -> None:
        assert isinstance(other, HyperLogLog)
        np.maximum(self._registers, other._registers, out=self._registers)
        self._n += other._n

    def _merge_many_same_type(self, others: Sequence["HyperLogLog"]) -> None:
        # lattice join over the whole fan-in: one register-wise max
        self._registers = np.maximum.reduce(
            [self._registers] + [o._registers for o in others]
        )
        self._n += sum(o._n for o in others)

    def copy(self) -> "HyperLogLog":
        clone = type(self)(p=self.p, seed=self.seed)
        clone._registers = self._registers.copy()
        clone._n = self._n
        return clone

    def to_dict(self) -> Dict[str, Any]:
        # registers travel as base64 of the raw uint8 buffer — a p=18
        # sketch is ~350 KB as a JSON int list but 350 KB/3*4 as base64
        return {
            "p": self.p,
            "seed": self.seed,
            "n": self._n,
            "registers": base64.b64encode(self._registers.tobytes()).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HyperLogLog":
        sketch = cls(p=payload["p"], seed=payload["seed"])
        registers = payload["registers"]
        if isinstance(registers, str):
            registers = np.frombuffer(base64.b64decode(registers), dtype=np.uint8)
        else:  # legacy int-list wire form
            registers = np.asarray(registers)
        if registers.shape != (sketch.m,):
            raise ParameterError(
                f"register payload holds {registers.size} registers, "
                f"expected {sketch.m} for p={sketch.p}"
            )
        # a register holds 0 or a rank: leading zeros of 64 - p bits, + 1
        max_rank = 65 - sketch.p
        if registers.dtype.kind not in "iu" or not (
            registers.min() >= 0 and registers.max() <= max_rank
        ):
            raise ParameterError(
                f"registers must be integers in [0, {max_rank}] for p={sketch.p}"
            )
        sketch._registers = registers.astype(np.uint8)
        sketch._n = payload["n"]
        return sketch
