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
import struct
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.base import Summary, normalize_batch
from ..core.codecs import base64_words
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

#: batches shorter than this fold item by item (:meth:`HyperLogLog._fold`):
#: the vectorized path pays about 20 µs of numpy set-up per call, which
#: one scalar hash per item undercuts below about 16 ints (and for
#: strings, which hash one at a time on both paths, at every size
#: measured).  ``benchmarks/bench_throughput.py`` records the sweep.
_SMALL_BATCH = 16


#: sparse stored forms of at most this many words, by word width in
#: bytes, decode in a Python loop, longer ones in numpy: the loop costs
#: about 0.07 µs a 2-byte word and 0.14 µs a 3-byte one, numpy about
#: 8 µs a call whatever the width, and the two cross near 112 and 56
#: words.  ``benchmarks/bench_throughput.py`` records the sweep.
_SPARSE_LOOP_WORDS = {2: 112, 3: 56}


def _word_bytes(p: int) -> int:
    """Bytes per sparse word, ``index << 6 | rank``: p + 6 bits, rounded up."""
    return 2 if p <= 10 else 3


def _dense_registers(registers: Any, p: int) -> np.ndarray:
    """The ``m`` registers of a dense stored form: base64 of the register
    bytes, or the legacy int list."""
    if isinstance(registers, str):
        registers = np.frombuffer(base64.b64decode(registers), dtype=np.uint8)
    else:  # legacy int-list wire form
        registers = np.asarray(registers)
    if registers.shape != (1 << p,):
        raise ParameterError(
            f"register payload holds {registers.size} registers, "
            f"expected {1 << p} for p={p}"
        )
    # a register holds 0 or a rank: leading zeros of 64 - p bits, + 1
    max_rank = 65 - p
    if registers.dtype.kind not in "iu" or not (
        registers.min() >= 0 and registers.max() <= max_rank
    ):
        raise ParameterError(f"registers must be integers in [0, {max_rank}] for p={p}")
    return registers.astype(np.uint8)


def _sparse_registers(text: Any, p: int) -> np.ndarray:
    """The ``m`` registers a sparse stored form lists (see ``to_stored``).

    Raises :class:`ParameterError` unless ``text`` is base64 of whole
    big-endian words whose indices are below ``m`` and strictly
    increasing and whose ranks are in ``[1, 65 - p]``.
    """
    width = _word_bytes(p)
    raw = base64_words(text, width, "sparse registers")
    if len(raw) // width > _SPARSE_LOOP_WORDS[width]:
        registers = _sparse_words_numpy(raw, p)
    else:
        registers = _sparse_words_loop(raw, p)
    if registers is None:
        raise ParameterError(
            f"sparse register words must have strictly increasing indices "
            f"below {1 << p} and ranks in [1, {65 - p}] for p={p}"
        )
    return registers


def _sparse_words_loop(raw: bytes, p: int) -> Optional[np.ndarray]:
    """Registers from whole sparse words, one word at a time; ``None``
    for a word out of order or range."""
    m, max_rank = 1 << p, 65 - p
    if _word_bytes(p) == 2:
        words = struct.unpack(f">{len(raw) // 2}H", raw)
    else:
        words = [high << 16 | low for high, low in struct.iter_unpack(">BH", raw)]
    registers = bytearray(m)
    previous = -1
    for word in words:
        index, rank = word >> 6, word & 63
        if not previous < index < m or not 0 < rank <= max_rank:
            return None
        registers[index] = rank
        previous = index
    return np.frombuffer(registers, dtype=np.uint8)


def _sparse_words_numpy(raw: bytes, p: int) -> Optional[np.ndarray]:
    """:func:`_sparse_words_loop` in a fixed number of numpy calls."""
    width = _word_bytes(p)
    registers = np.zeros(1 << p, dtype=np.uint8)
    if not raw:
        return registers
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width).astype(np.int64)
    words = data.dot(256 ** np.arange(width - 1, -1, -1))
    index, ranks = words >> 6, words & 63
    if (
        index[-1] >= len(registers)
        or (index[1:] <= index[:-1]).any()
        or ranks.min() == 0
        or ranks.max() > 65 - p
    ):
        return None
    registers[index] = ranks
    return registers


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

    #: ``(n, distinct())``, kept for the ``n`` it was computed at
    _estimate: Optional[Tuple[int, float]] = None

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
        self._fold((item,))
        self._n += weight

    def _fold(self, items: Iterable[Any]) -> None:
        """Raise each item's register to the item's rank, one at a time."""
        registers = self._registers
        mask, p, seed = self.m - 1, self.p, self.seed
        top = 65 - p
        for item in items:
            h = stable_hash(item, seed)
            register = h & mask
            # rank = leading-zero count of the remaining (64 - p) bits, + 1
            rank = top - (h >> p).bit_length()
            if rank > registers[register]:
                registers[register] = rank

    def update_batch(
        self,
        items: Iterable[Any],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        if len(items) < _SMALL_BATCH:
            self._fold(items)
        else:
            hashes = hash_batch(items, seed=self.seed)
            registers = (hashes & np.uint64(self.m - 1)).astype(np.int64)
            remaining = hashes >> np.uint64(self.p)
            ranks = (65 - self.p - _bit_length_u64(remaining)).astype(np.uint8)
            np.maximum.at(self._registers, registers, ranks)
        self._n += total

    def distinct(self) -> float:
        """Estimated number of distinct items observed.

        Memoized on ``n``, which every register change raises, and
        passed to copies (see :meth:`~repro.core.base.Summary._kept_answer`).
        """
        return self._kept_answer("_estimate", HyperLogLog._estimate_state)[1]

    def _estimate_state(self) -> Tuple[int, float]:
        # one pass: a rank histogram dotted with 2**-r; every term is
        # dyadic, so the sum equals the per-register one on real sketches
        ranks = np.bincount(self._registers, minlength=len(_RANK_WEIGHTS))
        estimate = _alpha(self.m) * self.m * self.m / ranks.dot(_RANK_WEIGHTS)
        zeros = int(ranks[0])
        if estimate <= 2.5 * self.m and zeros:
            estimate = self.m * math.log(self.m / zeros)  # linear counting
        return (self._n, float(estimate))

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
        self._merge_many_same_type([other])

    def _merge_many_same_type(self, others: Sequence["HyperLogLog"]) -> None:
        # lattice join over the whole fan-in: one register-wise max
        if len(others) == 1:
            np.maximum(self._registers, others[0]._registers, out=self._registers)
        else:
            self._registers = np.maximum.reduce(
                [self._registers] + [o._registers for o in others]
            )
        added = sum(o._n for o in others)
        if added:
            self._n += added
            self._drop_answer("_estimate")

    def copy(self) -> "HyperLogLog":
        # the state alone: self passed __init__'s checks, and a fresh
        # register array would be replaced at once
        clone = type(self).__new__(type(self))
        clone._n = self._n
        clone.p, clone.m, clone.seed = self.p, self.m, self.seed
        clone._registers = self._registers.copy()
        self._share_answer(clone, "_estimate")
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

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict`, or the sparse form where it is shorter.

        The sparse form lists one big-endian word, ``index << 6 | rank``,
        per set register in increasing index order, under ``"sparse"``
        instead of ``"registers"``.  A word takes 2 bytes at ``p <= 10``
        and 3 above, so the form is written while it has fewer bytes
        than the ``m``-byte dense array: below ``m / 2`` set registers
        at ``p <= 10`` and ``m / 3`` above.  A cube cell of a few
        records sets a few registers.
        """
        registers = self._registers
        occupied = registers.nonzero()[0]
        width = _word_bytes(self.p)
        if occupied.size * width >= self.m:
            return self.to_dict()
        words = occupied.astype(np.uint32)
        words <<= 6
        words |= registers[occupied]
        if width == 2:
            raw = words.astype(">u2").tobytes()
        else:  # the low three bytes of each big-endian 32-bit word
            raw = words.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 1:].tobytes()
        return {
            "p": self.p,
            "seed": self.seed,
            "n": self._n,
            "sparse": base64.b64encode(raw).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HyperLogLog":
        p, seed = payload["p"], payload["seed"]
        for name, value in (("p", p), ("seed", seed)):
            if type(value) is not int:  # not 3.5, "3" or true
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        sketch = cls(p=p, seed=seed)
        if "sparse" in payload:
            if "registers" in payload:
                raise ParameterError(
                    "a payload holds either sparse or dense registers, not both"
                )
            registers = _sparse_registers(payload["sparse"], sketch.p)
        else:
            registers = _dense_registers(payload["registers"], sketch.p)
        # every non-zero register took at least one item, and n keys the
        # estimate memo: a smaller n would let a merge change the
        # registers without raising n
        n = payload["n"]
        occupied = int(np.count_nonzero(registers))
        if type(n) is not int or n < occupied:
            raise ParameterError(
                f"n must be an integer of at least {occupied}, the count of "
                f"non-zero registers; got {n!r}"
            )
        sketch._registers = registers
        sketch._n = n
        return sketch
