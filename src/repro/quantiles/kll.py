"""KLL quantile sketch — the modern descendant of the paper's Section 3.2.

Karnin, Lang and Liberty (FOCS 2016) refined the logarithmic-method
summary this paper introduced: instead of one full ``s``-sample block
per weight class, KLL lets the *capacity decay geometrically* toward
the lower levels (ratio ``c = 2/3``), concentrating the space where
the weights — and hence the error stakes — are largest.  The result is
an asymptotically optimal ``O((1/eps) sqrt(log(1/delta)))`` summary,
fully mergeable with the same random-halving compaction primitive.

Included as the "where this line of work went" extension: benchmark E16
compares its size/error trade-off against the paper's Section 3.2
structure.  The implementation follows the standard simple variant:
per-level buffers, compaction by coin-flip even/odd selection of the
sorted buffer, lazy growth of the level stack, and level-wise
concatenation + re-compaction for merges.
"""

from __future__ import annotations

import base64
import math
import secrets
import struct
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.base import normalize_batch
from ..core.codecs import base64_words
from ..core.exceptions import ParameterError
from ..core.registry import register_summary
from ..core.rng import RngLike, resolve_rng
from .estimator import QuantileSummary

__all__ = ["KLLQuantiles"]

#: geometric capacity decay toward lower levels (the KLL constant)
_DECAY = 2.0 / 3.0
#: no level's capacity falls below this
_MIN_CAPACITY = 2
#: sample types a text-form level may hold (``bool`` is a type of its own)
_SAMPLE_TYPES = {float, int}

# ``struct`` packs and unpacks.  numpy packs no faster at one sample and
# slower from 8, and unpacks faster only from about 64 samples, by under
# a tenth: the packed-level sweep in ``benchmarks/bench_throughput.py``.


def _pack_level(buffer: List[float]) -> str:
    """One level's samples as base64 of little-endian float64s."""
    return base64.b64encode(struct.pack(f"<{len(buffer)}d", *buffer)).decode("ascii")


def _packed_level(text: Any) -> List[float]:
    """The samples :func:`_pack_level` wrote, bit for bit.

    Raises :class:`ParameterError` unless ``text`` is base64 text of a
    whole number of float64s.
    """
    raw = base64_words(text, 8, "a packed level")
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def _text_level(buffer: Any) -> List[float]:
    """The samples of one level of the legacy text form, a JSON number list."""
    if type(buffer) is not list or not set(map(type, buffer)) <= _SAMPLE_TYPES:
        raise ParameterError("a text-form level must be a list of numbers")
    return list(map(float, buffer))


@register_summary("kll_quantiles")
class KLLQuantiles(QuantileSummary):
    """KLL sketch with top-level capacity ``k``.

    Rank error is ``O(n / k)`` with high probability; memory is
    ``~ k / (1 - 2/3) = 3k`` samples regardless of ``n``.
    """

    def __init__(self, k: int = 200, rng: RngLike = None) -> None:
        super().__init__()
        if k < 8:
            raise ParameterError(f"k must be >= 8, got {k!r}")
        self.k = int(k)
        # validate as resolve_rng would, so a bad seed fails here (and so
        # at decode), not at the first coin flip
        if isinstance(rng, (int, np.integer)):
            rng = int(rng)
            if rng < 0:
                np.random.SeedSequence(rng)  # raises numpy's ValueError
        elif rng is not None:
            resolve_rng(rng)  # a Generator passes; other types raise TypeError
        #: int seed or ``None`` (OS entropy) until :attr:`_rng` builds the
        #: generator; a generator passed in is kept (shared, not copied)
        self._seed_or_rng = rng
        self._levels: List[List[float]] = [[]]
        #: level-scan iterations performed by :meth:`_compress` (the
        #: micro-benchmark guard for the linear-scan compaction)
        self._compress_steps = 0

    @classmethod
    def from_epsilon(
        cls, epsilon: float, delta: float = 0.01, rng: RngLike = None
    ) -> "KLLQuantiles":
        """Pick ``k ~ (1.5/eps) * sqrt(log2(1/delta))``."""
        if not 0 < epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not 0 < delta < 1:
            raise ParameterError(f"delta must be in (0, 1), got {delta!r}")
        k = math.ceil((1.5 / epsilon) * math.sqrt(max(1.0, math.log2(1.0 / delta))))
        return cls(k=max(8, k), rng=rng)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------

    @property
    def _rng(self) -> np.random.Generator:
        """The coin generator, built on first use: most store cells never
        compact, so most sketches never need one."""
        rng = self._seed_or_rng
        if not isinstance(rng, np.random.Generator):
            rng = self._seed_or_rng = np.random.default_rng(rng)
        return rng

    def _draw_seed(self) -> int:
        """One draw from the coin stream, seeding a copy or a snapshot.

        A fresh sketch (unseeded, no draw yet) has no stream anyone can
        reproduce, so it takes OS entropy from the same range instead.
        """
        if self._seed_or_rng is None:
            return secrets.randbelow(2**63 - 1)
        return int(self._rng.integers(0, 2**63 - 1))

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Capacity of ``level``: ``k`` at the top, decaying below."""
        height_from_top = len(self._levels) - 1 - level
        return max(_MIN_CAPACITY, int(math.ceil(self.k * _DECAY**height_from_top)))

    def _compact_level(self, level: int) -> None:
        """Halve ``level`` into ``level + 1`` by random even/odd selection."""
        buffer = sorted(self._levels[level])
        if len(buffer) < 2:
            return
        rng = self._rng
        leftover: List[float] = []
        if len(buffer) % 2 == 1:
            # the unpaired element stays behind (keep head or tail at random
            # so no rank region is systematically favoured)
            if rng.integers(0, 2):
                leftover, buffer = [buffer[0]], buffer[1:]
            else:
                leftover, buffer = [buffer[-1]], buffer[:-1]
        offset = int(rng.integers(0, 2))
        promoted = buffer[offset::2]
        self._levels[level] = leftover
        if level + 1 == len(self._levels):
            self._levels.append([])
        self._levels[level + 1].extend(promoted)

    def _compress(self) -> None:
        """Compact over-capacity levels bottom-up until all fit.

        A compaction that stays within the existing level stack leaves
        every lower level's capacity unchanged, so the scan resumes in
        place.  Only growing a new top level shrinks the capacities
        below it (they are keyed on height-from-top) and forces a
        restart — which happens O(log n) times over the sketch's
        lifetime, not once per compaction as the old always-restart
        scan did (worst-case O(L^2) sweeps per flush).
        """
        level = 0
        while level < len(self._levels):
            self._compress_steps += 1
            if len(self._levels[level]) > self._capacity(level):
                grew = level + 1 == len(self._levels)
                self._compact_level(level)
                if grew:
                    level = 0
            else:
                level += 1

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: float, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        value = float(item)
        if weight == 1:
            self._levels[0].append(value)
            self._n += 1
            if len(self._levels[0]) > self._capacity(0):
                self._compress()
            return
        # O(log weight): a copy with weight 2**i is exactly one sample at
        # level i, so the binary decomposition of the weight places one
        # sample per set bit — never a weight-length loop
        w = int(weight)
        level = 0
        while w:
            if w & 1:
                while len(self._levels) <= level:
                    self._levels.append([])
                self._levels[level].append(value)
            w >>= 1
            level += 1
        self._n += int(weight)
        self._compress()

    def update_batch(self, items, weights=None) -> None:
        items, weights, total = normalize_batch(items, weights)
        if not len(items):
            return
        if weights is None:
            # bulk append, one compaction cascade for the whole batch
            self._levels[0].extend(
                np.asarray(items, dtype=np.float64).tolist()
            )
            self._n += total
            self._compress()
        else:
            for item, weight in zip(items, weights.tolist()):
                self.update(item, weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _sample_state(self):
        parts: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        for level, buffer in enumerate(self._levels):
            if buffer:
                parts.append(np.asarray(buffer, dtype=np.float64))
                weights.append(np.full(len(buffer), float(2**level)))
        if not parts:
            return np.empty(0), np.empty(0)
        return np.concatenate(parts), np.concatenate(weights)

    def rank(self, x: float) -> float:
        return self._view_rank(x)

    def quantile(self, q: float) -> float:
        return self._view_quantile(q)

    def size(self) -> int:
        return sum(len(buffer) for buffer in self._levels)

    def num_levels(self) -> int:
        """Height of the level stack (diagnostics)."""
        return len(self._levels)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def compatible_with(self, other: "KLLQuantiles") -> Optional[str]:
        assert isinstance(other, KLLQuantiles)
        if other.k != self.k:
            return f"k mismatch: {self.k} vs {other.k}"
        return None

    def _merge_same_type(self, other: "KLLQuantiles") -> None:
        assert isinstance(other, KLLQuantiles)
        self._merge_many_same_type([other])

    def _merge_many_same_type(self, others) -> None:
        # an operand of n = 0 holds no sample, but its levels could still
        # grow the stack and re-run compaction without moving n, the key
        # of the cached view: skip it
        others = [other for other in others if other._n]
        if not others:
            return
        # concatenate every operand's levels, then ONE compaction
        # cascade over the union instead of one per operand
        for other in others:
            while len(self._levels) < len(other._levels):
                self._levels.append([])
            for level, buffer in enumerate(other._levels):
                self._levels[level].extend(buffer)
            self._n += other._n
        self._compress()
        self._drop_answer("_view")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def copy(self) -> "KLLQuantiles":
        # a fresh sketch has no coin stream to continue, so its clone is
        # fresh too and nothing draws; any other sketch makes the one draw
        # to_dict makes and seeds the clone as from_dict does, so both
        # coin streams continue exactly as after a round trip
        seed = None if self._seed_or_rng is None else self._draw_seed()
        # the state alone: self passed __init__'s checks, and so does
        # the seed, a non-negative int
        clone = type(self).__new__(type(self))
        clone._n = self._n
        clone.k = self.k
        clone._seed_or_rng = seed
        clone._levels = [list(buffer) for buffer in self._levels]
        clone._compress_steps = 0
        self._share_answer(clone, "_view")
        return clone

    def to_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "n": self._n,
            "levels": [[float(v) for v in buffer] for buffer in self._levels],
            # always a concrete seed: two opens of one snapshot must flip
            # the same coins
            "seed": self._draw_seed(),
        }

    def to_stored(self) -> Dict[str, Any]:
        """:meth:`to_dict` with each level packed under ``"packed"``.

        A level is stored as base64 of its samples as little-endian
        float64, 10.67 characters a sample against 18 or 19 for the text
        of a typical float, and bit-exact for every sample, -0.0 and NaN
        included.  It makes the one seed draw :meth:`to_dict` makes.
        """
        return {
            "k": self.k,
            "n": self._n,
            "packed": [_pack_level(buffer) for buffer in self._levels],
            "seed": self._draw_seed(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "KLLQuantiles":
        k, seed = payload["k"], payload["seed"]
        for name, value in (("k", k), ("seed", seed)):
            if type(value) is not int:  # not 8.5, "8" or true
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        sketch = cls(k=k, rng=seed)
        if "packed" in payload:
            if "levels" in payload:
                raise ParameterError(
                    "a payload holds either packed or text levels, not both"
                )
            levels, read = payload["packed"], _packed_level
        else:
            levels, read = payload["levels"], _text_level
        if type(levels) is not list:
            raise ParameterError(f"levels must be a list, got {type(levels).__name__}")
        sketch._levels = list(map(read, levels))
        if not sketch._levels:
            sketch._levels = [[]]
        # every sample at level i stands for 2**i items, and compaction,
        # weighted updates and merges all keep that total equal to n
        n = payload["n"]
        weight = sum(len(buffer) << level for level, buffer in enumerate(sketch._levels))
        if type(n) is not int or n != weight:
            raise ParameterError(
                f"n must be the integer total weight of the levels, {weight}; "
                f"got {n!r}"
            )
        sketch._n = n
        return sketch
