"""Exact answers for the benchmark's queries, built from the input arrays.

Every timed operation's answer is checked here, outside the timed
regions.  An operation fails if it raises or if its answer breaks one
of these checks:

- Misra-Gries: for the exact top-20 items of the range,
  ``exact - error_bound <= estimate <= exact`` (Theorem 2.1);
- KLL: the exact rank of each returned quantile is within 0.04·n of
  the requested rank, and at most 1% of a round's quantile answers are
  further than 0.02·n from it (the sketch's guarantee holds with a
  probability; see ``KLL_EPS``);
- HyperLogLog: within 3 x ``relative_error`` of the exact distinct
  count, plus three (items sharing a register at tiny counts);
- every answer covers exactly the oracle's record count over the key
  range it reports;
- window answers overshoot the window by at most
  ``floor(window_eps * W)`` epochs;
- after a cold open or a crash-reopen, the store's state digest equals
  the digest taken before the save or the drop.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

MG_TOP = 20
#: KLL's guarantee is an (eps, delta) one: its compactions flip coins
#: from an unseeded RNG, so a rank error beyond ``KLL_EPS`` is rare, not
#: impossible.  Over 120 rounds of ``pipeline`` the worst check's rank
#: error had a standard deviation of 0.0067, so 0.02 is three of them,
#: and a correct sketch crosses it now and then.  One answer fails
#: beyond ``KLL_RANK_LIMIT`` (six standard deviations); a round fails
#: when more than ``KLL_DELTA`` of its answers lie beyond ``KLL_EPS``.
#: A compaction that always keeps the smaller value of each pair stays
#: under the limit but puts ~6% of ``pipeline``'s answers beyond eps.
KLL_EPS = 0.02
KLL_DELTA = 0.01
KLL_RANK_LIMIT = 0.04
HLL_SIGMAS = 3.0


def _dyadic_blocks(lo: int, hi: int, levels: int) -> List[Tuple[int, int, int]]:
    """Cover ``[lo, hi)`` with aligned blocks ``(level, start, end)``."""
    blocks = []
    while lo < hi:
        level = 0
        while (
            level + 1 < levels
            and lo % (1 << (level + 1)) == 0
            and lo + (1 << (level + 1)) <= hi
        ):
            level += 1
        blocks.append((level, lo, lo + (1 << level)))
        lo += 1 << level
    return blocks


class FlatOracle:
    """Per-epoch exact counts, item frequencies and value ranks.

    The static records (everything known before a round starts) are
    indexed once: an epoch-major cumulative item-count table answers a
    range's frequency vector with one row difference, and one sorted
    copy of the values per dyadic level answers a range rank with
    ``O(log E)`` binary searches.  Records ingested during a round go
    to a small delta that is scanned directly; :meth:`reset_delta`
    drops it when the round's store is discarded.
    """

    def __init__(
        self,
        epochs: np.ndarray,
        items: np.ndarray,
        values: np.ndarray,
        num_epochs: int,
        universe: int,
    ) -> None:
        self.num_epochs = num_epochs
        self.universe = universe
        order = np.lexsort((values, epochs))
        epochs, items, values = epochs[order], items[order], values[order]
        per_epoch = np.bincount(epochs, minlength=num_epochs)
        self._cum = np.concatenate(([0], np.cumsum(per_epoch)))
        table = np.zeros((num_epochs + 1, universe), dtype=np.int32)
        np.add.at(table, (epochs + 1, items), 1)
        self._item_cum = np.cumsum(table, axis=0, out=table)
        self._levels = max(1, math.ceil(math.log2(num_epochs))) + 1
        self._sorted = [
            values[np.lexsort((values, epochs >> level))]
            for level in range(self._levels)
        ]
        self.reset_delta()

    def reset_delta(self) -> None:
        self._delta: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._delta_arrays: Optional[Tuple[np.ndarray, ...]] = None

    def extend(self, epochs: np.ndarray, items: np.ndarray, values: np.ndarray) -> None:
        """Records ingested during the round."""
        self._delta.append((epochs, items, values))
        self._delta_arrays = None

    def _delta_in(self, lo: int, hi: int):
        if not self._delta:
            return None
        if self._delta_arrays is None:
            self._delta_arrays = tuple(
                np.concatenate([part[i] for part in self._delta]) for i in range(3)
            )
        epochs, items, values = self._delta_arrays
        mask = (epochs >= lo) & (epochs < hi)
        return items[mask], values[mask]

    def _clip(self, lo: int, hi: int) -> Tuple[int, int]:
        return max(lo, 0), min(hi, self.num_epochs)

    def count(self, lo: int, hi: int) -> int:
        a, b = self._clip(lo, hi)
        n = int(self._cum[b] - self._cum[a]) if b > a else 0
        delta = self._delta_in(lo, hi)
        return n + (0 if delta is None else len(delta[0]))

    def item_counts(self, lo: int, hi: int) -> np.ndarray:
        a, b = self._clip(lo, hi)
        counts = np.zeros(self.universe, dtype=np.int64)
        if b > a:
            counts += self._item_cum[b] - self._item_cum[a]
        delta = self._delta_in(lo, hi)
        if delta is not None:
            counts += np.bincount(delta[0], minlength=self.universe)
        return counts

    def rank_bounds(self, lo: int, hi: int, value: float) -> Tuple[int, int]:
        """``(#values < value, #values <= value)`` over epochs ``[lo, hi)``."""
        a, b = self._clip(lo, hi)
        below = at_most = 0
        if b > a:
            for level, start, end in _dyadic_blocks(a, b, self._levels):
                block = self._sorted[level][self._cum[start] : self._cum[end]]
                below += int(np.searchsorted(block, value, side="left"))
                at_most += int(np.searchsorted(block, value, side="right"))
        delta = self._delta_in(lo, hi)
        if delta is not None:
            below += int(np.count_nonzero(delta[1] < value))
            at_most += int(np.count_nonzero(delta[1] <= value))
        return below, at_most


def _epochs_of(key_range: Tuple[float, float], width: float) -> Tuple[int, int]:
    return int(round(key_range[0] / width)), int(round(key_range[1] / width))


def rank_error(bounds: Tuple[int, int], q: float, n: int) -> float:
    """Distance of rank ``q·n`` from a value's exact rank interval, over n."""
    target = q * n
    below, at_most = bounds
    if below <= target <= at_most:
        return 0.0
    return min(abs(target - below), abs(target - at_most)) / n


def check_rank(
    bounds: Tuple[int, int], q: float, n: int, rank_errors: List[float]
) -> Optional[str]:
    """Check one quantile answer; its error joins ``rank_errors``."""
    error = rank_error(bounds, q, n)
    rank_errors.append(error)
    if error > KLL_RANK_LIMIT:
        return f"KLL q={q}: rank error {error:.4f} > {KLL_RANK_LIMIT}"
    return None


def check_rank_share(rank_errors: Sequence[float]) -> Optional[str]:
    """A round's quantile answers against KLL's (eps, delta) guarantee."""
    beyond = sum(error > KLL_EPS for error in rank_errors)
    if beyond > KLL_DELTA * len(rank_errors):
        return (
            f"KLL: {beyond} of {len(rank_errors)} quantile answers have rank "
            f"error > {KLL_EPS} (at most {KLL_DELTA:.0%} may)"
        )
    return None


def check_mg(summary: Any, freqs: np.ndarray) -> Optional[str]:
    top = np.argpartition(freqs, -MG_TOP)[-MG_TOP:]
    bound = summary.error_bound
    for item in top.tolist():
        exact = int(freqs[item])
        if exact == 0:
            continue
        estimate = summary.estimate(item)
        if not exact - bound <= estimate <= exact:
            return f"MG item {item}: estimate {estimate} outside [{exact - bound}, {exact}]"
    return None


def check_flat_query(
    oracle: FlatOracle,
    result: Any,
    quantiles: Sequence[float],
    answers: Sequence[float],
    width: float,
    rank_errors: List[float],
    window: Optional[Tuple[float, float]] = None,
) -> Optional[str]:
    """``None`` when a flat-store answer passes every check, else why not."""
    lo, hi = _epochs_of(result.key_range, width)
    n = oracle.count(lo, hi)
    if result.n != n:
        return f"n={result.n} but the oracle counts {n} over epochs [{lo}, {hi})"
    if window is not None:
        size, eps = window
        slack = math.floor(eps * max(1, math.ceil(size / width)))
        if result.plan.window_slack_used > slack:
            return f"window overshoot {result.plan.window_slack_used} > {slack} epochs"
    if n == 0:
        return None
    problem = check_mg(result["hot"], oracle.item_counts(lo, hi))
    if problem:
        return problem
    for q, value in zip(quantiles, answers):
        problem = check_rank(oracle.rank_bounds(lo, hi, value), q, n, rank_errors)
        if problem:
            return problem
    return None


class CubeOracle:
    """Exact per-group answers over (region, service, epoch) cells."""

    def __init__(
        self,
        regions: np.ndarray,
        services: np.ndarray,
        epochs: np.ndarray,
        latencies: np.ndarray,
        users: np.ndarray,
        num_services: int,
        num_epochs: int,
    ) -> None:
        self.num_epochs = num_epochs
        cell = (regions * num_services + services) * num_epochs + epochs
        order = np.argsort(cell, kind="stable")
        self._cell = cell[order]
        self._latencies = latencies[order]
        self._users = users[order]
        self._num_services = num_services

    def group(
        self, regions: Sequence[int], services: Sequence[int], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Latencies (sorted) and users of the records in the cells."""
        lat_parts, user_parts = [], []
        lo, hi = max(lo, 0), min(hi, self.num_epochs)
        for region in regions:
            for service in services:
                base = (region * self._num_services + service) * self.num_epochs
                a = np.searchsorted(self._cell, base + lo, side="left")
                b = np.searchsorted(self._cell, base + hi, side="left")
                if b > a:
                    lat_parts.append(self._latencies[a:b])
                    user_parts.append(self._users[a:b])
        if not lat_parts:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(lat_parts)), np.concatenate(user_parts)


def check_cube_group(
    latencies: np.ndarray,
    users: np.ndarray,
    members: Dict[str, Any],
    quantiles: Sequence[float],
    answers: Sequence[float],
    distinct: float,
    rank_errors: List[float],
) -> Optional[str]:
    n = len(latencies)
    if members["lat"].n != n or members["users"].n != n:
        return f"group covers {members['lat'].n} records, the oracle counts {n}"
    for q, value in zip(quantiles, answers):
        bounds = (
            int(np.searchsorted(latencies, value, side="left")),
            int(np.searchsorted(latencies, value, side="right")),
        )
        problem = check_rank(bounds, q, n, rank_errors)
        if problem:
            return problem
    exact = len(np.unique(users))
    allowed = HLL_SIGMAS * members["users"].relative_error * exact + 3
    if abs(distinct - exact) > allowed:
        return f"HLL distinct {distinct:.1f} vs exact {exact} (allowed ±{allowed:.1f})"
    return None


def _member_state(summary: Any, kll_samples: bool) -> Dict[str, Any]:
    state = summary.to_dict()
    if "levels" in state and "seed" in state:
        # KLL.to_dict draws a fresh seed from the sketch's RNG on every
        # call, so the seed is never part of the comparable state
        state = dict(state)
        del state["seed"]
        if not kll_samples:
            del state["levels"]
    return state


def state_digest(store: Any, kll_samples: bool = True) -> str:
    """Digest of every segment and member state of a store.

    ``store.fingerprint()`` cannot be compared across a save for stores
    with KLL members, because ``KLLQuantiles.to_dict`` draws a new seed
    each call; this digest drops the seed.  With ``kll_samples=False``
    KLL samples are dropped too (their ``n`` stays): WAL replay re-runs
    KLL compactions with coin flips from a differently seeded RNG, so a
    replayed sketch may hold other samples with the same guarantee.
    """
    digest = hashlib.sha256()
    header = {
        "records": store.records,
        "wal_seq": store.wal_seq,
        "schema": {name: spec.to_dict() for name, spec in sorted(store.schema.items())},
        "extra": store._manifest_extra(),
    }
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    for chain_id, chain in store._chain_index():
        digest.update(repr((chain_id, chain.max_level)).encode("utf-8"))
        for segment in chain.segments():
            state = {
                "meta": segment.meta(),
                "members": {
                    name: _member_state(summary, kll_samples)
                    for name, summary in sorted(segment.members.items())
                },
            }
            digest.update(
                json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")
            )
    return digest.hexdigest()
