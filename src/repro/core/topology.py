"""Merge topologies: the shape of a merge sequence.

A topology over ``m`` leaves prescribes the exact sequence of pairwise
merges that reduces ``m`` summaries to one root summary.  The paper's
definition of mergeability quantifies over *all* such shapes; the
builders here produce the shapes the folds and benchmarks sweep, and
are the only copy of each shape: ``merge_all``'s ``chain``, ``tree``
and ``random`` strategies replay :func:`chain`, :func:`balanced_tree`
and :func:`random_tree`, and the distributed simulator replays any of
them over its nodes.

- :func:`balanced_tree` — depth ``ceil(log2 m)``, all merges between
  near-equal weights (the friendly shape);
- :func:`chain` — the caterpillar, depth ``m - 1``, maximally
  unbalanced (the adversarial shape for one-way-mergeable summaries);
- :func:`star` — one center absorbs everyone (identical to chain as a
  merge schedule, listed separately because in-network aggregation
  distinguishes them by communication pattern);
- :func:`kary_tree` — fan-in ``arity`` reduction;
- :func:`random_tree` — a uniformly random binary merge tree.

A schedule is a list of ``(dst, src)`` leaf-index pairs: "merge the
summary currently held by ``src`` into the one held by ``dst``".  After
the schedule runs, the summary at index ``schedule.root`` covers all
leaves.  Every builder raises
:class:`~repro.core.exceptions.ParameterError` for fewer than one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .exceptions import ParameterError
from .rng import RngLike, resolve_rng

__all__ = [
    "MergeSchedule",
    "balanced_tree",
    "chain",
    "star",
    "kary_tree",
    "random_tree",
    "TOPOLOGIES",
    "build_topology",
]


def _check_leaves(leaves: int) -> None:
    if leaves < 1:
        raise ParameterError(f"leaves must be >= 1, got {leaves!r}")


@dataclass(frozen=True)
class MergeSchedule:
    """An ordered list of pairwise merges over ``leaves`` summaries."""

    name: str
    leaves: int
    steps: List[Tuple[int, int]] = field(repr=False)
    root: int = 0

    def __post_init__(self) -> None:
        _check_leaves(self.leaves)
        if len(self.steps) != self.leaves - 1:
            raise ParameterError(
                f"a schedule over {self.leaves} leaves needs exactly "
                f"{self.leaves - 1} merges, got {len(self.steps)}"
            )
        if not 0 <= self.root < self.leaves:
            raise ParameterError(
                f"root {self.root} is outside the leaf range [0, {self.leaves})"
            )
        absorbed = set()
        for dst, src in self.steps:
            if not (0 <= dst < self.leaves and 0 <= src < self.leaves):
                raise ParameterError(
                    f"step ({dst}, {src}) references a node outside "
                    f"[0, {self.leaves})"
                )
            if dst == src:
                raise ParameterError(f"self-merge ({dst}, {src}) in schedule")
            if src in absorbed or dst in absorbed:
                raise ParameterError(
                    f"step ({dst}, {src}) reuses an already-absorbed summary"
                )
            absorbed.add(src)
        if self.root in absorbed:
            raise ParameterError(f"root {self.root} was absorbed by a merge")

    @property
    def depth(self) -> int:
        """Longest merge path from any leaf to the root."""
        depths = [0] * self.leaves
        for dst, src in self.steps:
            depths[dst] = max(depths[dst], depths[src]) + 1
        return depths[self.root]

    def describe(self) -> str:
        """A header line, then one ``merge dst <- src`` line per step."""
        lines = [
            f"schedule {self.name!r}: leaves={self.leaves}, "
            f"merges={len(self.steps)}, depth={self.depth}, root={self.root}"
        ]
        for index, (dst, src) in enumerate(self.steps):
            lines.append(f"  {index:>3}. merge {dst} <- {src}")
        return "\n".join(lines)


def balanced_tree(leaves: int) -> MergeSchedule:
    """Pairwise balanced binary reduction."""
    _check_leaves(leaves)
    steps: List[Tuple[int, int]] = []
    level = list(range(leaves))
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            steps.append((level[i], level[i + 1]))
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return MergeSchedule("balanced", leaves, steps, root=level[0])


def chain(leaves: int) -> MergeSchedule:
    """Left-fold caterpillar: 0 absorbs 1, then 2, then 3, ..."""
    steps = [(0, i) for i in range(1, leaves)]
    return MergeSchedule("chain", leaves, steps, root=0)


def star(leaves: int) -> MergeSchedule:
    """A single center (leaf 0) absorbs every other leaf directly."""
    steps = [(0, i) for i in range(1, leaves)]
    return MergeSchedule("star", leaves, steps, root=0)


def kary_tree(leaves: int, arity: int = 4) -> MergeSchedule:
    """Fan-in ``arity`` reduction (sensor-network style)."""
    _check_leaves(leaves)
    if arity < 2:
        raise ParameterError(f"arity must be >= 2, got {arity!r}")
    steps: List[Tuple[int, int]] = []
    level = list(range(leaves))
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), arity):
            group = level[i : i + arity]
            head = group[0]
            for other in group[1:]:
                steps.append((head, other))
            nxt.append(head)
        level = nxt
    return MergeSchedule(f"{arity}-ary", leaves, steps, root=level[0])


def random_tree(leaves: int, rng: RngLike = None) -> MergeSchedule:
    """A uniformly random binary merge tree (seeded)."""
    _check_leaves(leaves)
    gen = resolve_rng(rng)
    steps: List[Tuple[int, int]] = []
    alive = list(range(leaves))
    while len(alive) > 1:
        i, j = gen.choice(len(alive), size=2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        steps.append((alive[i], alive[j]))
        del alive[j]
    return MergeSchedule("random", leaves, steps, root=alive[0])


TOPOLOGIES = {
    "balanced": balanced_tree,
    "chain": chain,
    "star": star,
    "kary": kary_tree,
    "random": random_tree,
}


def build_topology(name: str, leaves: int, rng: RngLike = None, **kwargs) -> MergeSchedule:
    """Build the named topology over ``leaves`` leaves."""
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    if name == "random":
        return builder(leaves, rng=rng, **kwargs)
    return builder(leaves, **kwargs)
