"""Plan compilers: turn merge topologies into :class:`MergePlan` programs.

Each legacy execution loop of the library is re-expressed here as a
*compiler* producing the shared IR:

- :func:`compile_fold` — the ``merge_all`` strategies (chain, balanced
  tree, uniformly random tree, single k-way), compiled over abstract
  slot names so the caller binds any summaries to them;
- :func:`compile_aggregation` — a distributed
  :class:`~repro.distributed.topology.MergeSchedule` plus its leaf
  summary factory, compiled to build steps (one per node) followed by
  the schedule's merges and a root emit;

(the store's dyadic roll-up compiler lives with the store itself —
:meth:`repro.store.store.SegmentStore.compact` — because it reads
private segment state; it produces the same IR and runs on the same
executor).

Compilation is where each strategy's *randomness* is consumed: the
random-tree compiler replays the exact draw sequence of the historical
``merge_random_tree`` loop against its RNG, so a seeded plan is a
faithful, inspectable transcript of what the legacy executor would have
done — and executing it is byte-identical.

:data:`MERGE_STRATEGIES` maps strategy names to
:class:`MergeStrategy` descriptors that carry, besides the compiler,
whether the strategy consumes an ``rng`` — ``merge_all`` uses this to
reject an ``rng`` the strategy would silently drop.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

from ..core.exceptions import MergeError, ParameterError
from ..core.rng import RngLike, resolve_rng
from .plan import MergePlan, MergeStep

__all__ = [
    "MergeStrategy",
    "MERGE_STRATEGIES",
    "compile_fold",
    "compile_aggregation",
    "fold_slots",
]


def fold_slots(count: int) -> List[str]:
    """Canonical slot names for an ``count``-ary fold: ``s0`` .. ``s{n-1}``."""
    return [f"s{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# Fold strategies
# ---------------------------------------------------------------------------


def _compile_chain(slots: Sequence[Hashable], rng: RngLike = None) -> MergePlan:
    """Left fold: ``((s0 <- s1) <- s2) <- ...`` — depth ``m - 1``."""
    acc = slots[0]
    steps = [MergeStep("merge", acc, (src,)) for src in slots[1:]]
    steps.append(MergeStep("emit", acc))
    # one destination absorbing everything is inherently sequential
    return MergePlan(name=f"fold:chain[{len(slots)}]", steps=steps)


def _compile_tree(slots: Sequence[Hashable], rng: RngLike = None) -> MergePlan:
    """Balanced binary reduction — depth ``ceil(log2 m)``, pairwise merges.

    Levels reproduce the historical loop exactly: pairs merge left-in-
    place, an odd leftover joins the *end* of the next level.
    """
    steps: List[MergeStep] = []
    level: List[Hashable] = list(slots)
    while len(level) > 1:
        nxt: List[Hashable] = []
        for i in range(0, len(level) - 1, 2):
            steps.append(MergeStep("merge", level[i], (level[i + 1],)))
            nxt.append(level[i])
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    steps.append(MergeStep("emit", level[0]))
    return MergePlan(name=f"fold:tree[{len(slots)}]", steps=steps)


def _compile_random(slots: Sequence[Hashable], rng: RngLike = None) -> MergePlan:
    """A uniformly random binary merge tree, deterministic under a seed.

    Replays the draw sequence of the historical loop: pick two distinct
    survivors, merge the later-positioned one into the earlier.  The
    randomness is spent *here*, so the compiled plan is the realized
    tree and execution is deterministic.
    """
    gen = resolve_rng(rng)
    steps: List[MergeStep] = []
    pool: List[Hashable] = list(slots)
    while len(pool) > 1:
        i, j = gen.choice(len(pool), size=2, replace=False)
        i, j = int(i), int(j)
        if i > j:
            i, j = j, i
        right = pool.pop(j)
        steps.append(MergeStep("merge", pool[i], (right,)))
    steps.append(MergeStep("emit", pool[0]))
    return MergePlan(name=f"fold:random[{len(slots)}]", steps=steps)


def _compile_kway(slots: Sequence[Hashable], rng: RngLike = None) -> MergePlan:
    """One s-way fan-in: a single ``merge_many`` over the whole list."""
    steps: List[MergeStep] = []
    if len(slots) > 1:
        steps.append(MergeStep("merge", slots[0], tuple(slots[1:])))
    steps.append(MergeStep("emit", slots[0]))
    return MergePlan(name=f"fold:kway[{len(slots)}]", steps=steps)


@dataclass(frozen=True)
class MergeStrategy:
    """A named fold strategy: its plan compiler plus the knobs it consumes.

    ``uses_rng`` drives ``merge_all``'s argument validation — an ``rng``
    the strategy cannot honor raises
    :class:`~repro.core.exceptions.ParameterError` instead of being
    silently ignored.
    """

    name: str
    compiler: Callable[..., MergePlan]
    uses_rng: bool = False
    description: str = ""

    def compile(
        self, slots: Sequence[Hashable], rng: RngLike = None
    ) -> MergePlan:
        """Compile a plan over ``slots`` (consuming ``rng`` if used)."""
        if not slots:
            raise MergeError("cannot merge an empty list of summaries")
        return self.compiler(slots, rng)


#: strategy registry: ``merge_all`` dispatch, CLI choices, docs
MERGE_STRATEGIES = {
    "chain": MergeStrategy(
        name="chain",
        compiler=_compile_chain,
        description="left fold, depth m-1 (the adversarial caterpillar)",
    ),
    "tree": MergeStrategy(
        name="tree",
        compiler=_compile_tree,
        description="balanced binary reduction, depth ceil(log2 m)",
    ),
    "random": MergeStrategy(
        name="random",
        compiler=_compile_random,
        uses_rng=True,
        description="uniformly random binary merge tree",
    ),
    "kway": MergeStrategy(
        name="kway",
        compiler=_compile_kway,
        description="one s-way merge_many fan-in",
    ),
}


def compile_fold(
    strategy: str, count: int, rng: RngLike = None
) -> MergePlan:
    """Compile the named fold strategy over ``count`` canonical slots.

    Convenience wrapper used by the CLI and benchmarks; ``merge_all``
    goes through :data:`MERGE_STRATEGIES` directly so it can validate
    knobs against the strategy descriptor first.
    """
    try:
        descriptor = MERGE_STRATEGIES[strategy]
    except KeyError:
        raise ParameterError(
            f"unknown merge strategy {strategy!r}; choose from "
            f"{sorted(MERGE_STRATEGIES)}"
        ) from None
    return descriptor.compile(fold_slots(count), rng)


# ---------------------------------------------------------------------------
# Distributed aggregation schedules
# ---------------------------------------------------------------------------


def _factory_takes_node_index(factory: Callable[..., object]) -> bool:
    """True when ``factory`` wants the node index (one required arg).

    Factories may accept the node index to derive per-node RNG streams
    (``lambda i: KLLQuantiles(200, rng=1000 + i)``); zero-argument
    factories are called as before.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    required = [
        p
        for p in signature.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.default is p.empty
    ]
    return len(required) == 1


def _leaf_builder(
    factory: Optional[Callable[..., object]], takes_index: bool
) -> Callable[..., object]:
    """Build-step builder: receives the slot's node, returns its summary."""
    if factory is None:
        # plan-inspection mode (``repro plan``): steps are never executed
        return lambda node: None
    if takes_index:
        return lambda node: node.build(lambda: factory(node.node_id))
    return lambda node: node.build(factory)


def compile_aggregation(
    schedule,
    summary_factory: Optional[Callable[..., object]] = None,
) -> MergePlan:
    """Compile a :class:`~repro.distributed.topology.MergeSchedule`.

    One build step per leaf, one merge step per schedule step in order,
    one emit of the root.  The root is *protected*: the simulator's
    coordinator is recovered out-of-band (see
    :mod:`repro.distributed.recovery`), so crash injection never takes
    it.  ``summary_factory`` may be omitted when the plan is compiled
    only for inspection.
    """
    takes_index = _factory_takes_node_index(summary_factory) if summary_factory else False
    builder = _leaf_builder(summary_factory, takes_index)
    steps: List[MergeStep] = [
        MergeStep("build", i, builder=builder) for i in range(schedule.leaves)
    ]
    steps.extend(
        MergeStep("merge", dst, (src,)) for dst, src in schedule.steps
    )
    steps.append(MergeStep("emit", schedule.root))
    return MergePlan(
        name=f"aggregate:{schedule.name}[{schedule.leaves}]",
        steps=steps,
        protected=frozenset({schedule.root}),
    )
