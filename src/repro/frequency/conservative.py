"""CountMin with conservative update — a *non-mergeable* cautionary tale.

Conservative update (Estan & Varghese) tightens CountMin's streaming
accuracy: on an update, only the cells equal to the current minimum
estimate are incremented, so collisions inflate counters far less.

The catch — and the reason this class exists in a mergeable-summaries
library — is that conservative update **breaks linearity**: the sketch
is no longer a linear function of the frequency vector, so adding two
tables is *not* the sketch of the union.  The sum remains a sound upper
bound (both operands over-estimate), but the accuracy advantage over
plain CountMin evaporates at the first merge and keeps eroding with
depth.  Benchmark E20 quantifies exactly this: conservative update wins
sequentially and converges to (or past) plain CountMin after merging —
a concrete instance of the paper's theme that streaming accuracy tricks
do not automatically survive mergeability requirements.

The table is :class:`~repro.core.counter_table.CounterTable`'s; this
class keeps the conservative update (one item at a time) and counts
merge generations per operand.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..core.base import Summary
from ..core.counter_table import CounterTable
from ..core.exceptions import ParameterError
from ..core.registry import register_summary

__all__ = ["ConservativeCountMin"]


@register_summary("conservative_count_min")
class ConservativeCountMin(CounterTable):
    """CountMin with conservative update (non-linear; merge degrades).

    Same geometry/seed parameters as :class:`repro.frequency.CountMin`;
    ``merge_generations`` counts how many merges contributed, since
    each one costs part of the conservative-update advantage.
    """

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        super().__init__(width, depth, seed)
        self.merge_generations = 0

    def update(self, item: Any, weight: int = 1) -> None:
        if weight <= 0:
            raise ParameterError(f"weight must be positive, got {weight!r}")
        rows = np.arange(self.depth)
        cols = self._row_indices(item)
        cells = self._table[rows, cols]
        # conservative rule: raise every cell only as far as the new
        # lower bound (current estimate + weight) requires
        target = cells.min() + weight
        self._table[rows, cols] = np.maximum(cells, target)
        self._n += weight

    def estimate(self, item: Any) -> int:
        cols = self._row_indices(item)
        return int(self._table[np.arange(self.depth), cols].min())

    def upper_bound(self, item: Any) -> int:
        return self.estimate(item)

    def _merge_same_type(self, other: "ConservativeCountMin") -> None:
        # table addition: sound (both over-estimate) but no longer a
        # conservative-update sketch of the union — see module docstring
        super()._merge_same_type(other)
        self.merge_generations = (
            max(self.merge_generations, other.merge_generations) + 1
        )

    # a fold: every operand is one more merge generation
    _merge_many_same_type = Summary._merge_many_same_type

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["merge_generations"] = self.merge_generations
        payload["table"] = payload.pop("table")  # json.v1 keeps key order
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConservativeCountMin":
        sketch = super().from_dict(payload)
        sketch.merge_generations = payload["merge_generations"]
        return sketch
