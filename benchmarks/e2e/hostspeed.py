"""Operation times corrected for the speed of a shared host.

The reference host (2 vCPUs shared with other tenants) runs a fixed
pure-Python loop at anything from its fastest speed to ~1.7x slower.
The speed changes within milliseconds and also in stretches of many
seconds and minutes, so a 25-second run that falls into a slow stretch
is slow throughout: over ten runs of the same code, raw phase times
spread by 0.1-0.3 of their median, wider than the bounds a regression
check needs.

A run therefore times a fixed loop, the *probe*, before every
:data:`PROBE_EVERY`-th operation, outside the timed region.  Each
operation's time is scaled by :data:`REFERENCE_PROBE_S` over the median
of the probes nearest to it, so it reads as the time the operation
takes when the probe runs at its reference speed (the reference host's
fastest).  A slower program is slower at every host speed, so a
regression still shows; the probe runs between operations, so the
program's own work does not slow it.

The probe measures the processor only.  Time an operation spends
waiting for the disk (``fsync``) is scaled as if it were processor
time, so ``save_s`` and the fsync-bound ack latencies stay the noisiest
times.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

import numpy as np

#: operations between two probes
PROBE_EVERY = 10
#: probes on each side of an operation that set its local speed
WINDOW = 3
#: probe seconds at the reference host's fastest speed (Python 3.11)
REFERENCE_PROBE_S = 100e-6
_PROBE_LOOP = 2000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_LOOP):
        total += i * i
    return time.perf_counter() - start


def corrected_times(
    ops: Sequence[Tuple[str, float]], probes: Sequence[Tuple[int, float]]
) -> np.ndarray:
    """One round's operation seconds at the reference host speed.

    ``ops`` lists the round's ``(phase, seconds)`` in order; ``probes``
    lists ``(index of the operation the probe preceded, probe seconds)``
    and starts with a probe before operation 0.
    """
    at = np.array([index for index, _ in probes])
    seconds = np.array([s for _, s in probes])
    local = np.array([
        np.median(seconds[max(0, j - WINDOW) : j + WINDOW + 1])
        for j in range(len(seconds))
    ])
    # the probe taken at or before each operation
    slot = np.searchsorted(at, np.arange(len(ops)), side="right") - 1
    raw = np.array([s for _, s in ops])
    return raw * (REFERENCE_PROBE_S / local[slot])
