"""Host-speed calibration: how slow is this box *right now*?

The reference VM is a shared host.  A fixed pure-Python loop on it takes
44 ms or 73 ms from one second to the next, and the whole box drifts by
30-40 % over tens of minutes; raw medians of identical 12 s runs spread
by 15-35 %, wider than any bound the benchmark may declare.  The jobs
and this kernel slow down together, so each timed job is divided by the
slowdown the kernel saw right around it (README, "host-speed
normalisation").  Times the ledger reports are therefore *milliseconds
on the reference box when nothing else contends for it*.

The kernel is owned by the benchmark and never changes with the program:
half interpreter work (arithmetic, dict and list traffic), half numpy
(stable sort, argsort, a streaming copy), because the workloads range
from interpreter-bound (``wide_sds``) to numpy-bound (``deep_skew``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds one sample takes on the idle reference box (its fastest
#: observed state).  A constant: changing it rescales every time metric.
NOMINAL_S = 0.0350


class HostSpeed:
    """``sample()`` returns the current slowdown: observed / nominal time."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).random(200_000)
        self._block = np.zeros(500_000)
        self.sample()  # first touch of the arrays is not a measurement

    def sample(self) -> float:
        t0 = perf_counter()
        total, table, items = 0, {}, []
        for i in range(400_000):
            total += i * i
        for i in range(60_000):
            table[i & 1023] = i
            items.append(i)
        np.sort(self._keys, kind="stable")
        np.argsort(self._keys)
        for _ in range(4):
            self._block.copy()
        return (perf_counter() - t0) / NOMINAL_S
