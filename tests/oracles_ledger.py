"""The per-rank ledgers as they were before they became columns.

A world used to keep, per rank, a clock float, a ``MemoryTracker``, a
counter dict, a phase-time dict and a list of ``(t0, t1, phase)``
brackets, and every verb walked them rank by rank.  :class:`RankLedger`
is that state with the statements that booked it, and
:func:`fault_totals` the sum ``run_sort`` made of the counter dicts:
the reference ``tests/test_ledger_columns.py`` holds the columns and
the verbs against.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.machine import SimOOMError


@dataclass
class MemoryTracker:
    """Live allocations of one simulated rank."""

    capacity: int | None = None
    rank: int = 0
    in_use: int = 0
    peak: int = 0

    def alloc(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.capacity is not None and self.in_use + nbytes > self.capacity:
            raise SimOOMError(self.rank, nbytes, self.in_use, self.capacity)
        self.in_use += nbytes
        if self.in_use > self.peak:
            self.peak = self.in_use
        return nbytes

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        self.in_use = max(0, self.in_use - nbytes)


class RankLedger:
    """One rank's ledgers, booked one statement at a time."""

    def __init__(self, rank: int, capacity: int | None):
        self.clock = 0.0
        self.mem = MemoryTracker(capacity, rank)
        self.counters: dict[str, float] = {}
        self.phase_times: dict[str, float] = {}
        self.traces: list[tuple[float, float, str]] = []

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.clock += seconds

    def alloc(self, nbytes: int) -> None:
        self.mem.alloc(nbytes)

    def free(self, nbytes: int) -> None:
        self.mem.free(nbytes)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    @contextmanager
    def phase(self, name: str):
        t0 = self.clock
        try:
            yield
        finally:
            t1 = self.clock
            pt = self.phase_times
            pt[name] = (pt[name] if name in pt else 0.0) + (t1 - t0)
            self.traces.append((t0, t1, name))


def fault_totals(counters: list[dict[str, float]]) -> dict[str, float]:
    """``extras["faults"]``: fault counters summed rank by rank."""
    agg: dict[str, float] = {}
    for c in counters:
        for k, v in c.items():
            if k.startswith(("faults.", "retry.")):
                agg[k] = agg.get(k, 0.0) + v
    return {k: agg[k] for k in sorted(agg)}


def phase_breakdown(phase_times: list[dict[str, float]]) -> dict[str, float]:
    """Max over ranks per phase, a rank without the phase counting 0.0."""
    names: set[str] = set().union(*phase_times)
    return {name: max([pt[name] if name in pt else 0.0 for pt in phase_times])
            for name in sorted(names)}
