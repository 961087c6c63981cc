"""Per-rank memory accounting with out-of-memory detection.

The paper's headline failure mode for the HykSort baseline is an
out-of-memory crash: histogram-selected splitters cannot separate runs
of duplicate keys, so one rank receives far more than the average
``N/p`` records and exhausts its share of node memory (Figures 8 and
10, Tables 3 and 4).  Algorithms in this repository route their large
allocations through a :class:`MemoryTracker` so that the same failure
reproduces deterministically in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


class SimOOMError(MemoryError):
    """Raised when a simulated rank exceeds its memory capacity.

    Carries enough context for benches to report which rank failed and
    by how much, mirroring the paper's "(Out of Memory)" annotations.
    """

    def __init__(self, rank: int, requested: int, in_use: int, capacity: int):
        self.rank = rank
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"rank {rank}: allocation of {requested} B would exceed capacity "
            f"({in_use} B in use of {capacity} B)"
        )

    def __reduce__(self):
        # default exception pickling replays __init__ with self.args (the
        # formatted message), which doesn't match the 4-argument
        # signature; reconstruct from the structured fields instead so
        # a failure survives a pickle round trip
        return (SimOOMError,
                (self.rank, self.requested, self.in_use, self.capacity))


@dataclass
class MemoryTracker:
    """Tracks live allocations of one simulated rank.

    Parameters
    ----------
    capacity:
        Maximum live bytes; ``None`` disables enforcement (useful for
        unit tests of other components).
    rank:
        Rank id used in error messages.
    on_peak:
        Optional observer called with each new ``peak``, on the
        allocating thread (the thread engine places rank threads by it).
    """

    capacity: int | None = None
    rank: int = 0
    in_use: int = 0
    peak: int = 0
    total_allocated: int = 0
    n_allocs: int = 0
    _failed: bool = field(default=False, repr=False)
    on_peak: Callable[[int], None] | None = field(
        default=None, repr=False, compare=False)

    def alloc(self, nbytes: int) -> int:
        """Record an allocation of ``nbytes``; raise :class:`SimOOMError` on overflow.

        Returns the number of bytes for convenient chaining.
        """
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.capacity is not None and self.in_use + nbytes > self.capacity:
            self._failed = True
            raise SimOOMError(self.rank, nbytes, self.in_use, self.capacity)
        self.in_use += nbytes
        self.total_allocated += nbytes
        self.n_allocs += 1
        if self.in_use > self.peak:
            self.peak = self.in_use
            if self.on_peak is not None:
                self.on_peak(self.peak)
        return nbytes

    def free(self, nbytes: int) -> None:
        """Record a release of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        self.in_use = max(0, self.in_use - nbytes)

    def reset(self) -> None:
        """Forget all live allocations (keeps cumulative statistics)."""
        self.in_use = 0

    @property
    def failed(self) -> bool:
        """Whether an allocation on this tracker ever OOMed."""
        return self._failed

    @property
    def headroom(self) -> int | None:
        """Bytes still available, or ``None`` when unenforced."""
        if self.capacity is None:
            return None
        return max(0, self.capacity - self.in_use)
