"""Per-rank memory accounting with out-of-memory detection.

The paper's headline failure mode for the HykSort baseline is an
out-of-memory crash: histogram-selected splitters cannot separate runs
of duplicate keys, so one rank receives far more than the average
``N/p`` records and exhausts its share of node memory (Figures 8 and
10, Tables 3 and 4).  Algorithms in this repository route their large
allocations through the world's :class:`MemoryLedger` so that the same
failure reproduces deterministically in simulation.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

#: The capacity of a rank whose memory is not enforced.
_UNBOUNDED = np.iinfo(np.int64).max


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


class MemoryLedger:
    """Live and peak bytes of every rank of a world, as int64 columns.

    ``alloc`` / ``free`` book ``nbytes`` on the ranks ``at`` (one rank's
    int and its int, or an index array and a value each) and return the
    refusals ``[(i, exception)]`` in rank order: a negative size, or an
    allocation past ``capacity`` (:class:`SimOOMError`).  A refused rank
    books nothing, the others in full; a free clamps at zero.
    ``on_peak`` hears each new peak of a one-rank allocation, on the
    allocating thread (the thread engine places rank threads by it).
    """

    def __init__(self, p: int, capacity: int | None = None):
        self.in_use = np.zeros(p, dtype=np.int64)
        self.peak = np.zeros(p, dtype=np.int64)
        self.capacity = np.full(p, _UNBOUNDED if capacity is None
                                else capacity, dtype=np.int64)
        self.on_peak: Callable[[int], None] | None = None

    def alloc(self, at: Any, nbytes: Any) -> list:
        in_use, peak = self.in_use, self.peak
        if type(at) is int:  # one rank: no arrays
            new = in_use.item(at) + nbytes
            if nbytes < 0 or new > self.capacity.item(at):
                return [(0, self._refusal(at, nbytes))]
            in_use[at] = new
            if new > peak.item(at):
                peak[at] = new
                if self.on_peak is not None:
                    self.on_peak(new)
            return []
        nbytes = np.asarray(nbytes, dtype=np.int64)
        new = in_use[at] + nbytes
        bad = (nbytes < 0) | (new > self.capacity[at])
        refused = [(i, self._refusal(g, nb)) for i, g, nb in zip(
            np.flatnonzero(bad).tolist(), at[bad].tolist(),
            nbytes[bad].tolist())]
        at, new = at[~bad], new[~bad]
        in_use[at] = new
        peak[at] = np.maximum(peak[at], new)
        return refused

    def free(self, at: Any, nbytes: Any) -> list:
        if type(at) is int:
            if nbytes < 0:
                return [(0, ValueError("free size must be non-negative"))]
            self.in_use[at] = max(0, self.in_use.item(at) - nbytes)
            return []
        nbytes = np.asarray(nbytes, dtype=np.int64)
        bad = nbytes < 0
        at, kept = at[~bad], nbytes[~bad]
        self.in_use[at] = np.maximum(self.in_use[at] - kept, 0)
        return [(i, ValueError("free size must be non-negative"))
                for i in np.flatnonzero(bad).tolist()]

    def pool(self, at: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Capacity of each group of ranks ``at`` cut at ``starts``: its
        members' summed, unbounded if one of them is."""
        caps = self.capacity[at]
        unbounded = caps == _UNBOUNDED
        pooled = np.add.reduceat(np.where(unbounded, 0, caps), starts)
        pooled[np.logical_or.reduceat(unbounded, starts)] = _UNBOUNDED
        return pooled

    def _refusal(self, rank: int, nbytes: int) -> Exception:
        if nbytes < 0:
            return ValueError("allocation size must be non-negative")
        return SimOOMError(rank, int(nbytes), self.in_use.item(rank),
                           self.capacity.item(rank))


class RankMemory(NamedTuple):
    """One rank's row of a :class:`MemoryLedger` (``comm.mem``): a
    refused ``alloc`` or ``free`` raises; ``capacity`` is ``None`` when
    unenforced."""

    ledger: MemoryLedger
    rank: int

    def alloc(self, nbytes: int) -> None:
        for _, exc in self.ledger.alloc(self.rank, nbytes):
            raise exc

    def free(self, nbytes: int) -> None:
        for _, exc in self.ledger.free(self.rank, nbytes):
            raise exc

    in_use = property(lambda self: self.ledger.in_use.item(self.rank))
    peak = property(lambda self: self.ledger.peak.item(self.rank))
    capacity = property(lambda self: None if (
        cap := self.ledger.capacity.item(self.rank)) == _UNBOUNDED else cap)
