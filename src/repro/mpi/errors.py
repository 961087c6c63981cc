"""Error types of the simulated MPI engine."""

from __future__ import annotations

from typing import Sequence


class SimAbort(RuntimeError):
    """Raised inside a rank whose world was aborted by another rank.

    When any rank fails (e.g. with :class:`~repro.machine.memory.SimOOMError`)
    the engine aborts all barriers so sibling ranks unwind instead of
    deadlocking; they unwind with this exception, which the engine then
    discards in favour of the originating failure.
    """


class FlatAbort(Exception):
    """A rank failed; in-flight ranks stop at their next collective.

    A columnar world raises this when a collective is entered with
    failures pending — the sequential analogue of the thread engine's
    abort flag unwinding sibling ranks with :class:`SimAbort`.  Ranks
    whose remaining work is collective-free (e.g. the final local
    ordering) are *not* aborted, matching the thread engine where such
    ranks never block and therefore complete.
    """


class MessageLostError(RuntimeError):
    """A message exhausted the retry budget and could not be delivered.

    Raised by the reliable transport layer when a fault plan drops the
    same message more than :attr:`~repro.faults.spec.RetryPolicy.max_retries`
    consecutive times (or a collective's retransmission chain never
    drains).  Unrecoverable by design: it aborts the world and surfaces
    through :class:`RankFailure` like any other rank exception.
    """


class RunCancelled(RuntimeError):
    """A run was cancelled from outside (service timeout or cancel op).

    Injected by the engine's cancel watcher as a rank-0 failure so the
    world unwinds through the normal abort machinery and the caller
    sees an ordinary :class:`RankFailure` whose cause is this type —
    the sort-as-a-service scheduler maps it to the job's
    ``cancelled``/``timeout`` status.
    """


class RankFailure(RuntimeError):
    """A simulated run failed; aggregates every rank's exception.

    All failed ranks are reported, in rank order, with their original
    exception objects (tracebacks intact).  The engine raises the
    aggregate ``from`` the first exception, so ``__cause__`` chains to
    the primary failure while :attr:`failures` preserves the rest —
    multi-rank faults (routine under fault injection) are never
    silently collapsed to one rank.

    Attributes
    ----------
    failures: ordered tuple of ``(rank, exception)`` for every failed rank.
    rank: the lowest-numbered failed rank (primary failure).
    cause: that rank's exception instance.
    """

    def __init__(self, failures: Sequence[tuple[int, BaseException]]):
        self.failures = tuple(failures)
        if not self.failures:
            raise ValueError("RankFailure needs at least one (rank, exc)")
        self.rank, self.cause = self.failures[0]
        if len(self.failures) == 1:
            msg = f"rank {self.rank} failed: {self.cause!r}"
        else:
            head = ", ".join(f"rank {r}: {type(e).__name__}"
                             for r, e in self.failures)
            msg = (f"{len(self.failures)} ranks failed ({head}); "
                   f"primary: rank {self.rank} failed: {self.cause!r}")
        super().__init__(msg)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All failed ranks, ascending."""
        return tuple(r for r, _ in self.failures)
