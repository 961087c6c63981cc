"""Zero-thread columnar execution engine (``backend="flat"``).

The thread backend pays O(p) interpreter dispatch per phase: p rank
threads each stepping through tiny numpy calls.  The flat backend keeps
the world as it is — :class:`~repro.mpi.comm.Comm` handles, the ledger
columns, fault plan, tracer — and drives every rank from one interpreter
loop with zero threads.  :class:`ColumnarWorld` is the whole-membership
view of the :class:`~repro.mpi.world.World` protocol: every verb is the
base class's array statements over the ranks handed in (tracer and
fault hooks per rank, behind ``is not None`` tests); what this view adds
is the rendezvous and the failure rule:

* :meth:`ColumnarWorld.collective` *is* the meeting: deposits and clocks
  snapshotted in rank order, the designated-rank ``compute`` run once, a
  fault plan's verdicts drawn in one pass, the epilogue booked on the
  membership — an :class:`~repro.mpi.world.Epilogue` in its one call,
  any other ``finish`` rank by rank;
* a rank whose charge or epilogue is refused (simulated OOM, a lost
  collective) is recorded in the ledger and skips the rest of *its*
  epilogue, exactly where a rank thread would have raised — nobody
  else's.  Ranks with collectives ahead observe the abort at their next
  collective boundary (:class:`~repro.mpi.errors.FlatAbort`, the
  sequential analogue of :class:`~repro.mpi.errors.SimAbort`); ranks
  past their last collective complete normally, as rank threads do when
  a sibling dies.

Bit-for-bit equivalence with the thread backend holds because the
statements are the same — a rank thread runs them through
:class:`~repro.mpi.world.LaneWorld` on its own ledger index — and each
is elementwise: a rank's clock, counters and phase times see the same
float operations in the same order.  A collective's time is a pure
function of the deposit clocks and the LogGP model; fault verdicts are
pure functions of structural position, keyed on the collective sequence
column of each communicator's context, which its members advance in
lockstep.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Sequence

from ..machine import LAPTOP, MachineSpec
from .comm import Comm, SimWorld
from .engine import SpmdResult
from .errors import FlatAbort, RankFailure, RunCancelled
from .world import Epilogue, World, members, per_rank

__all__ = ["FlatAbort", "ColumnarWorld", "run_spmd_flat", "make_world_comms"]


class ColumnarWorld(World):
    """Whole-world view of the execution protocol, plus failure ledger.

    Every ``comms`` argument of a collective must be a communicator's
    full membership in communicator rank order (``make_world_comms``
    and :meth:`~repro.mpi.world.World.split` both construct such
    lists); phase brackets and the charge verbs take any ranks.
    """

    __slots__ = ("world", "failures", "dead")

    def __init__(self, world: SimWorld):
        self.world = world
        self.failures: list[tuple[int, BaseException]] = []
        self.dead: set[int] = set()

    # -- fault / abort surface -----------------------------------------
    def fail(self, comm: Comm, exc: BaseException) -> None:
        self.failures.append((comm.grank, exc))
        self.dead.add(comm.grank)

    def poll_cancel(self) -> None:
        """Abort the world once the run's cancel event is set.

        Records the failure the thread engine's watcher records, so a
        cancelled run reports identically on both backends.
        """
        cancel = self.world.cancel
        if cancel is not None and cancel.is_set():
            self.failures.append(
                (0, RunCancelled("run cancelled while in flight")))
            raise FlatAbort

    def check(self) -> None:
        """Abort point: entering a collective with failures pending,
        or after the run was cancelled."""
        self.poll_cancel()
        if self.failures:
            raise FlatAbort

    def phase(self, comms: Sequence[Comm], name: str):
        self.poll_cancel()
        return super().phase(comms, name)

    # -- the rendezvous ------------------------------------------------
    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        """Run one staged collective over a communicator's members.

        Mirrors ``Comm.staged`` plus the caller's epilogue: snapshot
        the stage, run the designated-rank ``compute`` once, under a
        fault plan charge the membership's deterministic collective
        verdicts, then book the epilogue — an :class:`Epilogue` in its
        one call, anything else rank by rank.  Per-rank exceptions (a
        lost collective, a refused charge) are recorded, not raised,
        and that rank is left out of the epilogue — the next checked
        collective aborts the world, exactly where thread-backend
        siblings would unwind.
        """
        if check:
            self.check()
        stage = list(zip(deposits, per_rank(
            self.world.clock[members(comms)[0]])[0]))
        shared = compute(stage)
        f = self.world.faults
        if f is not None and f.affects_collectives:
            self.charge_collective_faults(comms)
        if isinstance(finish, Epilogue):
            return shared, finish.whole(shared)
        return shared, self.each(comms, lambda i, c: finish(i, c, shared))

    def sendrecv(self, comms: Sequence[Comm], objs: Sequence[Any],
                 peers: Sequence[int], tag: int = 0) -> list:
        """Pairwise exchange: all sends first, then all receives.

        Channels are FIFO per ``(src, dst, tag)`` and carry the
        sender's clock, so draining sends before receives reproduces
        the thread backend's virtual times exactly (drops are modelled,
        not enacted — the payload always arrives).  An empty channel
        means the partner died before sending; thread siblings would
        block there until the abort flag unwinds them, so the columnar
        analogue is a world abort.
        """
        self.check()
        self.each(comms, lambda i, c: c.send(objs[i], peers[i], tag))
        outs: list[Any] = [None] * len(comms)
        for i, c in enumerate(comms):
            if not self.alive(c):
                continue
            try:
                got = c._try_recv(peers[i], tag)
                if got is None:
                    raise FlatAbort
                outs[i] = c._complete_recv(c._ctx.group[peers[i]], tag, *got)
            except FlatAbort:
                raise
            except BaseException as exc:
                self.fail(c, exc)
        return outs


# ----------------------------------------------------------------------
# world construction + engine entry point
# ----------------------------------------------------------------------

def make_world_comms(world: SimWorld) -> list[Comm]:
    """One ``Comm`` handle per world rank, rank order."""
    return [Comm(world, world.world_ctx, r) for r in range(world.p)]


def run_spmd_flat(fn: Any, p: int, *, machine: MachineSpec = LAPTOP,
                  mem_capacity: int | None = None, args: tuple = (),
                  kwargs: dict | None = None, check: bool = True,
                  faults: Any = None, tracer: Any = None,
                  cancel: Any = None) -> SpmdResult:
    """Flat-backend twin of :func:`repro.mpi.engine.run_spmd`.

    ``fn`` must expose ``flat_run(comms, *args, **kwargs) ->
    (results, failures)`` where ``comms`` is the world communicator's
    handles in rank order, ``results`` is the per-rank return list
    (``None`` for ranks that failed or were aborted) and ``failures``
    is a list of ``(rank, exception)``.  Programs without a batched
    path cannot run flat — the thread backend accepts any rank
    callable.  ``cancel`` (a :class:`threading.Event`) rides on the
    ``SimWorld``; a :class:`ColumnarWorld` polls it at every collective
    and phase entry and aborts with the thread watcher's failure.
    """
    flat = getattr(fn, "flat_run", None)
    if flat is None:
        raise TypeError(
            "backend='flat' needs a rank program exposing "
            f"flat_run(comms); {fn!r} has none "
            "(the thread backend runs any rank callable)")
    world = SimWorld(p, machine, mem_capacity=mem_capacity, faults=faults,
                  tracer=tracer)
    world.cancel = cancel
    comms = make_world_comms(world)
    # Every engine object dies by reference count, so the cyclic
    # collector only re-walks a wide world's live objects and finds
    # nothing (docs/engine.md, "The collector is paused").  Whoever
    # finds it on turns it off and back on: overlapping runs can lose
    # part of the pause, never leave the collector off, and a caller
    # who disabled it keeps it disabled.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    failed = True  # until the program returns, and without failures
    try:
        results, failures = flat(comms, *args, **(kwargs or {}))
        failed = bool(failures)
    finally:
        if paused:
            gc.enable()
        if failed:
            # Failures are what makes cycles (exception -> traceback ->
            # frames -> whoever holds the exception), and a paused
            # world never ages them into a collection.  This run's own
            # are still held by the failure it is about to report; the
            # sweep frees the dead worlds of the failed runs before it.
            gc.collect()
    failure = None
    if failures:
        failures = sorted(failures, key=lambda rf: rf[0])
        failure = RankFailure(failures)
        if check:
            raise failure from failure.cause
    return SpmdResult(
        world, list(results), failure,
        {"backend": "flat", "workers": 0, "pool_threads": 0,
         "shards": [[0, p]], "coarse_switch": False})
