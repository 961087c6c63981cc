"""Zero-thread columnar execution engine (``backend="flat"``).

The thread backend pays O(p) interpreter dispatch per phase: p rank
threads each stepping through tiny numpy calls.  The flat backend keeps
the *world* exactly as it is — real :class:`~repro.mpi.comm.Comm`
handles, per-rank memory trackers, fault plan, tracer — but drives
every rank from one interpreter loop with zero threads.
:class:`ColumnarWorld` is the columnar view of the
:class:`~repro.mpi.world.World` execution protocol: each staged
collective is executed once per communicator — the deposits are
snapshotted in rank order together with the per-rank virtual clocks,
the designated-rank ``compute`` runs a single time, and then the
collective's epilogue is booked on the membership in one loop.

Every piece of bookkeeping is that one loop over the ranks handed in:
clocks overwritten with one ``t + dt`` per distinct ``(size, nbytes)``,
the operation counter ticked, the phase tuples appended.  The tracer
and the fault plan are served inside it — the phase span, the
collective's span and cost split (:meth:`Tracer.collective`), straggler
scaling, each rank's own collective fault verdict and the debt it
folds into the clock — behind ``tracer is not None`` / ``faults is not
None`` tests that cost a plain world nothing; no ``Comm`` call chain is
replayed per rank.  (A rank *thread* runs the ``Comm`` methods —
``_finish_coll``, ``phase``, ``charge`` — through the lane view; the
cross-backend tests compare the two.)  An epilogue that can fail per
rank (the exchanges' memory charges, a lost collective) has one rule:
the rank is recorded as failed and skips the rest of *its* epilogue
exactly where a rank thread would have raised — nobody else's.

Bit-for-bit equivalence with the thread backend falls out of three
properties:

* a collective's virtual time is a pure function of the deposit clocks
  and the LogGP model — :func:`~repro.mpi.comm.collective_charge` is
  the only place those formulas exist and both backends call it, so
  every rank's clock is overwritten with the same ``t + dt`` float;
* counters receive the same increments (``+ 1.0`` per operation) and
  phase brackets the same ``(t0, t1, name)`` tuples in the same
  per-rank order, including the partial time recorded when a
  :class:`FlatAbort` unwinds through a bracket;
* fault verdicts are pure functions of structural position
  (``FaultPlan.collective_penalty(group, seq, rank)``), and the
  per-communicator ``_coll_seq`` counters advance in lockstep, so the
  order in which ranks are booked is immaterial.

Failure semantics mirror the abort protocol: a rank whose epilogue or
charge is refused (simulated OOM, exhausted retries) is recorded in the
:class:`ColumnarWorld` ledger and excluded from further work; ranks
that still have collectives ahead of them observe the abort at their
next collective boundary (:class:`FlatAbort`, the sequential analogue
of :class:`~repro.mpi.errors.SimAbort`), while ranks already past
their last collective complete normally — the same completion pattern
the thread engine produces when a sibling dies.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Sequence

from ..machine import LAPTOP, MachineSpec
from .comm import (
    Comm,
    SimWorld,
    _max_clock,
    collective_charge,
    payload_nbytes,
    split_contexts,
)
from .engine import SpmdResult
from .errors import MessageLostError, RankFailure, RunCancelled
from .world import World

__all__ = [
    "FlatAbort", "ColumnarWorld", "Epilogue", "run_spmd_flat",
    "make_world_comms", "phase_all",
]


class FlatAbort(Exception):
    """A rank failed; in-flight ranks stop at their next collective.

    The columnar driver raises this when a collective is entered with
    failures pending — the sequential analogue of the thread engine's
    abort flag unwinding sibling ranks with ``SimAbort``.  Ranks whose
    remaining work is collective-free (e.g. the final local ordering)
    are *not* aborted, matching the thread engine where such ranks
    never block and therefore complete.
    """


class Epilogue:
    """A collective's epilogue, written once over the ranks it closes over.

    ``whole(shared)`` books it on those ranks and returns their outputs,
    aligned with them: a columnar world hands in a membership and calls
    it once; a lane hands in itself and calls the value as the per-rank
    ``finish(i, comm, shared)`` that :meth:`World.collective` documents.
    Riding inside ``finish`` keeps the ``collective`` signature — worlds
    that wrap it forward the value untouched.  A rank that is refused
    (a memory charge) goes through ``world.fail`` — a lane raises, a
    columnar world records it and leaves it exactly there: later
    statements of that rank's epilogue skipped, ``None`` in its output
    slot, every other rank booked in full.  Ranks already dead (lost in
    this collective's fault verdict) are left out the same way.
    """

    __slots__ = ("whole",)

    def __init__(self, whole: Callable[[Any], list]):
        self.whole = whole

    def __call__(self, i: int, comm: Comm, shared: Any) -> Any:
        return self.whole(shared)[i]


class phase_all:
    """Enter/exit one named phase on many ranks of ``sim`` at once.

    Equivalent to every rank executing ``with comm.phase(name):`` around
    the same region — each rank records its own ``(t0, t1)`` from its
    own clock, including partial time when a :class:`FlatAbort` unwinds
    through the region: one clock snapshot on entry, one loop on exit.
    """

    def __init__(self, sim: SimWorld, comms: Sequence[Comm], name: str):
        self._sim = sim
        self._name = name
        self._granks = [c.grank for c in comms]

    def __enter__(self) -> "phase_all":
        clocks = self._sim.clocks
        self._t0 = [clocks[g] for g in self._granks]
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        sim, name = self._sim, self._name
        clocks, phase_times, traces = sim.clocks, sim.phase_times, sim.traces
        tr = sim.tracer
        for g, t0 in zip(self._granks, self._t0):
            t1 = clocks[g]
            pt = phase_times[g]
            pt[name] = (pt[name] if name in pt else 0.0) + (t1 - t0)
            traces[g].append((t0, t1, name))
            if tr is not None:
                tr.span(g, "phase", name, t0, t1)
        return False


class ColumnarWorld(World):
    """Whole-world view of the execution protocol, plus failure ledger.

    Every ``comms`` argument of a collective must be a communicator's
    full membership in communicator rank order (so list index ``i`` is
    rank ``i`` — ``make_world_comms`` and :meth:`split` both construct
    such lists); phase brackets and the charge verbs take any ranks.
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

    def alive(self, comm: Comm) -> bool:
        return comm.grank not in self.dead

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

    def first_live(self, comms: Sequence[Comm], values: Sequence[Any]) -> Any:
        dead = self.dead
        for c, v in zip(comms, values):
            if c.grank not in dead:
                return v
        raise FlatAbort

    # -- phase brackets ------------------------------------------------
    def phase(self, comms: Sequence[Comm], name: str) -> phase_all:
        self.poll_cancel()
        return phase_all(self.world, comms, name)

    # -- charge verbs --------------------------------------------------
    def charge_compute(self, comms: Sequence[Comm],
                       seconds: Sequence[float]) -> None:
        sim = self.world
        clocks, tr, slowed = sim.clocks, sim.tracer, sim.faults is not None
        for c, s in zip(comms, seconds):
            if s < 0:
                try:  # ``Comm.charge`` words the refusal
                    c.charge(s)
                except ValueError as exc:
                    self.fail(c, exc)
                continue
            g = c.grank
            # a straggler computes slowly (``Comm.charge``)
            scaled = s * c._slowdown if slowed and c._slowdown != 1.0 else s
            clocks[g] += scaled
            if tr is not None:
                tr.add(g, "cost.compute", s)
                if scaled != s:  # the surcharge is fault debt
                    tr.add(g, "cost.fault_debt", scaled - s)

    def alloc(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        mem = self.world.mem
        for c, nb in zip(comms, nbytes):
            try:
                mem[c.grank].alloc(nb)
            except BaseException as exc:  # mirrors the engine's catch-all
                self.fail(c, exc)

    def free(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        mem = self.world.mem
        for c, nb in zip(comms, nbytes):
            try:
                mem[c.grank].free(nb)
            except BaseException as exc:
                self.fail(c, exc)

    def trace_counter(self, comms: Sequence[Comm], name: str,
                      values: Sequence[float]) -> None:
        tr = self.world.tracer
        if tr is not None:
            for c, v in zip(comms, values):
                tr.add(c.grank, name, v)

    # ------------------------------------------------------------------
    # staged collectives, one whole communicator at a time
    # ------------------------------------------------------------------
    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        """Run one staged collective over a communicator's members.

        Mirrors ``Comm.staged`` plus the caller's epilogue: snapshot
        the stage, run the designated-rank ``compute`` once, under a
        fault plan let each rank draw its deterministic collective
        verdict, then book the epilogue — an :class:`Epilogue` in its
        one call, anything else rank by rank.  Per-rank exceptions (a
        lost collective, a refused charge) are recorded, not raised,
        and that rank is left out of the epilogue — the next checked
        collective aborts the world, exactly where thread-backend
        siblings would unwind.
        """
        if check:
            self.check()
        clocks = self.world.clocks
        stage = [(d, clocks[c.grank]) for d, c in zip(deposits, comms)]
        shared = compute(stage)
        f = self.world.faults
        if f is not None and f.affects_collectives:
            for c in comms:
                try:
                    c._charge_collective_faults()
                except MessageLostError as exc:
                    self.fail(c, exc)
        if isinstance(finish, Epilogue):
            return shared, finish.whole(shared)
        dead = self.dead
        outs: list[Any] = [None] * len(comms)
        for i, c in enumerate(comms):
            if c.grank in dead:
                continue
            try:
                outs[i] = finish(i, c, shared)
            except BaseException as exc:  # mirrors the engine's catch-all
                self.fail(c, exc)
        return shared, outs

    def _finish_all(self, comms: Sequence[Comm], name: str, t: float,
                    nbytes: int = 0) -> None:
        """``Comm._finish_coll`` for the live ranks of one communicator
        depositing ``nbytes`` each: one ``t + dt``, clocks overwritten
        (``Comm.set_clock`` where a rank may carry collective fault
        debt), span and cost split traced, operation counter ticked."""
        sim, first = self.world, comms[0]
        dt, lat, counter = collective_charge(sim.cost, name, first.size,
                                             nbytes)
        t1 = t + dt
        clocks, counters, tr = sim.clocks, sim.counters, sim.tracer
        hooked = tr is not None or sim.faults is not None
        dead = self.dead
        for c in comms:
            g = c.grank
            if dead and g in dead:
                continue
            if hooked:
                c0, debt = clocks[g], c._fault_debt
                c.set_clock(t1)  # folds the debt in
                if tr is not None:
                    tr.collective(g, name, c0, clocks[g], t, dt, lat, debt)
            else:
                clocks[g] = t1
            if counter is not None:
                tally = counters[g]
                tally[counter] = (tally[counter] if counter in tally
                                  else 0.0) + 1.0

    # -- collective surface (same epilogues as Comm.barrier/bcast/...) --
    def barrier(self, comms: Sequence[Comm], *, check: bool = True) -> None:
        def whole(t):
            self._finish_all(comms, "barrier", t)
            return [None] * len(comms)

        self.collective(comms, [None] * len(comms), _max_clock,
                        Epilogue(whole), check=check)

    def bcast(self, comms: Sequence[Comm], values: Sequence[Any],
              root: int = 0, *, check: bool = True) -> list:
        def compute(stage):
            v = stage[root][0]
            return v, _max_clock(stage), payload_nbytes(v)

        def whole(shared):
            v, t, nbytes = shared
            self._finish_all(comms, "bcast", t, nbytes)
            return [v] * len(comms)

        _, outs = self.collective(comms, values, compute, Epilogue(whole),
                                  check=check)
        return outs

    def gather(self, comms: Sequence[Comm], values: Sequence[Any],
               root: int = 0, *, check: bool = True) -> list:
        def compute(stage):
            vals = [e[0] for e in stage]
            return vals, _max_clock(stage), max(map(payload_nbytes, vals))

        def whole(shared):
            vals, t, nbytes = shared
            self._finish_all(comms, "gather", t, nbytes)
            outs: list[Any] = [None] * len(comms)
            outs[root] = vals
            return outs

        _, outs = self.collective(comms, values, compute, Epilogue(whole),
                                  check=check)
        return outs

    def allreduce(self, comms: Sequence[Comm], values: Sequence[Any],
                  op: Callable[[Any, Any], Any] | None = None, *,
                  check: bool = True) -> list:
        def compute(stage):
            return Comm._fold(stage, op), _max_clock(stage)

        def whole(shared):
            acc, t = shared
            sizes = list(map(payload_nbytes, values))
            distinct = set(sizes)
            for nbytes in distinct:
                self._finish_all(
                    comms if len(distinct) == 1 else
                    [c for c, s in zip(comms, sizes) if s == nbytes],
                    "allreduce", t, nbytes)
            return [acc] * len(comms)

        _, outs = self.collective(comms, values, compute, Epilogue(whole),
                                  check=check)
        return outs

    def allgather_staged(self, comms: Sequence[Comm],
                         deposits: Sequence[Any],
                         compute_objs: Callable[[list], Any], *,
                         check: bool = True) -> list:
        def compute(stage):
            objs = [e[0] for e in stage]
            return (compute_objs(objs), _max_clock(stage),
                    max(map(payload_nbytes, objs)))

        def whole(shared):
            val, t, nbytes = shared
            self._finish_all(comms, "allgather", t, nbytes)
            return [val] * len(comms)

        _, outs = self.collective(comms, deposits, compute, Epilogue(whole),
                                  check=check)
        return outs

    def allgather(self, comms: Sequence[Comm], values: Sequence[Any],
                  *, check: bool = True) -> list:
        outs = self.allgather_staged(comms, values, lambda vals: vals,
                                     check=check)
        return [None if o is None else list(o) for o in outs]

    def split(self, comms: Sequence[Comm], colors: Sequence[Any],
              keys: Sequence[int] | None = None, *,
              check: bool = True) -> list:
        """Split one communicator; per-rank child ``Comm`` (or ``None``)."""
        ctx = comms[0]._ctx
        world = comms[0]._world
        deposits = [(colors[i], comms[i].rank if keys is None else keys[i])
                    for i in range(len(comms))]

        def compute(stage):
            return split_contexts(stage, ctx, world), _max_clock(stage)

        def whole(shared):
            # children built per new context, in its rank order, instead
            # of one ``group.index`` search per parent rank
            contexts, t = shared
            self._finish_all(comms, "split", t)
            slot = {c.grank: i for i, c in enumerate(comms)}
            outs: list[Any] = [None] * len(comms)
            for newctx in contexts.values():
                for r in range(newctx.size):
                    child = Comm(world, newctx, r)
                    outs[slot[child.grank]] = child
            return outs

        _, outs = self.collective(comms, deposits, compute, Epilogue(whole),
                                  check=check)
        return outs

    def alltoallv(self, comms: Sequence[Comm], sends: Sequence[Any],
                  *, check: bool = True) -> list:
        """Columnar MPI_Alltoallv: one size-matrix scan, p epilogues."""
        deposits = []
        for i, c in enumerate(comms):
            batches = sends[i]
            if len(batches) != c.size:
                raise ValueError(
                    f"alltoallv needs {c.size} batches, got {len(batches)}")
            deposits.append((list(batches), [b.nbytes for b in batches]))

        def compute(stage):
            return Comm._size_scan(stage), stage

        def finish(i, c, shared):
            scan, stage = shared
            received = [stage[src][0][0][c.rank] for src in range(c.size)]
            c._finish_alltoallv(scan, stage[i][0][1])
            return received

        _, outs = self.collective(comms, deposits, compute, finish,
                                  check=check)
        return outs

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
        outs: list[Any] = [None] * len(comms)
        for i, c in enumerate(comms):
            if not self.alive(c):
                continue
            try:
                c.send(objs[i], peers[i], tag)
            except BaseException as exc:
                self.fail(c, exc)
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
    # the SimWorld dies with this call: its per-rank ledgers are handed
    # to the result as they are, nobody else holds them
    return SpmdResult(
        p=p,
        results=list(results),
        clocks=world.clocks,
        phase_times=world.phase_times,
        counters=world.counters,
        mem_peaks=[m.peak for m in world.mem],
        failure=failure,
        traces=world.traces,
        extras={"backend": "flat", "workers": 0, "pool_threads": 0,
                "shards": [[0, p]], "coarse_switch": False},
    )
