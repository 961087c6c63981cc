"""Zero-thread columnar execution engine (``backend="flat"``).

The thread backend pays O(p) interpreter dispatch per phase: p rank
threads each stepping through tiny numpy calls.  The flat backend keeps the *world* exactly as it is —
real :class:`~repro.mpi.comm.Comm` handles, per-rank memory trackers,
fault hooks, tracer — but drives every rank from one interpreter loop
with zero threads.  :class:`ColumnarWorld` is the columnar view of the
:class:`~repro.mpi.world.World` execution protocol: each staged
collective is executed once per communicator — the deposits are
snapshotted in rank order together with the per-rank virtual clocks,
the designated-rank ``compute`` runs a single time, and then every
rank's published epilogue (``Comm._finish_*``) is replayed in rank
order.

Bit-for-bit equivalence with the thread backend falls out of two
properties the staged protocol already has:

* a collective's virtual time is a pure function of the deposit clocks
  and the LogGP model — the ``_finish_*`` helpers in ``comm.py`` are
  the only place those formulas exist, and both engines call them;
* fault verdicts are pure functions of structural position
  (``FaultPlan.collective_penalty(group, seq, rank)``), and the
  per-communicator ``_coll_seq`` counters advance in lockstep, so the
  order in which rank epilogues run is immaterial.

Failure semantics mirror the abort protocol: a rank whose epilogue
raises (simulated OOM, exhausted retries) is recorded in the
:class:`ColumnarWorld` ledger and excluded from further work; ranks
that still have collectives ahead of them observe the abort at their
next collective boundary (:class:`FlatAbort`, the sequential analogue
of :class:`~repro.mpi.errors.SimAbort`), while ranks already past
their last collective complete normally — the same completion pattern
the thread engine produces when a sibling dies.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..machine import LAPTOP, MachineSpec
from .comm import Comm, SimWorld, _max_clock, payload_nbytes, split_contexts
from .engine import SpmdResult
from .errors import RankFailure, RunCancelled
from .world import World

__all__ = [
    "FlatAbort", "ColumnarWorld", "run_spmd_flat", "make_world_comms",
    "seed_rpn", "phase_all",
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


class phase_all:
    """Enter/exit one named phase on many ``Comm`` handles at once.

    Equivalent to every rank executing ``with comm.phase(name):`` around
    the same region — each handle's context manager records its own
    ``(t0, t1)`` from its own clock, including partial time when a
    :class:`FlatAbort` unwinds through the region.
    """

    def __init__(self, comms: Sequence[Comm], name: str):
        self._cms = [c.phase(name) for c in comms]

    def __enter__(self) -> "phase_all":
        for cm in self._cms:
            cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for cm in self._cms:
            cm.__exit__(exc_type, exc, tb)
        return False


class ColumnarWorld(World):
    """Whole-world view of the execution protocol, plus failure ledger.

    Every ``comms`` argument must be a communicator's full membership
    in communicator rank order (so list index ``i`` is rank ``i`` —
    ``make_world_comms`` and :meth:`split` both construct such lists).
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

    def _poll_cancel(self) -> None:
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
        self._poll_cancel()
        if self.failures:
            raise FlatAbort

    def first_live(self, comms: Sequence[Comm], values: Sequence[Any]) -> Any:
        for c, v in zip(comms, values):
            if self.alive(c):
                return v
        raise FlatAbort

    # -- phase brackets ------------------------------------------------
    def phase(self, comms: Sequence[Comm], name: str) -> phase_all:
        self._poll_cancel()
        return phase_all(comms, name)

    # ------------------------------------------------------------------
    # staged collectives, one whole communicator at a time
    # ------------------------------------------------------------------
    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        """Run one staged collective over a communicator's members.

        Mirrors ``Comm.staged`` plus the caller's epilogue: snapshot
        the stage, run the designated-rank ``compute`` once, then per
        rank (in rank order) charge the deterministic collective fault
        debt and run ``finish(i, comm, shared)``.  Per-rank exceptions
        are recorded, not raised — the next checked collective aborts
        the world, exactly where thread-backend siblings would unwind.
        """
        if check:
            self.check()
        stage = [(deposits[i], c.clock) for i, c in enumerate(comms)]
        shared = compute(stage)
        outs: list[Any] = [None] * len(comms)
        for i, c in enumerate(comms):
            try:
                f = c._faults
                if f is not None and f.affects_collectives:
                    c._charge_collective_faults()
                outs[i] = finish(i, c, shared)
            except BaseException as exc:  # mirrors the engine's catch-all
                self.fail(c, exc)
        return shared, outs

    # -- collective surface (same epilogues as Comm.barrier/bcast/...) --
    def barrier(self, comms: Sequence[Comm], *, check: bool = True) -> None:
        self.collective(comms, [None] * len(comms), _max_clock,
                        lambda i, c, t: c._finish_barrier(t), check=check)

    def bcast(self, comms: Sequence[Comm], values: Sequence[Any],
              root: int = 0, *, check: bool = True) -> list:
        def compute(stage):
            v = stage[root][0]
            return v, _max_clock(stage), payload_nbytes(v)

        def finish(i, c, shared):
            v, t, nbytes = shared
            c._finish_tree_coll("bcast", t, nbytes)
            return v

        _, outs = self.collective(comms, values, compute, finish, check=check)
        return outs

    def gather(self, comms: Sequence[Comm], values: Sequence[Any],
               root: int = 0, *, check: bool = True) -> list:
        def compute(stage):
            vals = [e[0] for e in stage]
            return vals, _max_clock(stage), max(map(payload_nbytes, vals))

        def finish(i, c, shared):
            vals, t, nbytes = shared
            c._finish_tree_coll("gather", t, nbytes)
            return vals if c.rank == root else None

        _, outs = self.collective(comms, values, compute, finish, check=check)
        return outs

    def allreduce(self, comms: Sequence[Comm], values: Sequence[Any],
                  op: Callable[[Any, Any], Any] | None = None, *,
                  check: bool = True) -> list:
        def compute(stage):
            return Comm._fold(stage, op), _max_clock(stage)

        def finish(i, c, shared):
            acc, t = shared
            c._finish_tree_coll("allreduce", t, payload_nbytes(values[i]))
            return acc

        _, outs = self.collective(comms, values, compute, finish, check=check)
        return outs

    def allgather_staged(self, comms: Sequence[Comm],
                         deposits: Sequence[Any],
                         compute_objs: Callable[[list], Any], *,
                         check: bool = True) -> list:
        def compute(stage):
            objs = [e[0] for e in stage]
            return (compute_objs(objs), _max_clock(stage),
                    max(map(payload_nbytes, objs)))

        def finish(i, c, shared):
            val, t, nbytes = shared
            c._finish_allgather(t, nbytes)
            return val

        _, outs = self.collective(comms, deposits, compute, finish,
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

        def finish(i, c, shared):
            contexts, t = shared
            c._finish_split(t)
            color = colors[i]
            newctx = contexts.get(color) if color is not None else None
            if newctx is None:
                return None
            return Comm(world, newctx, newctx.group.index(c.grank))

        _, outs = self.collective(comms, deposits, compute, finish,
                                  check=check)
        _seed_children(outs)
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


def _seed_children(children: Sequence[Comm | None]) -> None:
    by_ctx: dict[int, list[Comm]] = {}
    for child in children:
        if child is not None:
            by_ctx.setdefault(id(child._ctx), []).append(child)
    for group in by_ctx.values():
        seed_rpn(group)


# ----------------------------------------------------------------------
# world construction + engine entry point
# ----------------------------------------------------------------------

def seed_rpn(comms: Sequence[Comm]) -> None:
    """Vectorised fill of the per-Comm ``ranks_per_node`` cache.

    The lazy O(group) scan in ``Comm.ranks_per_node`` is fine when each
    rank thread does it once, but turns O(p^2) when the flat driver
    holds p handles to the world communicator — one ``bincount`` seeds
    them all instead.
    """
    if not comms:
        return
    world = comms[0]._world
    granks = np.fromiter((c.grank for c in comms), dtype=np.int64,
                         count=len(comms))
    nodes = granks // world.machine.cores_per_node
    rpn = np.bincount(nodes)[nodes]
    for c, r in zip(comms, rpn):
        c._rpn = int(r)


def make_world_comms(world: SimWorld) -> list[Comm]:
    """One ``Comm`` handle per world rank, rank order, rpn pre-seeded."""
    comms = [Comm(world, world.world_ctx, r) for r in range(world.p)]
    seed_rpn(comms)
    return comms


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
    results, failures = flat(comms, *args, **(kwargs or {}))
    failure = None
    if failures:
        failures = sorted(failures, key=lambda rf: rf[0])
        failure = RankFailure(failures)
        if check:
            raise failure from failure.cause
    return SpmdResult(
        p=p,
        results=list(results),
        clocks=list(world.clocks),
        phase_times=[dict(pt) for pt in world.phase_times],
        counters=[dict(c) for c in world.counters],
        mem_peaks=[m.peak for m in world.mem],
        failure=failure,
        traces=[list(t) for t in world.traces],
        extras={"backend": "flat", "workers": 0, "pool_threads": 0,
                "shards": [[0, p]], "coarse_switch": False},
    )
