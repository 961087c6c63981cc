"""The ``World`` execution protocol: every verb once, two rendezvous.

Phase strategies, pivot selectors and sort drivers are written in
*world form*: a function of ``(world, comms, ...)`` where ``comms`` is
a list of :class:`~repro.mpi.comm.Comm` handles and every per-rank
value travels as a list aligned with it.  :class:`World` carries the
whole surface, each verb written once over the ranks handed in:

* the phase bracket (:class:`phase_all`) and the charge verbs
  (``charge_compute`` / ``alloc`` / ``free`` / ``trace_counter``: one
  call books modelled compute time, memory or a tracer counter on every
  rank of ``comms``);
* the collectives — ``barrier`` / ``bcast`` / ``gather`` /
  ``allreduce`` / ``allgather(_staged)`` / ``split`` / ``alltoallv``, and
  ``node_funnel`` (Section 2.3's node split, leaders' split and node
  gathers in one rendezvous) — each a
  ``collective(comms, deposits, compute, finish)`` whose
  designated-rank ``compute`` sees the staged ``(deposit, clock)`` of
  the *whole communicator* once and whose epilogue books ``comms``
  (:meth:`World._finish_all`: cost from
  :func:`~repro.mpi.comm.collective_charge`, clock overwrite, tracer
  span and cost split, fault debt, operation counter) — the debt left
  by :meth:`World.charge_collective_faults`.

What a view adds is how ranks meet and what a failure does:

* :class:`LaneWorld` — **one rank of many threads**.  ``comms`` is that
  rank alone; ``collective`` meets the sibling rank threads in
  :meth:`Comm.staged <repro.mpi.comm.Comm.staged>` and then books its
  one rank, ``sendrecv`` blocks on the rank's channel, and a failure is
  raised where it happens.  The per-rank mpi4py-style API of ``Comm``
  (``comm.bcast(obj)``) is this view over ``(comm,)``.
* :class:`~repro.mpi.flatworld.ColumnarWorld` — **the whole world, no
  threads**.  ``comms`` is a communicator's membership in rank order;
  ``collective`` snapshots the stage itself and books everybody at once.
  Failures go to a ledger, the failed rank is left out of later
  bookkeeping, and the world aborts
  (:class:`~repro.mpi.errors.FlatAbort`) at the next checked collective.

A verb books the world's ledger columns (:class:`~repro.mpi.comm.SimWorld`)
with one array statement per ledger, indexed by the ranks' global
ranks (:func:`members`); a lane runs the same statements on one int.
Every statement is elementwise, so both views evaluate the same float
operations: clocks, phase breakdowns, counters, memory peaks and traces
are bit-for-bit identical across backends.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from .cells import Cuts, alltoallv_cells
from .comm import (Comm, _max_clock, collective_charge, payload_nbytes,
                   payload_sizes)
from .errors import FlatAbort, MessageLostError, SimAbort

__all__ = ["World", "LaneWorld", "LANE", "Epilogue", "phase_all",
           "members", "per_rank", "values_at"]


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


def members(comms: Sequence[Comm]) -> tuple[Any, Any, Any]:
    """``(at, ranks, pos)``: the global ranks of ``comms`` (their ledger
    index), communicator ranks and positions — ints for one rank, so a
    lane builds no array; a whole membership reads its group's index."""
    first = comms[0]
    if len(comms) == 1:
        return first.grank, first.rank, 0
    pos, ctx = np.arange(len(comms)), first._ctx
    if len(comms) == ctx.size and first.rank == 0 and comms[-1]._ctx is ctx:
        return ctx.index, pos, pos
    return (np.array([c.grank for c in comms]),
            np.array([c.rank for c in comms]), pos)


def per_rank(*cols: Any) -> list[list]:
    """Columns as lists of Python values, for per-rank hooks to zip."""
    return [np.atleast_1d(col).tolist() for col in cols]


def values_at(at: Any, values: Sequence[Any]) -> Any:
    """Per-rank ``values`` shaped like ``at``: one value, or an array."""
    return values[0] if type(at) is int else np.asarray(values)


def _charges(cost: Any, name: str, size: Any, nbytes: Any) -> tuple:
    """:func:`~repro.mpi.comm.collective_charge` of a ``size``-rank
    communicator, or, where ``size`` or ``nbytes`` is a column, ``(dt,
    lat)`` columns over ranks of many, evaluated once per distinct
    ``(size, nbytes)``."""
    if np.ndim(size) == 0 and np.ndim(nbytes) == 0:
        return collective_charge(cost, name, int(size), int(nbytes))
    (sizes, s), (nbs, b) = (np.unique(col, return_inverse=True)
                            for col in np.broadcast_arrays(size, nbytes))
    pairs, inv = np.unique(s * nbs.size + b, return_inverse=True)
    charges = [collective_charge(cost, name, *kind) for kind in zip(
        sizes[pairs // nbs.size].tolist(), nbs[pairs % nbs.size].tolist())]
    dt, lat = np.array([c[:2] for c in charges]).T[:, inv]
    return dt, lat, charges[0][2]


def _next_seq(comms: Sequence[Comm]) -> int:
    """Number of the collective ``comms`` enter next (ranks of one
    communicator, in lockstep), counted on each of them: a lane writes
    only its own entry of the context's ``seq`` column."""
    first = comms[0]
    seq = first._ctx.seq.item(first.rank)
    first._ctx.seq[members(comms)[1]] = seq + 1
    return seq


def _debt(cost: Any, pen: Any, size: int) -> float:
    """Clock debt of one collective fault verdict on a ``size``-rank
    communicator: detection timeouts, resends, re-synchronisations."""
    debt = pen.detect_seconds
    if pen.resend_messages:
        debt += pen.resend_messages * cost.p2p_time(0)
    if pen.resync_rounds:
        debt += pen.resync_rounds * cost.barrier_time(size)
    return debt


class phase_all:
    """Enter/exit one named phase on many ranks of one world at once.

    Each rank records its own ``(t0, t1)`` from its own clock —
    including partial time when an exception unwinds through the
    region — into its phase times, the world's bracket records and the
    tracer: one clock read on entry, one on exit.  No rank, nothing
    booked.
    """

    def __init__(self, comms: Sequence[Comm], name: str):
        self._comms, self._name = comms, name

    def __enter__(self) -> "phase_all":
        if self._comms:
            self._sim = self._comms[0]._world
            self._at = members(self._comms)[0]
            self._t0 = self._sim.clock[self._at]
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._comms:
            return False
        sim, at, t0, name = self._sim, self._at, self._t0, self._name
        t1 = sim.clock[at]
        sim.phase_times.add(at, name, t1 - t0)
        sim.traces.append((at, t0, t1, name))
        if sim.tracer is not None:
            sim.tracer.span(at, "phase", name, t0, t1)
        return False


class World:
    """Execution view a phase implementation runs against.

    Per-rank values are lists aligned with ``comms``; collective
    results come back the same way (``None`` in slots whose rank is
    dead or excluded, e.g. off-root gathers).  The ``comms`` of a
    collective are ranks of one communicator — all of it, in rank
    order, or one lane; phase brackets and the charge verbs take any
    ranks of one world, in rank order, or none.  ``check=False`` skips
    the abort point at collective entry (for collectives that are
    entered per sub-group, where only the first may abort).

    A view supplies :meth:`collective`, :meth:`sendrecv` and
    :meth:`fail`; one that records failures also keeps ``failures`` and
    ``dead`` and overrides :meth:`check`.
    """

    #: Failure ledger ``[(global_rank, exception), ...]`` of this run.
    failures: Sequence[tuple[int, BaseException]] = ()
    #: Global ranks that failed: every epilogue leaves them out.
    dead: Any = frozenset()

    # -- fault / abort surface -----------------------------------------
    def alive(self, comm: Comm) -> bool:
        return comm.grank not in self.dead

    def fail(self, comm: Comm, exc: BaseException) -> None:
        """Record (columnar) or raise (lane) a per-rank failure."""
        raise NotImplementedError

    def each(self, comms: Sequence[Comm],
             fn: Callable[[int, Comm], Any]) -> list:
        """``fn(i, comms[i])`` on every live rank, in order: the
        per-rank failure rule.  A rank whose call raises fails alone
        (:meth:`fail`: recorded, or raised by a lane); its slot of the
        returned list, like a dead rank's, is ``None``."""
        outs: list[Any] = [None] * len(comms)
        dead = self.dead
        for i, c in enumerate(comms):
            if c.grank in dead:
                continue
            try:
                outs[i] = fn(i, c)
            except BaseException as exc:  # whatever a rank thread dies of
                self.fail(c, exc)
        return outs

    def check(self) -> None:
        """Abort point: entering a collective with failures pending."""

    def first_live(self, comms: Sequence[Comm], values: Sequence[Any]) -> Any:
        """``values`` entry of the first surviving rank."""
        dead = self.dead
        for c, v in zip(comms, values):
            if c.grank not in dead:
                return v
        raise FlatAbort

    def _refuse(self, comms: Sequence[Comm], refused: list, *cols: Any
                ) -> tuple:
        """Fail ``comms[i]`` for every refusal ``(i, exc)`` — a lane
        raises — and return the others, with their aligned columns (a
        scalar column stands for one value on every rank)."""
        if not refused:
            return (comms, *cols)
        keep = np.ones(len(comms), dtype=bool)
        for i, exc in refused:
            keep[i] = False
            if exc is not None:
                self.fail(comms[i], exc)
        return ([c for c, k in zip(comms, keep.tolist()) if k],
                *(np.broadcast_to(col, keep.shape)[keep] for col in cols))

    def _live(self, comms: Sequence[Comm], *cols: Any) -> tuple:
        """``comms`` without the dead ranks, with their aligned columns."""
        dead = self.dead
        return self._refuse(comms, [(i, None) for i, c in enumerate(comms)
                                    if c.grank in dead] if dead else [],
                            *cols)

    # -- phase brackets ------------------------------------------------
    def phase(self, comms: Sequence[Comm], name: str) -> phase_all:
        """Context manager bracketing one named phase on every rank."""
        return phase_all(comms, name)

    # -- charge verbs --------------------------------------------------
    # A rank whose charge is refused (negative time, simulated OOM)
    # fails through :meth:`fail`, alone, and is left where it stood.
    def charge_compute(self, comms: Sequence[Comm],
                       seconds: Sequence[float]) -> None:
        """Advance every rank's clock by its modelled compute cost."""
        if not comms:
            return
        sim, at = comms[0]._world, members(comms)[0]
        s = values_at(at, seconds)
        neg = s < 0
        if neg if type(at) is int else neg.any():
            comms, at, s = self._refuse(comms, [
                (i, ValueError("cannot charge negative time"))
                for i in np.flatnonzero(neg).tolist()], at, s)
        scaled = (s * sim.slowdown[at]  # stragglers
                  if sim.slowdown is not None else s)
        sim.clock[at] += scaled
        tr = sim.tracer
        if tr is not None:
            tr.add(at, "cost.compute", s)
            # the straggler surcharge is fault debt
            tr.add(at, "cost.fault_debt", scaled - s, scaled != s)

    def alloc(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        """``comm.mem.alloc(nbytes[i])`` on every rank."""
        if comms:
            at = members(comms)[0]
            self._refuse(comms, comms[0]._world.mem.alloc(
                at, values_at(at, nbytes)))

    def free(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        """``comm.mem.free(nbytes[i])`` on every rank."""
        if comms:
            at = members(comms)[0]
            self._refuse(comms, comms[0]._world.mem.free(
                at, values_at(at, nbytes)))

    def trace_counter(self, comms: Sequence[Comm], name: str,
                      values: Sequence[float]) -> None:
        """Accumulate a tracer counter on every rank (no-op untraced)."""
        tr = comms[0]._world.tracer if comms else None
        if tr is not None:
            at = members(comms)[0]
            tr.add(at, name, values_at(at, values))

    # -- staged collectives --------------------------------------------
    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        """One staged collective: deposit, designated compute, epilogue.

        ``compute(stage)`` sees the communicator's ``[(deposit, clock),
        ...]`` once; ``finish(i, comm, shared)`` is the epilogue of
        ``comms[i]`` (an :class:`Epilogue` books all of ``comms`` in its
        one call).  Returns ``(shared, outs)``.
        """
        raise NotImplementedError

    def charge_collective_faults(self, comms: Sequence[Comm]) -> None:
        """One collective's fault debt (drops + transients) on ``comms``,
        ranks of one communicator in lockstep (:func:`_next_seq`): the
        plan's verdicts drawn in one pass and booked
        (:meth:`_book_penalties`)."""
        first = comms[0]
        seq = _next_seq(comms)
        self._book_penalties(comms, first._world.faults.collective_penalties(
            first._ctx.group, seq, [c.rank for c in comms]), seq, first.size)

    def _book_penalties(self, comms: Sequence[Comm], pens: Sequence[Any],
                        seq: int, size: Any) -> None:
        """Book the collective verdicts ``pens`` (aligned with ``comms``)
        of the ``seq``-th collective of a ``size``-rank communicator
        (per rank, or one for all): each debt added to the rank's entry
        of ``SimWorld.debt``, which the collective's clock overwrite
        settles (:meth:`SimWorld.set_clocks`), a lost collective failed."""
        sim = comms[0]._world
        plan = sim.faults
        for c, pen, n in zip(comms, pens, np.broadcast_to(
                size, len(comms)).tolist()):
            if pen is None:
                continue
            g = c.grank
            if pen.lost:
                self.fail(c, MessageLostError(
                    f"collective #{seq} on a {n}-rank communicator: rank "
                    f"{g} exhausted {plan.spec.retry.max_retries} retries"))
                continue
            debt = _debt(sim.cost, pen, n)
            if pen.resend_messages:
                c.count("faults.coll_msg_dropped", pen.dropped)
                c.trace_instant("fault", "coll_msg_dropped",
                                {"seq": seq, "dropped": pen.dropped})
            if pen.resync_rounds:
                c.count("faults.coll_transient", pen.resync_rounds)
                c.trace_instant("fault", "coll_transient",
                                {"seq": seq, "rounds": pen.resync_rounds})
            sim.debt[g] += debt
            c.count("retry.time", debt)

    def _finish_all(self, comms: Sequence[Comm], name: str, t: Any,
                    nbytes: Any = 0, size: Any = None) -> None:
        """Book the collective ``name`` on the live ranks of ``comms``,
        members of one communicator that deposited ``nbytes`` each: one
        ``t + dt``, clocks overwritten (:meth:`SimWorld.set_clocks`, which
        settles their fault debt), span and cost split traced,
        operation counter ticked.  ``t``, ``nbytes`` and ``size`` (the
        communicator's by default) may instead be columns aligned with
        ``comms``: ranks of many communicators booked at once, the cost
        evaluated once per distinct ``(size, nbytes)``."""
        first = comms[0]
        sim = first._world
        dt, lat, counter = (
            collective_charge(sim.cost, name, first.size, nbytes)
            if size is None else _charges(sim.cost, name, size, nbytes))
        t1 = t + dt
        _, at, t, t1, dt, lat = self._live(comms, members(comms)[0],
                                           t, t1, dt, lat)
        tr = sim.tracer
        c0 = sim.clock[at] if tr is not None else None
        debt = sim.set_clocks(at, t1)
        if tr is not None:
            tr.collective(at, name, c0, sim.clock[at], t, dt, lat, debt)
        if counter is not None:
            sim.counters.add(at, counter, 1.0)

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

        return self.collective(comms, values, compute, Epilogue(whole),
                               check=check)[1]

    def gather(self, comms: Sequence[Comm], values: Sequence[Any],
               root: int = 0, *, check: bool = True) -> list:
        def compute(stage):
            vals = [e[0] for e in stage]
            return vals, _max_clock(stage), max(payload_sizes(vals))

        def whole(shared):
            vals, t, nbytes = shared
            self._finish_all(comms, "gather", t, nbytes)
            return [vals if c.rank == root else None for c in comms]

        return self.collective(comms, values, compute, Epilogue(whole),
                               check=check)[1]

    def allreduce(self, comms: Sequence[Comm], values: Sequence[Any],
                  op: Callable[[Any, Any], Any] | None = None, *,
                  check: bool = True) -> list:
        """All-reduce with a deterministic rank-order reduction."""
        def compute(stage):
            return Comm._fold(stage, op), _max_clock(stage)

        def whole(shared):
            acc, t = shared
            sizes = payload_sizes(values)
            distinct = set(sizes)
            for nbytes in distinct:
                self._finish_all(
                    comms if len(distinct) == 1 else
                    [c for c, s in zip(comms, sizes) if s == nbytes],
                    "allreduce", t, nbytes)
            return [acc] * len(comms)

        return self.collective(comms, values, compute, Epilogue(whole),
                               check=check)[1]

    def allgather_staged(self, comms: Sequence[Comm],
                         deposits: Sequence[Any],
                         compute_objs: Callable[[list], Any], *,
                         check: bool = True) -> list:
        """Allgather-accounted collective whose ranks all receive
        ``compute_objs(objs)``, evaluated once on the deposits."""
        def compute(stage):
            objs = [e[0] for e in stage]
            return (compute_objs(objs), _max_clock(stage),
                    max(payload_sizes(objs)))

        def whole(shared):
            val, t, nbytes = shared
            self._finish_all(comms, "allgather", t, nbytes)
            return [val] * len(comms)

        return self.collective(comms, deposits, compute, Epilogue(whole),
                               check=check)[1]

    def allgather(self, comms: Sequence[Comm], values: Sequence[Any],
                  *, check: bool = True) -> list:
        outs = self.allgather_staged(comms, values, lambda vals: vals,
                                     check=check)
        # a private list per rank; the elements stay shared
        return [None if o is None else list(o) for o in outs]

    def split(self, comms: Sequence[Comm], colors: Sequence[Any],
              keys: Sequence[int] | None = None, *,
              check: bool = True) -> list:
        """MPI_Comm_split: per-rank child ``Comm``, members ordered by
        ``(key, rank)``; ``None`` for a rank whose color is ``None``."""
        ctx, sim = comms[0]._ctx, comms[0]._world
        deposits = [(col, c.rank if keys is None else keys[i])
                    for i, (c, col) in enumerate(zip(comms, colors))]

        def compute(stage):
            groups: dict[Any, list[tuple[int, int]]] = {}
            for r, ((col, k), _t) in enumerate(stage):
                if col is not None:
                    groups.setdefault(col, []).append((k, r))
            # where every member went, so that an epilogue finds its
            # ranks' seats without searching the new groups
            seats: dict[int, tuple[Any, int]] = {}
            for _col, members in sorted(groups.items()):
                members.sort()
                newctx = sim.make_context([ctx.group[r] for _, r in members])
                for rank, g in enumerate(newctx.group):
                    seats[g] = (newctx, rank)
            return seats, _max_clock(stage)

        def whole(shared):
            seats, t = shared
            self._finish_all(comms, "split", t)
            return [Comm(sim, *seats[c.grank]) if c.grank in seats else None
                    for c in comms]

        return self.collective(comms, deposits, compute, Epilogue(whole),
                               check=check)[1]

    def node_funnel(self, comms: Sequence[Comm],
                    values: Sequence[Any]) -> list:
        """Funnel every node onto its leader (Section 2.3, Figure 1 lines
        3-7): SdssRefineComm plus a gather, fused into one collective.

        Booked on every rank as the three collectives it stands for, in
        their order: the split into node communicators (the nodes of
        :meth:`~repro.mpi.comm.SimWorld.node_layout`, members in rank
        order), the split of every node's first rank into the leaders'
        communicator, and a gather of each node's ``values`` at its
        leader — their clocks, counters, spans and fault verdicts (a
        node's gather is collective #0 of its communicator); a rank lost
        in a split aborts the world where the next would have.  Only the
        leaders' communicator is built, and a node's memory is the
        node's: a leader's capacity becomes the sum of its node's.
        Returns, aligned with ``comms``, ``(leaders' Comm, the node's
        values in rank order)`` on a leader, ``None`` elsewhere.
        """
        first = comms[0]
        sim, ctx, size = first._world, first._ctx, first.size
        plan = sim.faults
        if plan is not None and not plan.affects_collectives:
            plan = None
        dt = collective_charge(sim.cost, "split", size)[0]

        def compute(stage):
            # the node split: members grouped by node, in rank order
            node = np.asarray(sim.node_layout(ctx)[0])
            order = np.argsort(node, kind="stable")
            starts = np.flatnonzero(np.diff(node[order], prepend=-1))
            ends = np.append(starts[1:], size)
            node_of = np.empty(size, dtype=np.intp)
            node_of[order] = np.repeat(np.arange(starts.size), ends - starts)
            # the leaders' split: every node's first rank, in rank order
            heads = np.sort(order[starts])
            seat = np.full(size, -1)
            seat[heads] = np.arange(heads.size)
            # the gathers: every node's deposits, in rank order
            vals = [e[0] for e in stage]
            by_node = [vals[i] for i in order.tolist()]
            nbytes = np.maximum.reduceat(np.array(
                payload_sizes(vals), dtype=np.int64)[order], starts)
            # a split leaves each rank at its release + dt + its fault
            # debt, so under a plan every verdict is drawn here, for the
            # whole membership: a lane's gather waits for its node-mates
            pens, lost, debts = None, (False, False), np.zeros((2, size))
            if plan is not None:
                seq = ctx.seq.item(first.rank)
                pens = [plan.collective_penalties(ctx.group, seq + j,
                                                  range(size))
                        for j in (0, 1)]
                lost = tuple(any(pen is not None and pen.lost for pen in ps)
                             for ps in pens)
                debts = np.array([[0.0 if pen is None or pen.lost
                                   else _debt(sim.cost, pen, size)
                                   for pen in ps] for ps in pens])
                gathers: list = [None] * size
                for a, b in zip(starts.tolist(), ends.tolist()):
                    ranks = order[a:b].tolist()
                    for r, pen in zip(ranks, plan.collective_penalties(
                            tuple(ctx.group[r] for r in ranks), 0,
                            range(b - a))):
                        gathers[r] = pen
                pens.append(gathers)
            t = _max_clock(stage)
            t2 = ((t + dt) + debts[0]).max().item()
            return {"t": t, "t2": t2, "t3": np.maximum.reduceat(
                        ((t2 + dt) + debts[1])[order], starts),
                    "node_of": node_of, "sizes": ends - starts,
                    "nbytes": nbytes, "pens": pens, "lost": lost,
                    "seat": seat, "pooled": sim.mem.pool(ctx.index[order],
                                                         starts),
                    "leaders": sim.make_context(
                        ctx.index[heads].tolist()),
                    "gathered": [by_node[a:b] for a, b in zip(
                        starts.tolist(), ends.tolist())]}

        def whole(sh):
            ranks = members(comms)[1]
            pens = sh["pens"]
            mine = per_rank(ranks)[0] if pens is not None else ()
            self._finish_all(comms, "split", sh["t"])  # the node split
            if sh["lost"][0]:
                self._abort_after_loss()
            if pens is not None:  # the parent's next collective
                self._book_penalties(comms, [pens[1][r] for r in mine],
                                     _next_seq(comms), size)
            self._finish_all(comms, "split", sh["t2"])  # the leaders' split
            if sh["lost"][1]:
                self._abort_after_loss()
            k = sh["node_of"][ranks]
            n = sh["sizes"][k]
            if pens is not None:  # collective #0 of each node's communicator
                self._book_penalties(comms, [pens[2][r] for r in mine], 0, n)
            self._finish_all(comms, "gather", sh["t3"][k], sh["nbytes"][k], n)
            outs: list = [None] * len(comms)
            ranks = np.atleast_1d(ranks)
            lead = np.flatnonzero(sh["seat"][ranks] >= 0)
            for i, r in zip(lead.tolist(), ranks[lead].tolist()):
                sim.mem.capacity[comms[i].grank] = sh["pooled"][sh["node_of"][r]]
                outs[i] = (Comm(sim, sh["leaders"], int(sh["seat"][r])),
                           sh["gathered"][sh["node_of"][r]])
            return outs

        return self.collective(comms, values, compute, Epilogue(whole))[1]

    def _abort_after_loss(self) -> None:
        """Stop a fused collective's epilogue where the next collective
        it stands for would have aborted after a lost rank: a columnar
        world at that collective's entry check, a lane (whose lost
        sibling raised) in that collective's barrier."""
        self.check()
        raise SimAbort("world aborted by a failing rank")

    def alltoallv(self, comms: Sequence[Comm], batches: Sequence[Any],
                  cuts: Sequence[Cuts], *, check: bool = True) -> list:
        """MPI_Alltoallv: rank ``i`` sends ``batches[i]`` cut at
        ``cuts[i]`` (its non-empty buckets, spanning the batch); returns
        per-rank lists of the non-empty chunks received, in source
        order — views of the senders' batches, O(cells) a rank."""
        p = comms[0].size

        def whole(shared):
            self._book_alltoallv(comms, shared)
            src, first, cnt, cell, sent = (shared[k] for k in (
                "src", "first", "cnt", "cell", "batches"))
            outs: list = []
            for c in comms:
                if not self.alive(c):
                    outs.append(None)
                    continue
                lo, hi = cell[c.rank], cell[c.rank + 1]
                outs.append([sent[s].slice(f, e) for s, f, e in zip(
                    src[lo:hi].tolist(), first[lo:hi].tolist(),
                    (first[lo:hi] + cnt[lo:hi]).tolist())])
            return outs

        return self.collective(comms, list(zip(batches, cuts)),
                               lambda stage: alltoallv_cells(stage, p),
                               Epilogue(whole), check=check)[1]

    def _book_alltoallv(self, comms: Sequence[Comm], shared: dict) -> None:
        """Book an :func:`~repro.mpi.cells.alltoallv_cells` result on
        the live ranks of ``comms``: the receive allocated (a refusal
        fails the rank before its clock moves, and nobody else),
        ``alltoallv_time`` evaluated once per distinct ranks-per-node,
        clock overwritten (a tracer gets the span, the cost split and
        the ranks' non-empty cells as edges), byte and collective
        counters ticked."""
        first = comms[0]
        sim = first._world
        tr, cost = sim.tracer, sim.cost
        p, t, total = first.size, shared["t"], shared["total"]
        biggest = max(shared["max_send"], shared["max_recv"])
        comms, at, ranks = self._live(comms, *members(comms)[:2])
        recv = shared["recv_tot"][ranks]
        comms, at, ranks, recv = self._refuse(
            comms, sim.mem.alloc(at, recv), at, ranks, recv)
        rpn = (first.ranks_per_node if type(at) is int
               else np.asarray(sim.node_layout(first._ctx)[1])[ranks])
        kinds = np.unique(rpn)
        dt, lat = np.array([(
            cost.alltoallv_time(p, biggest, ranks_per_node=k,
                                total_bytes=total),
            cost.alltoallv_time(p, 0, ranks_per_node=k, total_bytes=0))
            for k in kinds.tolist()]).reshape(-1, 2).T[
                :, np.searchsorted(kinds, rpn)]
        c0 = sim.clock[at] if tr is not None else None
        debt = sim.set_clocks(at, t + dt)
        if tr is not None:
            tr.collective(at, "alltoallv", c0, sim.clock[at], t, dt, lat, debt)
            src, index = shared["src"], first._ctx.index
            dst = np.repeat(np.arange(p), np.diff(shared["cell"]))
            sent = np.isin(src, ranks)                # the booked senders
            tr.edge(index[src[sent]], index[dst[sent]],
                    (shared["cnt"] * shared["widths"][src])[sent])
        sim.counters.add(at, "coll.alltoallv", 1.0)
        sim.counters.add(at, "bytes.recv", recv)
        sim.counters.add(at, "bytes.sent", shared["send_tot"][ranks])

    def sendrecv(self, comms: Sequence[Comm], objs: Sequence[Any],
                 peers: Sequence[int], tag: int = 0) -> list:
        """Pairwise exchange: rank ``i`` swaps ``objs[i]`` with its
        ``peers[i]`` partner (partners must be symmetric)."""
        raise NotImplementedError


class LaneWorld(World):
    """One rank of a thread world: ``comms`` is that rank alone.

    ``Comm.staged`` does the meeting with the sibling rank threads, so
    this view is stateless — :data:`LANE` serves every rank thread —
    and a failure is raised by the rank that met it.
    """

    __slots__ = ()

    def fail(self, comm: Comm, exc: BaseException) -> None:
        raise exc

    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        comm = comms[0]
        shared, _ = comm.staged(deposits[0], compute)
        return shared, [finish(0, comm, shared)]

    def sendrecv(self, comms: Sequence[Comm], objs: Sequence[Any],
                 peers: Sequence[int], tag: int = 0) -> list:
        return [comms[0].sendrecv(objs[0], peers[0], tag)]


#: Shared stateless lane view — what ``Comm``'s per-rank collectives and
#: the per-rank entry points (``sds_sort(comm, ...)``) hand to the
#: world-form implementations.
LANE = LaneWorld()
