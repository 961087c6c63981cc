"""The simulated communicator: MPI-flavoured API over threads.

Rank programs are ordinary Python functions receiving a :class:`Comm`
(mirroring the mpi4py SPMD idiom from the domain guides).  Data moves
for real — collectives stage actual numpy arrays / RecordBatches — while
*time* is virtual: every operation advances the rank's clock through
the machine cost model, so measured "seconds" are simulated Edison
seconds, deterministic and independent of host thread scheduling.

A :class:`Comm` is a view, ``(world, context, rank)``, and owns no
state: its clock, memory, counters, straggler slowdown and collective
fault debt are its entries of the :class:`SimWorld` columns, its
collective sequence number its entry of the context's.  What it adds
is the rendezvous with its sibling rank threads (:meth:`Comm.staged` —
deposit, barrier, and the shared quantities computed **once per call**
by the barrier's last arriver, see :mod:`repro.mpi.context`) and
point-to-point messaging.  The collectives themselves —
``barrier`` / ``bcast`` / ``gather`` / ``allreduce`` / ``allgather`` /
``split`` / ``alltoallv``, the ``phase`` bracket and the collective
fault verdicts — are written once as :class:`~repro.mpi.world.World`
verbs over a list of ranks; the per-rank methods below are those verbs
on the lane view of this one rank (``LANE.bcast((self,), (obj,),
root)[0]``), so a rank thread and the threadless flat engine book the
very same statements.  Reductions apply the operator in rank order, so
results — floating point included — are bit-for-bit identical to a
per-rank formulation, and are shared objects: treat them as read-only.

Key deviations from real MPI, by design:

* ``alltoallv`` takes one send batch and its :class:`~repro.mpi.cells.Cuts`
  (the non-empty buckets) instead of ``p`` counts and displacements, and
  hands back only the non-empty chunks received, in source order: a
  rank's exchange state is O(cells), never O(p).  The paper's
  overlapped exchange is the fused collective of
  :mod:`repro.core.exchange`, not a nonblocking MPI call.
* Memory is accounted per rank in the world's
  :class:`~repro.machine.memory.MemoryLedger`; receiving more than the
  rank's capacity fails it with :class:`~repro.machine.memory.SimOOMError`
  mid-collective, exactly how the paper's HykSort runs died.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

from ..machine import CostModel, MachineSpec, MemoryLedger, RankMemory
from ..records import RecordBatch, SortedRows
from .cells import Cuts
from .context import AbortFlag, Channel, CommContext
from .errors import MessageLostError


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a message payload in bytes.

    ``RecordBatch.nbytes`` is stored on the batch when it is built, so
    sizing a batch (sender sizing, receiver accounting, arrival
    scheduling) reads one attribute.
    """
    if obj is None:
        return 0
    if type(obj) is int or type(obj) is float:  # a reduction's operand
        return 8
    if isinstance(obj, (RecordBatch, SortedRows)):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    # a payload that models its own wire size (e.g. run-length encoded
    # samples charge for the vector they stand for)
    return int(getattr(obj, "nbytes", 64))


#: Counters of host seconds a rank blocked (:meth:`Comm._sync`,
#: :meth:`Comm.recv`): they differ run to run, so no digest includes them.
HOST_COUNTERS = ("coll.sync_wait", "p2p.wait")

#: payload types whose wire size :func:`payload_sizes` reads without a
#: call: each stores it as ``nbytes`` when it is built
_STORED_SIZE = {RecordBatch, SortedRows}
_NUMBERS = frozenset((int, float))


def stores_size(cls: type) -> type:
    """Class decorator for a payload type of a layer above that stores
    its wire size as ``nbytes`` when it is built: :func:`payload_sizes`
    then reads it as it reads a batch's."""
    _STORED_SIZE.add(cls)
    return cls


def payload_sizes(objs: Sequence[Any]) -> list[int]:
    """:func:`payload_nbytes` of each of ``objs`` — with no call a
    payload when they all store their size (batches, :func:`stores_size`
    types) or are all Python numbers (8 bytes each)."""
    if objs and (type(objs[0]) in _STORED_SIZE or type(objs[0]) in _NUMBERS):
        kinds = {type(o) for o in objs}
        if kinds <= _STORED_SIZE:
            return [o.nbytes for o in objs]
        if kinds <= _NUMBERS:
            return [8] * len(objs)
    return list(map(payload_nbytes, objs))


def _max_clock(stage: Sequence[tuple[Any, float]]) -> float:
    return max([e[1] for e in stage])


def collective_charge(cost: CostModel, name: str, size: int,
                      nbytes: int = 0) -> tuple[float, float, str | None]:
    """``(dt, lat, counter)`` of one collective's epilogue.

    ``dt`` is the LogGP cost the released ranks add to the barrier
    clock, ``lat`` the same cost function at zero bytes (the traced
    latency/bandwidth split), ``counter`` the operation counter to tick
    (barriers and splits count nothing).  A pure function of the
    communicator size and payload bytes, and the only place these cost
    expressions exist: ``World._finish_all`` evaluates it once per
    distinct ``(size, nbytes)`` of the ranks it books.
    """
    if name in ("barrier", "split"):
        dt = cost.barrier_time(size)
        return dt, dt, None
    time_of = (cost.allgather_time if name == "allgather"
               else cost.tree_collective_time)
    return time_of(size, nbytes), time_of(size, 0), "coll." + name


class Columns(dict):
    """Named per-rank totals — counters, phase times — over ``p`` ranks:
    ``name -> (float64 values, bool booked)``.  A name a rank never
    booked is absent from its row, which is not the same as 0.0."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def add(self, at: Any, name: str, value: Any) -> None:
        """Add ``value`` to ``name`` on the ranks ``at`` (one rank's int,
        or an index array)."""
        vals, seen = self.get(name) or self.setdefault(  # threads may race
            name, (np.zeros(self.p), np.zeros(self.p, dtype=bool)))
        vals[at] += value
        seen[at] = True

    def booked(self, name: str) -> list[float]:
        """``name`` on every rank that booked it, in rank order."""
        vals, seen = self.get(name, (np.zeros(0), np.zeros(0, dtype=bool)))
        return vals[seen].tolist()

    def rows(self) -> list[dict[str, float]]:
        """Every rank's ``{name: value}``, names in sorted order (not in
        the order rank threads happened to book them first)."""
        rows: list[dict[str, float]] = [{} for _ in range(self.p)]
        for name, (vals, seen) in sorted(self.items()):
            for r, v in zip(np.flatnonzero(seen).tolist(),
                            vals[seen].tolist()):
                rows[r][name] = v
        return rows


class SimWorld:
    """Process-global state of one simulated run.  Its per-rank ledgers
    are columns indexed by global rank — ``clock`` (virtual seconds),
    ``mem``, ``counters``, ``phase_times``, and under a fault plan
    ``slowdown`` and ``debt`` — and ``traces``, one ``(ranks, t0, t1,
    phase)`` record per closed phase bracket."""

    def __init__(self, p: int, machine: MachineSpec,
                 mem_capacity: int | None = None,
                 faults: Any = None, tracer: Any = None):
        self.p = p
        self.machine = machine
        self.cost = CostModel(machine)
        #: optional :class:`~repro.obs.tracer.Tracer` (None = tracing
        #: off; every hook below is a single attribute check away from
        #: the untraced instruction stream)
        if tracer is not None and getattr(tracer, "p", p) != p:
            raise ValueError(f"tracer allocated for p={tracer.p}, "
                             f"world has p={p}")
        if faults is not None and getattr(faults, "p", p) != p:
            raise ValueError(f"fault plan compiled for p={faults.p}, "
                             f"world has p={p}")
        self.tracer = tracer
        self.abort = AbortFlag()
        #: the run's cancel :class:`threading.Event`, set by the flat
        #: engine (None = not cancellable); a columnar world polls it
        #: at its abort points — rank threads have a watcher instead
        self.cancel: Any = None
        self.clock = np.zeros(p)
        self.mem = MemoryLedger(p, mem_capacity)
        self.counters = Columns(p)
        self.phase_times = Columns(p)
        self.traces: list[tuple[Any, Any, Any, str]] = []
        self._channels: dict[tuple[int, int, int], Channel] = {}
        self._channels_lock = threading.Lock()
        self.world_ctx = self.make_context(range(p))
        #: compiled :class:`~repro.faults.plan.FaultPlan` or None.  A
        #: plan with ``active == False`` is treated exactly like None,
        #: so an empty FaultSpec never perturbs the virtual clocks.
        if faults is not None and not getattr(faults, "active", True):
            faults = None
        self.faults = faults
        #: under a plan, every rank's compute-charge multiplier (>= 1.0)
        #: and the collective fault debt it owes its next clock overwrite
        #: (:meth:`set_clocks`); both None without one
        self.slowdown = self.debt = None
        if faults is not None:
            self.slowdown, self.debt = np.array(faults.slowdowns), np.zeros(p)
            slow = np.flatnonzero(self.slowdown != 1.0)  # marked once a run
            if slow.size:
                self.counters.add(slow, "faults.straggler", 1.0)
            if slow.size and tracer is not None:
                tracer.instant(slow, "fault", "straggler", 0.0,
                               {"slowdown": self.slowdown[slow]})
        #: per-(src, dst, tag) message numbers; one rank's thread a key
        self.p2p_send_seq: dict[tuple[int, int, int], int] = {}
        self.p2p_recv_seq: dict[tuple[int, int, int], int] = {}

    def set_clocks(self, at: Any, t: Any) -> Any:
        """Overwrite the clocks of the ranks ``at`` (an int or an index
        array) with ``t`` plus the collective fault debt they owe (adding
        a zero debt is exact) and settle it: returns that debt."""
        debt = self.debt
        if debt is None:
            self.clock[at] = t
            return 0.0
        owed = debt[at]
        self.clock[at] = t + owed
        debt[at] = 0.0
        return owed

    def make_context(self, group: Sequence[int]) -> CommContext:
        """Shared-context factory for new communicators."""
        return CommContext(group, self.abort)

    def node_of(self, grank: int) -> int:
        """Node hosting a global rank (dense one-rank-per-core placement)."""
        return grank // self.machine.cores_per_node

    def node_layout(self, ctx: CommContext) -> tuple[list[int], list[int]]:
        """``(node, ranks_per_node)`` of every member of ``ctx``, in
        communicator rank order: the node hosting it (:meth:`node_of`)
        and how many members share that node.  Counted once per
        communicator and kept on its context — the group is immutable,
        so a concurrent second count stores equal lists."""
        layout = ctx.nodes
        if layout is None:
            node = (np.asarray(ctx.group, dtype=np.int64)
                    // self.machine.cores_per_node)
            layout = ctx.nodes = (node.tolist(),
                                  np.bincount(node)[node].tolist())
        return layout

    def channel(self, src: int, dst: int, tag: int) -> Channel:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            with self._channels_lock:
                ch = self._channels.get(key)
                if ch is None:
                    ch = Channel(self.abort)
                    self._channels[key] = ch
        return ch


class Comm:
    """Communicator handle of one rank (mirrors the mpi4py surface): a
    ``(world, context, rank)`` view, with no state and nothing booked."""

    __slots__ = ("_world", "_ctx", "rank", "size", "grank")

    def __init__(self, world: SimWorld, ctx: CommContext, rank: int):
        self._world = world
        self._ctx = ctx
        self.rank = rank
        self.size = ctx.size
        self.grank = ctx.group[rank]

    # ------------------------------------------------------------------
    # introspection / accounting
    # ------------------------------------------------------------------
    @property
    def machine(self) -> MachineSpec:
        return self._world.machine

    @property
    def cost(self) -> CostModel:
        return self._world.cost

    @property
    def mem(self) -> RankMemory:
        return RankMemory(self._world.mem, self.grank)

    @property
    def clock(self) -> float:
        """This rank's virtual time, in simulated seconds."""
        return self._world.clock.item(self.grank)

    @property
    def faults(self) -> Any:
        """The active :class:`~repro.faults.plan.FaultPlan`, or None."""
        return self._world.faults

    def charge(self, seconds: float) -> None:
        """Advance the virtual clock by a modelled compute cost.

        Straggler faults scale CPU-side charges (``SimWorld.slowdown``):
        everything the rank *computes* (including software messaging
        overheads) runs slow, while pure network time — p2p flight times
        and collective costs applied via :meth:`set_clock` — is
        unaffected.
        """
        LANE.charge_compute((self,), (seconds,))

    def _advance(self, seconds: float) -> None:
        """Raw clock advance (retry timeouts; never straggler-scaled)."""
        self._world.clock[self.grank] += seconds
        tr = self._world.tracer
        if tr is not None:  # only fault paths call _advance
            tr.add(self.grank, "cost.fault_debt", seconds)

    def set_clock(self, t: float) -> float:
        """:meth:`SimWorld.set_clocks` on this rank: the debt settled."""
        return float(self._world.set_clocks(self.grank, t))

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named statistic (messages, bytes, elements...)."""
        self._world.counters.add(self.grank, name, value)

    def phase(self, name: str) -> "phase_all":
        """Attribute the virtual time spent in the block to ``name``.

        Drives the paper's Figure 9/10 phase breakdowns (pivot
        selection / exchange / local ordering / other).
        """
        return phase_all((self,), name)

    @property
    def ranks_per_node(self) -> int:
        """How many members of *this* communicator share my node.

        Read off the communicator's :meth:`SimWorld.node_layout`.
        """
        return self._world.node_layout(self._ctx)[1][self.rank]

    # ------------------------------------------------------------------
    # tracing hooks
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Any:
        """The world's :class:`~repro.obs.tracer.Tracer`, or None."""
        return self._world.tracer

    def trace_counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate a tracer counter on this rank (no-op untraced)."""
        LANE.trace_counter((self,), name, (value,))

    def trace_instant(self, cat: str, name: str,
                      args: dict | None = None) -> None:
        """Record a zero-width marker at the current virtual time."""
        tr = self._world.tracer
        if tr is not None:
            tr.instant(self.grank, cat, name, self.clock, args)

    # ------------------------------------------------------------------
    # staged-collective plumbing
    # ------------------------------------------------------------------
    def _sync(self, action: Callable[[], Any] | None = None) -> Any:
        """Barrier on the communicator, accounting real blocked time.

        Returns ``action``'s result (the collective payload) on every
        rank.  Wall-clock (host) seconds spent inside the barrier are
        accumulated in the ``coll.sync_wait`` counter — the
        observability hook for diagnosing load imbalance of the
        *simulation itself* (stragglers show up as large sync waits).
        """
        t0 = time.perf_counter()
        out = self._ctx.sync(action)
        self._world.counters.add(self.grank, HOST_COUNTERS[0],
                                 time.perf_counter() - t0)
        return out

    def staged(self, obj: Any, compute: Callable[[list], Any],
               reader: Callable[[list], Any] | None = None) -> tuple[Any, Any]:
        """One staged collective with designated (last-arriver) compute.

        Deposits ``(obj, clock)`` into the stage; ``compute(stage)``
        runs exactly once — on the last rank to reach the barrier — and
        its result is handed to every rank through the barrier release
        itself.  ``reader`` (optional) extracts this rank's
        personalised data from the raw stage after release (the stage
        list is captured before the barrier and the last arriver swaps
        a fresh one into the context, so the read is race-free without
        a second barrier).  Returns ``(shared, mine)``.

        This is the extension point for fused collectives: algorithm
        layers (bitonic pivot sorting, the overlapped exchange) deposit
        one object per rank and perform all O(p) / O(p^2) work once,
        vectorised, inside ``compute`` — the mechanism that keeps exact
        runs tractable at thousands of ranks.  ``stage[r]`` is
        ``(obj_r, clock_r)``; everything ``compute`` returns is shared
        by reference, so treat it as read-only.
        """
        ctx = self._ctx
        stage = ctx.stage
        stage[self.rank] = (obj, self.clock)

        def produce() -> Any:
            shared = compute(stage)
            ctx.fresh_stage()
            return shared

        shared = self._sync(produce)
        mine = reader(stage) if reader is not None else None
        f = self._world.faults
        if f is not None and f.affects_collectives:
            LANE.charge_collective_faults((self,))
        return shared, mine

    # ------------------------------------------------------------------
    # collectives: each is the world verb (``World.bcast`` ...) on the
    # lane view of this one rank
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        LANE.barrier((self,))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return LANE.bcast((self,), (obj,), root)[0]

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        return LANE.gather((self,), (obj,), root)[0]

    def allgather_staged(self, obj: Any,
                         compute: Callable[[list[Any]], Any]) -> Any:
        """Allgather-accounted staged collective (fused-collective hook).

        ``compute(objs)`` sees the list of deposited payloads exactly
        once — on the designated (last-arriver) rank — and its result is
        shared by reference with every rank.  Clock and counter
        accounting are **identical** to :meth:`allgather` of the same
        payloads, so algorithm layers can fuse the "allgather + every
        rank re-derives the same aggregate" pattern into one vectorised
        pass without disturbing virtual time (the stable-partition
        layout of :mod:`repro.core.partition` is the canonical user).
        """
        return LANE.allgather_staged((self,), (obj,), compute)[0]

    def allgather(self, obj: Any) -> list[Any]:
        return LANE.allgather((self,), (obj,))[0]

    @staticmethod
    def _fold(stage: list, op: Callable[[Any, Any], Any] | None) -> Any:
        """Rank-order reduction over the staged values (runs once)."""
        acc = stage[0][0]
        if op is None:
            for e in stage[1:]:
                acc = acc + e[0]
        else:
            for e in stage[1:]:
                acc = op(acc, e[0])
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """All-reduce with a deterministic rank-order reduction."""
        return LANE.allreduce((self,), (value,), op)[0]

    def alltoallv(self, batch: RecordBatch, cuts: Cuts) -> list[RecordBatch]:
        """Synchronous all-to-all of one batch cut into ``size`` buckets
        (MPI_Alltoallv; ``cuts`` checked against ``batch`` here).

        Returns the non-empty chunks received, in source order — which
        is what the stable variant of SDS-Sort relies on.  Received
        bytes are charged to this rank's memory tracker and may raise
        :class:`SimOOMError`.
        """
        return LANE.alltoallv((self,), (batch,),
                              (cuts.check(self.size, len(batch)),))[0]

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Comm | None":
        """MPI_Comm_split: group ranks by ``color``, order by ``(key, rank)``.

        ``color=None`` (MPI_UNDEFINED) opts out and returns ``None``.
        """
        return LANE.split((self,), (color,),
                          None if key is None else (key,))[0]

    def node_split(self) -> tuple["Comm", "Comm | None"]:
        """SdssRefineComm (Section 2.3): node-local and leader communicators.

        Returns ``(local, leaders)`` where ``local`` spans the ranks of
        this communicator sharing my node (MPI_COMM_TYPE_SHARED) and
        ``leaders`` connects rank 0 of every node (``None`` on
        non-leader ranks).
        """
        local = self.split(self._world.node_of(self.grank), key=self.rank)
        assert local is not None
        leader_color = 0 if local.rank == 0 else None
        leaders = self.split(leader_color, key=self.rank)
        return local, leaders

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager send to ``dest`` (communicator rank).

        Under a fault plan, transport faults for this message are
        resolved here deterministically (see
        :meth:`~repro.faults.plan.FaultPlan.p2p_event`).  Drops are
        *modelled, not enacted*: the reliable layer retransmits until
        delivery, so the payload crosses the wire exactly once while
        the sender's clock absorbs the detection timeouts and resend
        costs — protocols above never see a missing message and cannot
        deadlock.  Delays inflate the carried send timestamp;
        duplicates charge the sender one extra injection (the receiver
        discards its copy in :meth:`_complete_recv` from the same
        deterministic event, so no spurious payload enters the
        channel).
        """
        tr = self._world.tracer
        t0 = self.clock
        self.charge(self.machine.per_message_overhead)
        gdest = self._ctx.group[dest]
        sent_clock = None
        f = self._world.faults
        if f is not None and f.has_message_faults:
            key, sent = (self.grank, gdest, tag), self._world.p2p_send_seq
            seq = sent.get(key, 0)
            sent[key] = seq + 1
            ev = f.p2p_event(self.grank, gdest, tag, seq)
            if ev.lost:
                raise MessageLostError(
                    f"message {self.grank}->{gdest} (tag {tag}, seq {seq}) "
                    f"dropped more than {f.spec.retry.max_retries} times")
            if ev.drops:
                penalty = (f.spec.retry.detection_time(ev.drops)
                           + ev.drops * self.cost.p2p_time(
                               payload_nbytes(obj)))
                self._advance(penalty)
                self.count("faults.msg_dropped", ev.drops)
                self.count("retry.time", penalty)
                self.trace_instant("fault", "msg_dropped",
                                   {"dst": gdest, "drops": ev.drops})
            if ev.delay:
                sent_clock = self.clock + ev.delay
                self.count("faults.msg_delayed")
                self.trace_instant("fault", "msg_delayed",
                                   {"dst": gdest, "delay": ev.delay})
            if ev.duplicate:
                self._advance(self.machine.per_message_overhead)
                self.count("faults.msg_duplicated")
                self.trace_instant("fault", "msg_duplicated", {"dst": gdest})
        ch = self._world.channel(self.grank, gdest, tag)
        ch.put((obj, self.clock if sent_clock is None else sent_clock))
        self.count("p2p.send")
        self.count("bytes.sent", payload_nbytes(obj))
        if tr is not None:
            nbytes = payload_nbytes(obj)
            tr.span(self.grank, "p2p", f"send->{gdest}", t0, self.clock,
                    {"bytes": nbytes})
            tr.edge(self.grank, gdest, nbytes)

    def _try_recv(self, source: int, tag: int):
        ch = self._world.channel(self._ctx.group[source], self.grank, tag)
        return ch.get_nowait()

    def _complete_recv(self, gsrc: int, tag: int, obj: Any,
                       sent_clock: float) -> Any:
        tr = self._world.tracer
        nbytes = payload_nbytes(obj)
        flight = self.cost.p2p_time(nbytes)
        c0 = self.clock
        self.set_clock(max(c0, sent_clock + flight))
        if tr is not None:
            adv = self.clock - c0
            if adv > 0.0:
                # advance = (waiting on a late sender) + flight time;
                # split the in-flight part into its zero-byte latency
                # and byte-proportional remainder
                wait = max(0.0, adv - flight)
                rest = adv - wait
                lat = min(rest, self.cost.p2p_time(0))
                g = self.grank
                tr.span(g, "p2p", f"recv<-{gsrc}", c0, self.clock,
                        {"bytes": nbytes})
                if wait > 0.0:
                    tr.add(g, "cost.wait", wait)
                tr.add(g, "cost.latency", lat)
                if rest > lat:
                    tr.add(g, "cost.bandwidth", rest - lat)
        f = self._world.faults
        if f is not None and f.has_message_faults:
            key, got = (gsrc, self.grank, tag), self._world.p2p_recv_seq
            seq = got.get(key, 0)
            got[key] = seq + 1
            # channels are FIFO per (src, dst, tag), so the receiver's
            # private counter names the same message the sender drew —
            # both sides resolve the identical MessageEvent.
            ev = f.p2p_event(gsrc, self.grank, tag, seq)
            if ev.duplicate:
                self._advance(self.machine.per_message_overhead)
                self.count("faults.dup_discarded")
                self.trace_instant("fault", "dup_discarded", {"src": gsrc})
        self.count("p2p.recv")
        return obj

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking (abortable, event-driven) receive from ``source``.

        Wall-clock seconds spent blocked waiting for the message are
        accumulated in the ``p2p.wait`` counter.
        """
        gsrc = self._ctx.group[source]
        ch = self._world.channel(gsrc, self.grank, tag)
        got = ch.get_nowait()
        if got is None:
            t0 = time.perf_counter()
            got = ch.get(self._world.abort)
            self.count(HOST_COUNTERS[1], time.perf_counter() - t0)
        return self._complete_recv(gsrc, tag, *got)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Simultaneous exchange with ``peer`` (deadlock-free)."""
        self.send(obj, peer, tag)
        return self.recv(peer, tag)


# ``world`` is written over ``Comm``; the lane view and the phase bracket
# come back here once the class exists
from .world import LANE, phase_all  # noqa: E402
