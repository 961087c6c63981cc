"""The phase pipeline: SDS-Sort's stages as reusable strategies, and
the run skeleton every sort driver shares.

The driver (:func:`repro.core.sdssort.sds_sort`) composes phase objects
sharing one :class:`RunContext` per rank::

    LocalSort -> NodeMerge -> PivotSelect -> Partition -> Exchange

Each phase is a small frozen dataclass, so baselines compose the *same*
strategies: PSRS is ``LocalSort() -> PivotSelect(method="gather") ->
Partition(variant="classic") -> Exchange(mode="sync")``, and HykSort
reuses ``LocalSort``.  Every
adaptive choice goes through the context's
:class:`~repro.core.plan.SortPlan`, which records the decision trace.
Every driver runs on one :class:`Run` (contexts opened, finished and
failed ranks banked, the :class:`~repro.mpi.FlatAbort` boundary), and
a per-rank statement that may fail goes through :meth:`World.each
<repro.mpi.world.World.each>`.

Phases are written once, in *world form*: ``run(world, ctxs)`` over a
:class:`~repro.mpi.world.LaneWorld` (one rank's ``Comm``; thread
backend) or a :class:`~repro.mpi.flatworld.ColumnarWorld` (the whole
membership, one batched kernel call for every rank; flat backend).
Costs are booked through the world's charge verbs, each pure cost
function evaluated once per distinct argument tuple, so clocks, phase
breakdowns, counters and memory peaks are bit-for-bit identical across
backends (``tests/data/golden_engine.json`` pins them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..kernels import (
    batched_argsort_rows,
    batched_local_delta,
    same_key_groups,
    stable_argsort,
    stable_prefix_layout,
)
from ..mpi import LANE, Comm, Epilogue, FlatAbort, World
from ..records import RecordBatch, SortedRows, merge_sorted_rows, row_tables
from .exchange import (
    ExchangeStats,
    _overlapped_exchange_finish,
    _sync_exchange_network,
    _sync_exchange_ordering,
    overlapped_exchange_compute,
    sync_exchange_compute,
)
from .params import PIVOT_METHODS, SdsParams
from .partition import (
    Cuts,
    cuts_all_valid,
    dup_counts,
    partition_cuts,
)
from .plan import Decision, DecisionPolicy, SortPlan
from .sampling import (
    SampleRuns,
    local_sample_runs,
    sample_stack,
    select_pivots_bitonic_world,
    select_pivots_gather_world,
    select_pivots_oversample_world,
)

__all__ = [
    "SortOutcome",
    "RunContext",
    "Run",
    "LocalSort",
    "NodeMerge",
    "PivotSelect",
    "Partition",
    "Exchange",
    "fault_health_check",
    "local_delta",
    "pivot_pad_value",
    "select_pivots",
    "select_pivots_world",
]


@dataclass
class SortOutcome:
    """Per-rank result of one distributed sort."""

    batch: RecordBatch
    received: int = 0
    active: bool = True
    exchange: ExchangeStats | None = None
    info: dict[str, Any] = field(default_factory=dict)


def pivot_pad_value(pg: np.ndarray, key_dtype: np.dtype):
    """Fill value for padding a short global pivot vector.

    Phantom pivots stand for *empty* ranges, so the pad must never sort
    above a real pivot nor land inside the key domain: use the last
    real pivot when one exists, else the dtype's ordered minimum (a 0
    pad would put every record of an all-negative domain on rank 0).
    """
    if pg.size:
        return pg[-1]
    dtype = np.dtype(key_dtype)
    if dtype.kind == "f":
        return dtype.type(-np.inf)
    if dtype.kind in "iu":
        return dtype.type(np.iinfo(dtype).min)
    return dtype.type(0)


def local_delta(sorted_keys: np.ndarray) -> float:
    """Replication ratio of already-sorted keys (cheap: one diff pass)."""
    n = sorted_keys.size
    if n == 0:
        return 0.0
    breaks = np.nonzero(sorted_keys[1:] != sorted_keys[:-1])[0]
    bounds = np.concatenate(([0], breaks + 1, [n]))
    return float(np.diff(bounds).max()) / n


def select_pivots_world(world: World, acomms: list[Comm], pls: list,
                        keys_list: list, method: str) -> list:
    """Dispatch to the named pivot selector (per-rank results).  An
    unknown ``method`` raises: :class:`~repro.core.params.SdsParams`
    validates names up front and the policy resolves the fallbacks, so
    nothing legitimate reaches the ``raise``.
    """
    if method == "bitonic":
        return select_pivots_bitonic_world(world, acomms, pls)
    if method == "histogram":
        from .histosel import select_pivots_histogram_world
        return select_pivots_histogram_world(world, acomms, keys_list)
    if method == "oversample":
        return select_pivots_oversample_world(world, acomms, keys_list)
    if method == "gather":
        return select_pivots_gather_world(world, acomms, pls)
    raise ValueError(f"unknown pivot_method {method!r}; options: "
                     f"{', '.join(repr(m) for m in PIVOT_METHODS)}")


def select_pivots(comm: Comm, pl: np.ndarray, sorted_keys: np.ndarray,
                  method: str) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_world` (lane view)."""
    if method not in PIVOT_METHODS:
        # strict dispatch without touching the communicator
        raise ValueError(f"unknown pivot_method {method!r}; options: "
                         f"{', '.join(repr(m) for m in PIVOT_METHODS)}")
    return select_pivots_world(LANE, [comm], [pl], [sorted_keys], method)[0]


def _live(world: World, comms: Sequence[Comm]) -> Sequence[int]:
    """Indices of the ranks that have not failed — all of them, with no
    rank-by-rank question asked, while the failure ledger is empty."""
    if not world.failures:
        return range(len(comms))
    return [i for i, c in enumerate(comms) if world.alive(c)]


_plan_of = attrgetter("plan")


def _decide(ctxs: Iterable["RunContext"], *decisions: Decision) -> None:
    """Record ``decisions`` for every rank of ``ctxs``: once per distinct
    plan (a group shares one)."""
    for plan in set(map(_plan_of, ctxs)):
        for decision in decisions:
            plan.decide(decision)


def _per_distinct(fn: Callable[..., Any], args: list[tuple]) -> list:
    """``fn(*a)`` for every tuple of ``args``, evaluated once per
    distinct tuple (cost functions and policy verdicts are pure)."""
    if len(args) == 1:  # a lane: nothing to share
        return [fn(*args[0])]
    memo = {a: fn(*a) for a in set(args)}
    return [memo[a] for a in args]


def _stretches(ctxs: Sequence["RunContext"], cut: Sequence[int] = ()
               ) -> list:
    """Every rank's ``batch`` as a deposit: ranks holding consecutive
    rows of one table, between two positions of ``cut``, deposit that
    stretch of it (the table itself when whole); a batch is its own."""
    out = [ctx.batch for ctx in ctxs]
    bounds = [0, *cut, len(ctxs)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        i = a
        while i < b:
            t, lo, j = out[i], ctxs[i].batch_row, i + 1
            if type(t) is SortedRows:
                if (ctxs[b - 1].batch_row - lo == b - 1 - i
                        and out[i:b].count(t) == b - i):
                    j = b
                while j < b and out[j] is t and ctxs[j].batch_row == lo + j - i:
                    j += 1
                out[i:j] = [t if j - i == len(t.rows)
                            else t.slice(lo, lo + j - i)] * (j - i)
            i = j
    return out


def _key_rows(ctxs: Sequence["RunContext"]) -> np.ndarray:
    """The ``(g, n)`` keys of same-length ``ctxs``, in order: their
    tables' key matrices (:func:`_stretches`), a batch as one row."""
    if len(ctxs) == 1:
        return ctxs[0].keys[None]
    parts = [np.atleast_2d(t.keys) for t in row_tables(_stretches(ctxs))[0]]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(slots=True)
class RunContext:
    """Shared state of one pipeline run on one rank.

    ``comm`` is the full communicator (phase annotation and global
    collectives); ``active`` starts as ``comm`` and shrinks to the
    leader communicator if the node-merge phase fires (or to the
    survivors of a crash).  ``plan`` carries the decision policy and
    the accumulating trace, shared by the ranks that decided alike.
    ``n`` and ``input_nbytes`` are the input's size; the remaining
    fields are the data flowing between phases (after the local sort
    ``batch`` is a :class:`~repro.records.SortedRows` table whose row
    ``batch_row`` is the rank's, :attr:`keys` its sorted keys; the
    partition leaves the rank's cuts as row ``row`` of the table
    ``cuts``; ``chunks`` are the runs a baseline's exchange received).
    A driver that carries more per rank subclasses it.
    """

    comm: Comm
    params: SdsParams | None
    plan: SortPlan
    batch: RecordBatch | SortedRows
    n: int
    input_nbytes: int
    slot: int  # index of this rank in the driver's ``comms``
    active: Comm
    delta: float = 0.0
    pg: np.ndarray | None = None
    cuts: Cuts | None = None
    row: int = 0
    batch_row: int = 0
    out: RecordBatch | None = None
    xstats: ExchangeStats | None = None
    chunks: list | None = None
    outcome: SortOutcome | None = None  # set: the rank is done

    @classmethod
    def start(cls, world: World, comms: Sequence[Comm],
              batches: Sequence[RecordBatch], params: SdsParams | None,
              policy: DecisionPolicy | None = None) -> list["RunContext"]:
        """Open a run on every live rank: one context each, in order.

        Snapshots the input sizes, starts the group on one decision plan
        over ``policy``, and accounts the input allocations through the
        world; a rank whose allocation is refused fails and gets no
        context.
        """
        plan = SortPlan(policy)
        ctxs = [cls(comms[i], params, plan, batches[i],
                    batches[i].keys.size, batches[i].nbytes, i, comms[i])
                for i in _live(world, comms)]
        world.alloc([ctx.comm for ctx in ctxs],
                    [ctx.input_nbytes for ctx in ctxs])
        if world.failures:
            ctxs = [ctx for ctx in ctxs if world.alive(ctx.comm)]
        # observed input volume: what throughput metrics divide by
        # (tracer-measured bytes, not a re-estimated record size)
        opened = [ctx.comm for ctx in ctxs]
        world.trace_counter(opened, "bytes.input",
                            [ctx.input_nbytes for ctx in ctxs])
        world.trace_counter(opened, "records.input", [ctx.n for ctx in ctxs])
        return ctxs

    @property
    def cost(self):
        return self.comm.cost

    def decisions(self) -> list[dict[str, Any]]:
        return self.plan.decisions()

    @property
    def keys(self) -> np.ndarray:
        """The rank's keys: its row of a table's."""
        batch = self.batch
        return (batch.keys[self.batch_row] if type(batch) is SortedRows
                else batch.keys)

    def sorted_batch(self) -> RecordBatch:
        """``batch``, its row gathered on the first call: for a rank that
        goes on alone (a one-rank world, HykSort's first level)."""
        if type(self.batch) is SortedRows:
            self.batch, self.batch_row = self.batch.batch(self.batch_row), 0
        return self.batch


class Run:
    """One sort driver's run over a world view: the skeleton every
    driver shares.

    A driver opens the run (:meth:`open`: one context per live rank,
    input allocated and counted), steps its phases over the live group
    ``ctxs`` (:meth:`step`) and gives the ranks that remain their
    outcomes (:meth:`finish`).  Between steps the group is banked
    (:meth:`bank`): a finished rank leaves with its ``outcome`` (into
    ``outcomes`` by ``ctx.slot``), a failed one with ``None``.  Entered
    as a context manager, the run is the driver's
    :class:`~repro.mpi.FlatAbort` boundary: an aborted collective ends
    the body and what already finished is banked, as on rank threads.
    """

    __slots__ = ("world", "comms", "ctxs", "outcomes")

    def __init__(self, world: World, comms: Sequence[Comm]):
        self.world, self.comms = world, comms
        self.ctxs: list[RunContext] = []
        self.outcomes: list[SortOutcome | None] = [None] * len(comms)

    def open(self, batches: Sequence[RecordBatch],
             params: SdsParams | None = None,
             policy: DecisionPolicy | None = None,
             context: type[RunContext] = RunContext) -> None:
        """Open the run on every live rank (:meth:`RunContext.start`)."""
        self.ctxs = context.start(self.world, self.comms, batches, params,
                                  policy)

    def members(self) -> list[Comm]:
        """The live group's communicators, in rank order."""
        return [ctx.comm for ctx in self.ctxs]

    def each(self, fn: Callable[[RunContext], Any]) -> list:
        """``fn(ctx)`` on every rank of the live group, under the
        per-rank failure rule (:meth:`World.each
        <repro.mpi.world.World.each>`); results aligned with ``ctxs``."""
        ctxs = self.ctxs
        return self.world.each([ctx.comm for ctx in ctxs],
                               lambda i, _c: fn(ctxs[i]))

    def step(self, *phases: Any) -> list[RunContext]:
        """Run ``phases`` in order over the live group, then bank."""
        if self.ctxs:
            for phase in phases:
                phase.run(self.world, self.ctxs)
        return self.bank()

    def bank(self) -> list[RunContext]:
        """Bank every finished rank's outcome; keep the ranks that are
        neither finished nor failed.  Returns the live group."""
        world, ctxs = self.world, self.ctxs
        failed = bool(world.failures)
        live = [ctx for ctx in ctxs if ctx.outcome is None
                and (not failed or world.alive(ctx.comm))]
        if len(live) < len(ctxs):
            for ctx in ctxs:
                if ctx.outcome is not None:
                    self.outcomes[ctx.slot] = ctx.outcome
        self.ctxs = live
        return live

    def finish(self, outcome: Callable[[RunContext], SortOutcome],
               where: Callable[[RunContext], bool] | None = None) -> None:
        """Give every rank of the live group (that ``where`` selects)
        its ``outcome(ctx)`` and bank it."""
        for ctx in self.bank():
            if where is None or where(ctx):
                ctx.outcome = outcome(ctx)
        self.bank()

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and not issubclass(exc_type, FlatAbort):
            return False
        self.bank()  # a collective aborted: bank what already finished
        return True


def fault_health_check(world: World, ctxs: list[RunContext],
                       boundary: str) -> str | None:
    """Cooperative crash barrier at a pipeline phase boundary.

    When the active fault plan schedules crashes, every active rank
    allgathers its crash verdict for ``boundary`` and the group splits
    into survivors and victims:

    * a **victim** participates in the split (opting out with a None
      colour, like MPI_UNDEFINED), releases the memory it still holds
      and exits the pipeline with an inactive outcome on
      ``ctx.outcome`` (the run banks it);
    * **survivors** shrink ``ctx.active`` to the reduced communicator
      and record the recovery in the decision trace;
    * with no victim at this boundary the check is a cheap allgather of
      zeros.

    The shared return value is ``"recovered"`` when any crash fired at
    this boundary and ``None`` otherwise (a victim's ``"crashed"``
    status is implied by its outcome).  Fault-free runs (no plan, or a
    plan without crashes) and an empty group skip the collectives
    entirely, so healthy virtual clocks are untouched.
    """
    fplan = ctxs[0].comm.faults if ctxs else None
    if fplan is None or not fplan.has_crashes:
        return None
    comms = [ctx.comm for ctx in ctxs]
    acomms = [ctx.active for ctx in ctxs]
    with world.phase(comms, "fault_recovery"):
        me_dead = [fplan.crash_at(c.grank, boundary) for c in comms]
        all_verdicts = world.allgather(
            acomms,
            [c.grank if dead else -1 for c, dead in zip(comms, me_dead)])
        verdicts = world.first_live(acomms, all_verdicts)
        crashed = sorted(g for g in verdicts if g >= 0)
        if not crashed:
            return None
        children = world.split(
            acomms, [None if dead else 0 for dead in me_dead],
            keys=[a.rank for a in acomms])
        survivors: list[RunContext] = []
        for i, ctx in enumerate(ctxs):
            comm = ctx.comm
            if not world.alive(comm):
                continue
            if me_dead[i]:
                comm.count("faults.crashed")
                comm.trace_instant("fault", "crash", {"boundary": boundary})
                comm.mem.free(ctx.batch.nbytes)
                # the trace as it stands: the survivors' recovery is
                # recorded below, into the plan they may share with it
                ctx.outcome = SortOutcome(
                    batch=RecordBatch.empty_like(ctx.batch),
                    received=0,
                    active=False,
                    info={"crashed": True, "crash_boundary": boundary,
                          "p_active": 0,
                          "decisions": ctx.plan.decisions()},
                )
                continue
            survivor = children[i]
            assert survivor is not None
            comm.count("faults.peer_crash_detected", len(crashed))
            comm.trace_instant("fault", "peer_crash_detected",
                               {"boundary": boundary,
                                "crashed": list(crashed)})
            ctx.active = survivor
            survivors.append(ctx)
        if survivors:
            size = survivors[0].active.size
            _decide(survivors, Decision(
                "fault_recovery", "shrink",
                measured={"boundary": boundary,
                          "crashed_ranks": list(crashed),
                          "p_active": size},
                reason=f"rank(s) {', '.join(map(str, crashed))} "
                       f"crashed at the {boundary} boundary: "
                       f"continuing degraded on {size} survivors"))
        return "recovered"


@dataclass(frozen=True)
class LocalSort:
    """Sort the local shard (Figure 1 line 2).

    Every driver's local sort, charged by the modelled ``sort_time``,
    evaluated once per distinct ``(n, delta)``.  Shards
    of one length and schema are sorted as one ``(g, n)`` matrix, a row
    a shard (``np.argsort``'s per-row introsort, or the unique stable
    permutation), bit-equal to a per-rank sort on every backend, and
    left as one :class:`~repro.records.SortedRows` table of which each
    rank holds its row: no payload is gathered here.
    """

    stable: bool = False

    def run(self, world: World, ctxs: list[RunContext]) -> None:
        comms = [ctx.comm for ctx in ctxs]
        with world.phase(comms, "local_sort"):
            for members in same_key_groups(
                    [(ctx.n, ctx.batch.schema) for ctx in ctxs]):
                inputs = [ctxs[i].batch for i in members]
                rows = np.concatenate([b.keys for b in inputs]
                                      ).reshape(len(members), ctxs[members[0]].n)
                if self.stable:
                    perms, ordered = stable_argsort(rows)
                else:
                    perms = batched_argsort_rows(rows)
                    ordered = np.take_along_axis(rows, perms, axis=-1)
                table = SortedRows(inputs, perms, ordered)
                deltas = batched_local_delta(ordered).tolist()
                for k, i in enumerate(members):
                    ctxs[i].batch, ctxs[i].batch_row, ctxs[i].delta = table, k, deltas[k]
            sort_time = ctxs[0].cost.sort_time
            dts = _per_distinct(
                lambda n, delta: sort_time(n, stable=self.stable,
                                           delta=delta),
                [(ctx.n, ctx.delta) for ctx in ctxs])
            world.charge_compute(comms, dts)
            world.trace_counter(comms, "kernel.sort.records",
                                [ctx.n for ctx in ctxs])
            world.trace_counter(comms, "kernel.sort.seconds", dts)


@dataclass(frozen=True)
class NodeMerge:
    """Optional node-level funnelling (Figure 1 lines 3-7, tau_m).

    The policy's local verdict (once per distinct ``(node_bytes,
    ranks_per_node, comm_size)``) goes through an allreduce consensus:
    all nodes must agree.  Each verdict is recorded once per plan that
    holds ranks it applies to (a plan whose ranks got different
    verdicts, a partial node's, forks).  The funnel is one collective,
    :meth:`~repro.mpi.world.World.node_funnel`, to which a node's
    members deposit their stretch of their table; it hands every
    leader its node's runs, the leaders' communicator and the node's
    pooled memory capacity.  Leaders merge in one call
    (:func:`~repro.records.merge_sorted_rows`), the ranks that handed
    their data off exit with one shared empty outcome per layout and
    plan (the effective process count drops to ``p/c``), and charges
    go in the per-rank order (merge, charge, allocate, release): merged
    batches, clocks and memory peaks are bit-equal on every backend, and
    a leader whose merge raises or is refused fails alone.
    """

    def run(self, world: World, ctxs: list[RunContext]) -> None:
        comms = [ctx.comm for ctx in ctxs]
        with world.phase(comms, "node_merge"):
            policy = ctxs[0].plan.policy
            size = comms[0].size
            ranks = [c.rank for c in comms]
            sim = comms[0]._world
            node, rpn = sim.node_layout(comms[0]._ctx)
            args = [(ctx.batch.nbytes * rpn[r], rpn[r], size)
                    for ctx, r in zip(ctxs, ranks)]
            # every rank's capacity is the run's until node_funnel pools a
            # node's (huge where unenforced)
            cap, nodes = sim.mem.capacity.item(comms[0].grank), len(set(node))
            verdict = {a: policy.node_merge(
                node_bytes=a[0], ranks_per_node=a[1], comm_size=a[2],
                nodes=nodes, capacity=cap) for a in set(args)}
            agg = world.allreduce(
                comms, [1 if verdict[a].choice == "merge" else 0
                        for a in args])
            merged_all = world.first_live(comms, agg)
            for a, local in verdict.items():
                verdict[a] = policy.node_merge_consensus(
                    local, agreeing=merged_all, comm_size=size)
            # once per (plan, verdict): a plan whose ranks got different
            # verdicts (a partial node's) forks, once per verdict
            keys = [(ctxs[i].plan, args[i]) for i in _live(world, comms)]
            verdicts: dict[SortPlan, list] = {}
            for plan, a in set(keys):
                verdicts.setdefault(plan, []).append(a)
            plans = {}
            for plan, own in verdicts.items():
                for a in own:
                    fork = plan if len(own) == 1 else plan.fork()
                    fork.decide(verdict[a])
                    plans[plan, a] = fork
            for i, key in zip(_live(world, comms), keys):
                ctxs[i].plan = plans[key]
            if merged_all != size:
                return
            # all nodes agree: funnel each node (its stretch of its
            # table) onto its leader
            nodes = np.asarray(node)[ranks]
            funneled = world.node_funnel(comms, _stretches(
                ctxs, (np.flatnonzero(nodes[1:] != nodes[:-1]) + 1).tolist()))
            live = _live(world, comms)
            # ranks that handed their data off leave with an empty batch;
            # equal layouts and plans share one outcome
            rest = [i for i in live if funneled[i] is None]
            world.free([comms[i] for i in rest],
                       [ctxs[i].input_nbytes for i in rest])
            outcomes: dict[tuple, SortOutcome] = {}
            for i in rest:
                ctx = ctxs[i]
                key = (ctx.batch.schema, ctx.plan)
                if key not in outcomes:
                    outcomes[key] = SortOutcome(
                        batch=RecordBatch.empty_like(ctx.batch),
                        received=0,
                        active=False,
                        info={"node_merged": True, "p_active": 0,
                              "decisions": ctx.plan.decisions()},
                    )
                ctx.outcome = outcomes[key]
            # leaders merge their node's runs, pay for it, then let the
            # absorbed shard go
            leaders = [i for i in live if funneled[i] is not None]
            merged: dict[int, RecordBatch] = {}
            for i, batch in zip(leaders, merge_sorted_rows(
                    [funneled[i][1] for i in leaders])):
                if isinstance(batch, Exception):
                    world.fail(comms[i], batch)
                else:
                    merged[i] = batch
            lcomms = [comms[i] for i in merged]
            merge_time = ctxs[0].cost.merge_time
            world.charge_compute(lcomms, _per_distinct(
                lambda n, c: merge_time(n, max(2, c)) / max(1, c),
                [(merged[i].keys.size, rpn[ranks[i]]) for i in merged]))
            world.alloc(lcomms, [merged[i].nbytes for i in merged])
            done = [i for i in merged if world.alive(comms[i])]
            # shard absorbed into merge
            world.free([comms[i] for i in done],
                       [ctxs[i].input_nbytes for i in done])
            for i in done:
                ctx = ctxs[i]
                ctx.active = funneled[i][0]
                ctx.batch, ctx.batch_row = merged[i], 0
                ctx.n = merged[i].keys.size


@dataclass(frozen=True)
class PivotSelect:
    """Regular sampling + global pivot selection (Figure 1 lines 8-9).

    ``method=None`` routes through the decision policy (configured
    method plus the empty-rank and non-power-of-two fallbacks); a fixed
    ``method`` pins the selector, as PSRS does with gather.
    ``guard_empty`` is the min-shard allreduce that detects empty ranks;
    algorithms that cannot tolerate them skip it.  The decision is made
    once per communicator and recorded once per plan; the world-form
    selectors run shared computations once.  Regular samples (one
    run-length encoded stack per shard length, :meth:`_samples`) and
    keys are taken only for the selectors that read them.
    """

    method: str | None = None
    guard_empty: bool = True

    def run(self, world: World, ctxs: list[RunContext]) -> None:
        comms = [ctx.comm for ctx in ctxs]
        acomms = [ctx.active for ctx in ctxs]
        p = acomms[0].size
        pgs: list = [None] * len(ctxs)
        with world.phase(comms, "pivot_selection"):
            if not self.guard_empty:
                min_n = 1
                dec = Decision("pivot_method", self.method,
                               measured={"p": p},
                               reason="fixed by algorithm")
                _decide(ctxs, dec)
            else:
                agg = world.allreduce(acomms,
                                      [ctx.n for ctx in ctxs], op=min)
                min_n = world.first_live(acomms, agg)
                dec = ctxs[0].plan.policy.pivot_method(p=p, min_n=min_n)
                _decide([ctxs[i] for i in _live(world, acomms)], dec)
            if min_n > 0:
                method = dec.choice
                pgs = select_pivots_world(
                    world, acomms,
                    self._samples(world, acomms, ctxs, p, method),
                    [ctx.keys for ctx in ctxs]
                    if method in ("histogram", "oversample") else None, method)
            else:
                # some rank holds no data: gather over whatever
                # samples exist, pad short pivot vectors
                pgs = select_pivots_gather_world(
                    world, acomms, self._samples(world, acomms, ctxs, p,
                                                 "gather", strict=False))
                for i, ctx in enumerate(ctxs):
                    pg = pgs[i]
                    if pg is not None and pg.size < p - 1:
                        fill = pivot_pad_value(pg, ctx.batch.keys.dtype)
                        pgs[i] = np.concatenate(
                            [pg, np.full(p - 1 - pg.size, fill,
                                         dtype=pg.dtype)])
        for i, ctx in enumerate(ctxs):
            if pgs[i] is not None:
                ctx.pg = pgs[i]

    @staticmethod
    def _samples(world: World, acomms: list[Comm], ctxs: list[RunContext],
                 p: int, method: str, strict: bool = True) -> list:
        """Every rank's regular samples (``None`` for ``histogram`` and
        ``oversample``): one :class:`SampleRuns` stack per shard length
        and dtype, deposited by each of its ranks.  A rank with no data
        has none: ``strict`` fails it (:func:`local_sample_runs`'s own
        exception), otherwise its stack is empty.
        """
        if method not in ("bitonic", "gather"):
            return [None] * len(ctxs)
        pls: list = [None] * len(ctxs)
        for members in same_key_groups(
                [(ctx.n, ctx.batch.keys.dtype) for ctx in ctxs]):
            rows = _key_rows([ctxs[i] for i in members])
            try:
                runs = sample_stack(rows, p)
            except ValueError:                         # empty shards
                runs = SampleRuns.empty(len(rows), rows.dtype)
                for i in members if strict else ():
                    try:
                        local_sample_runs(ctxs[i].keys, p)
                    except ValueError as exc:
                        world.fail(acomms[i], exc)
            for i in members:
                pls[i] = runs
        return pls


@dataclass(frozen=True)
class Partition:
    """Skew-aware partitioning (Figure 1 line 10, Figure 2).

    ``variant=None`` consults the policy (classic/fast/stable per the
    skew-aware and stability switches); a fixed variant pins it.
    ``local_pivot_accel`` selects the two-level local-pivot search cost
    of Section 2.5.1 (``None`` defers to ``params``).  Every variant
    cuts each shard shape's keys into one :class:`~repro.mpi.cells.Cuts`
    table (:func:`~repro.core.partition.partition_cuts`), left on the
    context with the rank's row; ``stable`` first allgathers every
    rank's row of its shape's duplicate counts.
    """

    variant: str | None = None
    local_pivot_accel: bool | None = None

    def run(self, world: World, ctxs: list[RunContext]) -> None:
        comms = [ctx.comm for ctx in ctxs]
        acomms = [ctx.active for ctx in ctxs]
        p = acomms[0].size
        with world.phase(comms, "partition"):
            if self.variant is not None:
                dec = Decision("partition", self.variant,
                               reason="fixed by algorithm")
            else:
                dec = ctxs[0].plan.policy.partition_variant()
            variant = dec.choice
            live = _live(world, acomms)
            _decide([ctxs[i] for i in live], dec)
            if variant not in ("classic", "fast", "stable"):
                for c in acomms:
                    world.fail(c, ValueError(
                        f"unknown partition variant {variant!r}"))
                raise FlatAbort
            groups = [[live[j] for j in members] for members in same_key_groups(
                [(ctxs[i].n, ctxs[i].batch.keys.dtype, id(ctxs[i].pg))
                 for i in live])]
            rows = [_key_rows([ctxs[i] for i in members]) for members in groups]
            if variant == "stable":
                counts: list = [None] * len(ctxs)
                for members, keys in zip(groups, rows):
                    for i, c in zip(members, dup_counts(keys, ctxs[members[0]].pg)):
                        counts[i] = c
                layouts = world.allgather_staged(acomms, counts,
                                                 stable_prefix_layout)
            for members, keys in zip(groups, rows):
                layout = None
                if variant == "stable":
                    prefix, totals = layouts[members[0]]
                    layout = (prefix[[acomms[i].rank for i in members]], totals)
                table = partition_cuts(keys, ctxs[members[0]].pg, variant, layout)
                for row, i in enumerate(members):
                    ctxs[i].cuts, ctxs[i].row = table, row
            # cost: the local-pivot two-level search (Section 2.5.1)
            # does two binary searches over O(n/p) instead of one
            # over O(n)
            live = _live(world, acomms)
            search_time = ctxs[0].cost.binary_search_time
            dts = _per_distinct(
                lambda n, accel: (
                    search_time(max(1, n // p), searches=2 * max(1, p - 1))
                    if accel else search_time(n, searches=max(1, p - 1))),
                [(ctxs[i].n, (ctxs[i].params.local_pivot_accel
                              if self.local_pivot_accel is None
                              else self.local_pivot_accel))
                 for i in live])
            world.charge_compute([ctxs[i].comm for i in live], dts)


@dataclass(frozen=True)
class Exchange:
    """All-to-all exchange + final local ordering (Figure 1 lines 15-27).

    ``mode=None`` routes the tau_o decision through the policy
    (``"sync"``/``"overlapped"`` pin it); ``tau_s`` overrides the
    merge-vs-sort threshold (``None`` defers to ``params``).  Either
    mode is one fused staged collective of ``exchange.py`` (a
    whole-world compute, then epilogues written once over the ranks
    handed in), so a rank whose memory charge is refused fails alone
    and clocks, counters, peaks and outputs match across backends.
    Cuts are checked at the deposit (:meth:`_deposits`).  The sync path
    annotates ``exchange``/``local_ordering`` on the active
    communicator, the overlapped path ``exchange`` on the full one.
    """

    mode: str | None = None
    tau_s: int | None = None
    stable: bool = False

    def run(self, world: World, ctxs: list[RunContext]) -> None:
        acomms = [ctx.active for ctx in ctxs]
        p = acomms[0].size
        tau_s = self.tau_s
        if self.mode is not None:
            mode_dec = Decision("exchange", self.mode, measured={"p": p},
                                reason="fixed by algorithm")
            ord_dec = Decision(
                "local_ordering", "merge" if p < tau_s else "sort",
                threshold="tau_s", threshold_value=tau_s,
                measured={"p": p}, reason="fixed by algorithm")
        else:
            mode_dec = ctxs[0].plan.policy.exchange_mode(p=p)
            ord_dec = ctxs[0].plan.policy.local_ordering(
                p=p, exchange=mode_dec.choice)
            if tau_s is None:
                tau_s = ctxs[0].params.tau_s
        mode = mode_dec.choice
        _decide(ctxs, mode_dec, ord_dec)
        send_nbytes = [ctx.batch.nbytes for ctx in ctxs]
        stable = self.stable
        if mode == "sync":
            merge = p < tau_s
            deposits = self._deposits(world, ctxs, acomms, p)

            def compute(stage: list) -> dict:
                return sync_exchange_compute(stage, p=p, merge=merge,
                                             stable=stable)

            with world.phase([acomms[i] for i in _live(world, acomms)],
                             "exchange"):
                shared, _ = world.collective(
                    acomms, deposits, compute, Epilogue(
                        lambda sh: _sync_exchange_network(
                            world, acomms, sh, send_nbytes)))
            live = _live(world, acomms)
            lcomms = [acomms[i] for i in live]
            with world.phase(lcomms, "local_ordering"):
                # the rest of the collective's epilogue, a phase later;
                # no rank left (every receive was refused): nothing to book
                outs = _sync_exchange_ordering(
                    world, lcomms, shared, merge=merge, stable=stable,
                    delta_hints=[ctxs[i].delta for i in live]
                ) if lcomms else []
            for i, res in zip(live, outs):
                if res is not None:
                    ctxs[i].out, ctxs[i].xstats = res
        else:
            spec = acomms[0].machine
            rate = acomms[0].cost.spec.merge_cost_per_elem
            group = acomms[0]._ctx.group
            progress = acomms[0].cost.async_progress_overhead(p)
            traced = acomms[0].tracer is not None

            def compute(stage: list) -> dict:
                return overlapped_exchange_compute(
                    stage, p=p, group=group, spec=spec, rate=rate,
                    progress=progress, traced=traced)

            with world.phase([ctxs[i].comm for i in _live(world, acomms)],
                             "exchange"):
                deposits = self._deposits(world, ctxs, acomms, p)
                _, outs = world.collective(
                    acomms, deposits, compute, Epilogue(
                        lambda sh: _overlapped_exchange_finish(
                            world, acomms, sh, send_nbytes)))
            for ctx, res in zip(ctxs, outs):
                if res is not None:
                    ctx.out, ctx.xstats = res

    @staticmethod
    def _deposits(world: World, ctxs: list[RunContext],
                  acomms: list[Comm], p: int) -> list:
        """One ``(rows, checked cuts)`` deposit per rank: ranks holding
        the rows of one table, in order, each deposit that table — of
        sorted rows (:func:`_stretches`) and of cuts
        (:func:`~repro.mpi.cells.world_table`).  A world checks every
        rank's cuts in one pass (:func:`~repro.core.partition.cuts_all_valid`);
        if that objects — and on a lane — each rank runs its own
        :meth:`Cuts.check` and fails alone, depositing nothing.
        """
        cuts = [ctx.cuts for ctx in ctxs]
        first = cuts[0]
        if (first is None or len(first) != len(cuts)
                or cuts.count(first) != len(cuts)):
            cuts = [c if c is None or c.ends is None else c.row(ctx.row)
                    for c, ctx in zip(cuts, ctxs)]
        rows = _stretches(ctxs)
        if len(ctxs) > 1 and cuts_all_valid(cuts, p, [ctx.n for ctx in ctxs]):
            return list(zip(rows, cuts))

        def deposit(i: int, _c: Comm) -> tuple:
            ctx, own = ctxs[i], cuts[i]
            if own is not None and len(own) > 1:
                own = own.row(ctx.row)
            return rows[i], own.check(p, ctx.n)

        return world.each(acomms, deposit)
