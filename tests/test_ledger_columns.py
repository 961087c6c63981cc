"""The array ledger against the per-rank ledgers it replaced.

Random verb sequences — compute charges, allocations that cross the
capacity on several ranks at once, over-frees, counters booked at 0.0
and not at all, collectives (barrier, allreduce, alltoallv), nested
phase brackets and brackets an exception unwinds — run three ways:

* on a :class:`ColumnarWorld`, each verb over its ranks at once;
* on rank threads, each rank through the lane (``LANE``) on itself;
* on per-rank :class:`RankLedger` s (``tests/oracles_ledger.py``).

Clocks, live and peak bytes, counters (absent is not 0.0), phase times,
brackets (Python floats), failures (rank, kind, message) and the sort
document's fault totals must be equal.  A rank that fails books nothing
more; it still deposits its clock at the collectives, as a dead rank of
a columnar world does.
"""

from __future__ import annotations

import gc
import sys
from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import EDISON, CostModel, MemoryLedger
from repro.mpi import (
    HOST_COUNTERS,
    LANE,
    ColumnarWorld,
    Comm,
    Cuts,
    SimWorld,
    SpmdResult,
    make_world_comms,
    run_spmd,
)
from repro.mpi.cells import alltoallv_cells
from repro.mpi.comm import Columns, _max_clock
from repro.obs import Tracer
from repro.records import RecordBatch
from repro.runner import _SortProgram, fault_totals
from repro.workloads import uniform

from .oracles_ledger import RankLedger, fault_totals as fault_totals_oracle
from .oracles_ledger import phase_breakdown

COLLECTIVES = ("barrier", "allreduce", "alltoallv")
VERBS = {"charge": "charge_compute", "alloc": "alloc", "free": "free"}
COST = CostModel(EDISON)


class _Abort(Exception):
    """Unwinds the brackets it is raised in; nobody fails."""


def _sends(counts: list[list[int]], r: int) -> tuple[RecordBatch, Cuts]:
    """Rank ``r``'s send batch (8-byte records) and its cuts."""
    row = counts[r]
    return (RecordBatch(np.full(sum(row), float(r))),
            Cuts.from_displs(np.concatenate(([0], np.cumsum(row)))))


# -- one rank at a time: the lane and the oracle ------------------------

class _Lane:
    """The verbs of one rank thread, on itself."""

    def __init__(self, comm: Comm):
        self.comm = comm

    def charge(self, v):
        LANE.charge_compute((self.comm,), (v,))

    def alloc(self, v):
        LANE.alloc((self.comm,), (v,))

    def free(self, v):
        LANE.free((self.comm,), (v,))

    def count(self, name, v):
        self.comm.count(name, v)

    def phase(self, name):
        return LANE.phase((self.comm,), name)


def _rank_ops(ops: list, r: int, book) -> None:
    for op in ops:
        kind = op[0]
        if kind == "abort":
            raise _Abort
        if kind == "phase":
            with book.phase(op[2]) if op[1][r] else nullcontext():
                _rank_ops(op[3], r, book)
        elif op[1][r] and kind == "count":
            book.count(op[2], op[3][r])
        elif op[1][r]:
            getattr(book, kind)(op[2][r])


def _rank_step(op, r: int, book, dead: set, failures: list) -> None:
    """One top-level op of one rank: a failure kills the rank there."""
    if r in dead:
        return
    try:
        _rank_ops([op], r, book)
    except _Abort:
        pass
    except Exception as exc:  # noqa: BLE001 - the refusal under test
        failures.append((r, exc))
        dead.add(r)


def _lane_collective(comm: Comm, op, dead: bool) -> None:
    """A live rank runs the verb; a dead one only deposits its clock,
    with the verb's own compute (it may be the last arriver)."""
    r, p = comm.rank, comm.size
    if op[0] == "barrier":
        if dead:
            comm.staged(None, _max_clock)
        else:
            LANE.barrier((comm,))
    elif op[0] == "allreduce":
        if dead:
            comm.staged(op[1][r], lambda stage: (Comm._fold(stage, None),
                                                 _max_clock(stage)))
        else:
            LANE.allreduce((comm,), (op[1][r],))
    elif dead:
        comm.staged(_sends(op[1], r), lambda stage: alltoallv_cells(stage, p))
    else:
        LANE.alltoallv((comm,), *zip(_sends(op[1], r)))


def _lanes(ops: list, p: int, capacity):
    def rank(comm):
        r, book, dead, failures = comm.rank, _Lane(comm), set(), []
        for op in ops:
            if op[0] not in COLLECTIVES:
                _rank_step(op, r, book, dead, failures)
                continue
            try:
                _lane_collective(comm, op, r in dead)
            except Exception as exc:  # noqa: BLE001 - a refused receive
                failures.append((r, exc))
                dead.add(r)
        return failures

    res = run_spmd(rank, p, machine=EDISON, mem_capacity=capacity,
                   backend="thread")
    return res.world, [f for fs in res.results for f in fs]


def _oracle(ops: list, p: int, capacity):
    ledgers = [RankLedger(r, capacity) for r in range(p)]
    dead: set[int] = set()
    failures: list = []
    for op in ops:
        if op[0] not in COLLECTIVES:
            for r, book in enumerate(ledgers):
                _rank_step(op, r, book, dead, failures)
            continue
        t = max(book.clock for book in ledgers)     # dead ranks deposit too
        live = [r for r in range(p) if r not in dead]
        if op[0] == "barrier":
            for r in live:
                ledgers[r].clock = t + COST.barrier_time(p)
        elif op[0] == "allreduce":
            for r in live:
                ledgers[r].clock = t + COST.tree_collective_time(p, 8)
                ledgers[r].count("coll.allreduce")
        else:
            counts = np.array(op[1], dtype=np.int64) * 8
            own = np.diag(counts)
            sent, recv = counts.sum(axis=1) - own, counts.sum(axis=0) - own
            biggest = max(sent.max(), recv.max())
            dt = COST.alltoallv_time(p, int(biggest), ranks_per_node=p,
                                     total_bytes=int(counts.sum()))
            for r in live:
                book = ledgers[r]
                try:
                    book.alloc(int(recv[r]))
                except Exception as exc:  # noqa: BLE001
                    failures.append((r, exc))
                    dead.add(r)
                    continue
                book.clock = t + dt
                book.count("coll.alltoallv")
                book.count("bytes.recv", int(recv[r]))
                book.count("bytes.sent", int(sent[r]))
    return ledgers, sorted(failures, key=lambda f: f[0])


# -- the whole world at once --------------------------------------------

def _world_ops(ops: list, world: ColumnarWorld, comms: list) -> None:
    for op in ops:
        kind = op[0]
        if kind == "abort":
            raise _Abort
        on = [c for c in comms if op[1][c.rank] and world.alive(c)]
        if kind == "phase":
            with world.phase(on, op[2]):
                _world_ops(op[3], world, comms)
        elif kind == "count":
            for c in on:
                c.count(op[2], op[3][c.rank])
        else:
            getattr(world, VERBS[kind])(on, [op[2][c.rank] for c in on])


def _columnar(ops: list, p: int, capacity):
    sim = SimWorld(p, EDISON, mem_capacity=capacity)
    comms = make_world_comms(sim)
    world = ColumnarWorld(sim)
    for op in ops:
        if op[0] == "barrier":
            world.barrier(comms, check=False)
        elif op[0] == "allreduce":
            world.allreduce(comms, op[1], check=False)
        elif op[0] == "alltoallv":
            world.alltoallv(comms, *zip(*(_sends(op[1], r) for r in range(p))),
                            check=False)
        else:
            try:
                _world_ops([op], world, comms)
            except _Abort:
                pass
    return sim, sorted(world.failures, key=lambda f: f[0])


# -- comparison -----------------------------------------------------------

def _seen(sim: SimWorld, failures: list) -> dict:
    views = SpmdResult(sim, [None] * sim.p)
    return {
        "clocks": views.clocks,
        "in_use": sim.mem.in_use.tolist(),
        "peaks": views.mem_peaks,
        "counters": [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                     for c in views.counters],
        "phase_times": views.phase_times,
        "breakdown": views.phase_breakdown(),
        "traces": views.traces,
        "faults": fault_totals(sim.counters),
        "failures": [(r, type(e).__name__, str(e)) for r, e in failures],
    }


def _expected(ledgers: list[RankLedger], failures: list) -> dict:
    counters = [book.counters for book in ledgers]
    phase_times = [book.phase_times for book in ledgers]
    return {
        "clocks": [book.clock for book in ledgers],
        "in_use": [book.mem.in_use for book in ledgers],
        "peaks": [book.mem.peak for book in ledgers],
        "counters": counters,
        "phase_times": phase_times,
        "breakdown": phase_breakdown(phase_times),
        "traces": [book.traces for book in ledgers],
        "faults": fault_totals_oracle(counters),
        "failures": [(r, type(e).__name__, str(e)) for r, e in failures],
    }


def _assert_ledgers_equal(got: dict, want: dict, leg: str) -> None:
    for key in want:
        assert got[key] == want[key], f"{leg}: {key}"
    for row in got["traces"]:
        assert all(type(t0) is float and type(t1) is float
                   and type(name) is str for t0, t1, name in row), leg
    assert all(type(v) is float for row in got["counters"] + got["phase_times"]
               for v in row.values()), leg
    assert all(type(v) is int for v in got["peaks"] + got["in_use"]), leg


@st.composite
def _programs(draw):
    p = draw(st.integers(1, 16))
    capacity = draw(st.sampled_from([None, 60, 150, 400]))
    mask = st.lists(st.booleans(), min_size=p, max_size=p)

    def per_rank(values):
        return st.lists(values, min_size=p, max_size=p)

    def refusing(kind, values, bad):
        # one rank at most asks for the impossible (a negative size)
        def build(args):
            on, vals, r = args
            return (kind, on, vals if r is None else
                    [bad if i == r else v for i, v in enumerate(vals)])
        return st.tuples(mask, per_rank(values),
                         st.one_of(st.none(), st.integers(0, p - 1))
                         ).map(build)

    leaf = st.one_of(
        refusing("charge", st.floats(0, 2), -0.5),
        refusing("alloc", st.integers(0, 120), -1),
        refusing("free", st.integers(0, 200), -1),
        st.tuples(st.just("count"), mask,
                  st.sampled_from(["retry.time", "faults.dropped", "misc"]),
                  per_rank(st.floats(0, 1e3))))
    def bracket(body):
        return st.tuples(st.just("phase"), mask,
                         st.sampled_from(["work", "inner"]),
                         st.lists(st.one_of(body, st.just(("abort",))),
                                  max_size=4))
    ops = st.one_of(leaf, bracket(st.one_of(leaf, bracket(leaf))))
    collective = st.one_of(
        st.just(("barrier",)),
        st.tuples(st.just("allreduce"), per_rank(st.integers(0, 9))),
        st.tuples(st.just("alltoallv"), per_rank(per_rank(st.integers(0, 4)))))
    return p, capacity, draw(st.lists(st.one_of(ops, collective),
                                      min_size=1, max_size=8))


#: Nine ranks whose fault counter a pairwise sum (``np.sum``) rounds
#: differently from the rank-order one, after an over-free on each.
_NINE = (9, None, [
    ("alloc", [True] * 9, [10] * 9), ("free", [True] * 9, [100] * 9),
    ("count", [True] * 9, "retry.time",
     [8.48, 2.79, 3.59, 0.4, 7.24, 4.39, 7.0, 2.59, 8.64])])


@settings(max_examples=100, deadline=None)
@given(_programs())
@example(_NINE)
def test_columns_equal_the_per_rank_ledgers(program):
    p, capacity, ops = program
    want = _expected(*_oracle(ops, p, capacity))
    _assert_ledgers_equal(_seen(*_columnar(ops, p, capacity)), want,
                          "columnar")
    world, failures = _lanes(ops, p, capacity)
    _assert_ledgers_equal(_seen(world, sorted(failures, key=lambda f: f[0])),
                          want, "lanes")


def test_a_world_of_paper_scale_holds_no_per_rank_objects():
    # the ledgers are columns: 131,072 ranks cost the containers of one
    # world, not a tracker, a dict or a list per rank
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        world = SimWorld(131072, EDISON, mem_capacity=1 << 30)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown <= 40, grown
    assert world.clock.shape == world.mem.in_use.shape == (131072,)


def test_the_sync_exchange_releases_each_chunk_once_on_both_backends():
    # The sync exchange releases the send buffer, then the receive
    # buffer it allocated — a rank's chunk to itself never left the
    # first — and a HykSort level likewise.  Exact bookkeeping: no
    # rank-free reaches the clamp at zero, and every rank ends holding
    # its output's bytes
    clamped, held, free = [], [], MemoryLedger.free

    def checked(self, at, nbytes):
        clamped.append(int(np.count_nonzero(self.in_use[at] < nbytes)))
        return free(self, at, nbytes)

    with mock.patch.object(MemoryLedger, "free", checked):
        for algorithm, opts in (("sds", {"node_merge_enabled": False,
                                         "tau_o": 0}), ("hyksort", {})):
            prog = _SortProgram(algorithm, uniform(), 64, 3, opts)
            for backend in ("flat", "thread"):
                res = run_spmd(prog, 25, machine=EDISON, backend=backend)
                outs = [out.batch.nbytes for _, out in res.results]
                assert res.world.mem.in_use.tolist() == outs
                held.append(outs)
                own = [np.count_nonzero(out.batch.payload["_src_rank"] == r)
                       for r, (_, out) in enumerate(res.results)]
                assert sum(own) > 0
    assert len(clamped) > 100 and sum(clamped) == 0
    assert held[0] == held[1] and held[2] == held[3]


def test_rank_threads_sharing_the_columns_lose_no_update():
    # every rank thread writes only its own entries, and the first
    # booking of a name is one setdefault: with the interpreter switching
    # threads every microsecond, no count, clock or byte may go missing
    def prog(comm):
        for k in range(300):
            comm.count(f"c{k % 7}", 1.0)
            comm.charge(1e-6)
            comm.mem.alloc(1)
            with comm.phase(f"ph{k % 3}"):
                pass

    clock = 0.0
    for _ in range(300):
        clock += 1e-6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracer = Tracer(16)   # the tracer's records and columns are shared too
    try:
        res = run_spmd(prog, 16, machine=EDISON, backend="thread",
                       tracer=tracer)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counters.rows() == [{"cost.compute": clock}] * 16
    assert [len(s) for s in tracer.rank_spans()] == [300] * 16
    want = {f"c{j}": float(len(range(j, 300, 7))) for j in range(7)}
    assert all({k: v for k, v in c.items() if k not in HOST_COUNTERS} == want
               for c in res.counters)
    assert res.clocks == [clock] * 16
    assert res.world.mem.in_use.tolist() == [300] * 16
    assert all(len(t) == 300 for t in res.traces)


def test_a_row_lists_its_names_in_one_order_whoever_booked_first():
    # rank threads race to book a name first; a rank's row must not
    # depend on who won
    rows = []
    for first, second in (("b.late", "a.early"), ("a.early", "b.late")):
        cols = Columns(2)
        cols.add(0, first, 1.0)
        cols.add(np.arange(2), second, 2.0)
        cols.add(1, first, 3.0)
        rows.append([list(row) for row in cols.rows()])
    assert rows[0] == rows[1] == [["a.early", "b.late"]] * 2
