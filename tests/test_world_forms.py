"""One form of bookkeeping, three ways to look at it.

Every collective epilogue, phase bracket and charge of the flat engine
is one loop over the ranks handed in (``ColumnarWorld``, the exchange
epilogues of ``core/exchange.py``); a tracer and a fault plan are served
inside that loop, and a rank thread books itself through its own
``Comm``.  These tests run the same sort through

* flat, plain,
* flat with a tracer,
* thread,

and require every simulated observable to be equal: clocks, phase
times, phase traces, counters, memory peaks, decisions, loads, outputs
and the shape of a failure.  Under a fault plan flat and thread are
compared too.
"""

from __future__ import annotations

import ast
import cProfile
import gc
import inspect
import json
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SdsParams, pipeline, sds_sort, sds_sort_world
from repro.faults.chaos import PRESETS
from repro.faults.plan import CollectivePenalty
from repro.machine import EDISON, CostModel, MemoryLedger
from repro.mpi import (
    HOST_COUNTERS,
    LANE,
    ColumnarWorld,
    Comm,
    Cuts,
    FlatAbort,
    RankFailure,
    SimWorld,
    SpmdResult,
    make_world_comms,
    run_spmd,
)
from repro.obs import TraceReport, Tracer
from repro.records import (
    RecordBatch,
    SortedRows,
    merge_sorted_rows,
    tag_provenance,
    tag_provenance_world,
)
from repro.runner import _SortProgram, run_sort
from repro.workloads import Workload, by_name, cosmology, uniform, zipf

from .oracles_merge import kway_merge_run_lists
from .test_workloads import registered_names

#: Host-wall counters: no engine reproduces them.

ALGORITHMS = ("sds", "sds-stable", "psrs", "hyksort")

#: 1 and 2-3 (degenerate worlds), one node and one node + 1, two nodes
#: and two nodes + 2 (ragged last node), a prime past ten nodes.
WORLD_SIZES = (1, 2, 3, 24, 25, 48, 50, 257)


class OneEmptyRank(Workload):
    """A duplicate-heavy workload with rank 1 holding nothing."""

    def __init__(self, base: Workload) -> None:
        super().__init__("one-empty-rank", base.fn)

    def shard(self, n, p, rank, seed=0):
        return super().shard(0 if rank == 1 else n, p, rank, seed)


def _opts(algorithm: str, node_merge: bool) -> dict:
    return ({"node_merge_enabled": node_merge}
            if algorithm.startswith("sds") else {})


def _run(algorithm, workload, n, p, backend, *, opts=None, trace=False,
         faults=None, capacity=None):
    prog = _SortProgram(algorithm, workload, n, 3, dict(opts or {}))
    return run_spmd(prog, p, machine=EDISON, mem_capacity=capacity,
                    check=False, backend=backend,
                    faults=faults.compile(p, 11) if faults else None,
                    tracer=Tracer(p) if trace else None)


def _observed(res) -> dict:
    """Everything simulated about a run, in comparable plain values."""
    out = {
        "clocks": res.clocks,
        "phase_times": res.phase_times,
        "traces": res.traces,
        "counters": [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                     for c in res.counters],
        "mem_peaks": res.mem_peaks,
        "failure": None,
    }
    if res.failure is not None:
        out["failure"] = [(r, type(e).__name__, str(e))
                          for r, e in res.failure.failures]
        return out
    outcomes = [r[1] for r in res.results]
    out["loads"] = [len(o.batch) for o in outcomes]
    out["active"] = [o.active for o in outcomes]
    out["decisions"] = [o.info.get("decisions") for o in outcomes]
    out["keys"] = [o.batch.keys.tolist() for o in outcomes]
    out["src"] = [(o.batch.payload["_src_rank"].tolist(),
                   o.batch.payload["_src_pos"].tolist()) for o in outcomes]
    return out


def _assert_same(a: dict, b: dict, what: str) -> None:
    assert a.keys() == b.keys(), what
    for key in a:
        assert a[key] == b[key], f"{what}: {key} differs"


# ---------------------------------------------------------------------------
# (a) flat plain == flat traced == thread
# ---------------------------------------------------------------------------

def _three_ways(algorithm, wl, n, p, *, opts=None, capacity=None,
                observe=_observed, thread=True, run=_run, what="") -> dict:
    """Flat plain, compared with flat traced and (``thread``) threads."""
    kw = dict(opts=opts, capacity=capacity)
    plain = observe(run(algorithm, wl, n, p, "flat", **kw))
    _assert_same(plain, observe(run(algorithm, wl, n, p, "flat", trace=True,
                                    **kw)), f"{what} flat traced")
    if thread:
        _assert_same(plain, observe(run(algorithm, wl, n, p, "thread", **kw)),
                     f"{what} thread")
    return plain


@pytest.mark.parametrize("p", WORLD_SIZES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_whole_form_equals_per_rank_forms(algorithm, p):
    shapes = [(n, nm) for n in (0, 1, 7, 64) for nm in (True, False)]
    if not algorithm.startswith("sds"):
        shapes = [s for s in shapes if s[1]]  # no node-merge switch
    if p == 257:  # HykSort's p^2 send lists: one small shape there
        shapes = [s for s in shapes
                  if s[0] in ((7,) if algorithm == "hyksort" else (7, 64))]
    for n, nm in shapes:
        _three_ways(algorithm, uniform(), n, p, opts=_opts(algorithm, nm),
                    what=f"n={n} nm={nm}",  # one thread leg at p=257
                    thread=p <= 50 or (n, nm) == (64, True))


@pytest.mark.parametrize("p", [3, 25, 50])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forms_agree_with_one_empty_rank(algorithm, p):
    # zipf keys everywhere; cosmology (an empty shard must keep its six
    # payload columns) on the one-node-plus-one world
    cases = [(OneEmptyRank(zipf(alpha=1.1)), nm)
             for nm in ((True, False) if algorithm.startswith("sds")
                        else (True,))]
    if p == 25:
        cases.append((OneEmptyRank(cosmology()), True))
    for wl, nm in cases:
        _three_ways(algorithm, wl, 64, p, opts=_opts(algorithm, nm),
                    what=f"nm={nm}")


@pytest.mark.parametrize("preset", ["straggler", "mixed"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_flat_equals_thread_under_faults(algorithm, preset):
    for p, n, nm in ((25, 64, True), (48, 64, False), (50, 7, True)):
        kw = dict(opts=_opts(algorithm, nm), faults=PRESETS[preset])
        _assert_same(_observed(_run(algorithm, uniform(), n, p, "flat", **kw)),
                     _observed(_run(algorithm, uniform(), n, p, "thread",
                                    **kw)), f"{preset} p={p} n={n} nm={nm}")


def _traces(res) -> list:
    assert res.failure is None, res.failure
    return [o.info["decisions"] for _, o in res.results]


@pytest.mark.parametrize("algorithm,preset", [
    ("sds", None), ("sds", "crash-pivot"), ("sds", "crash-exchange"),
    ("psrs", "crash-pivot"), ("psrs", "crash-exchange")])
def test_every_ranks_decision_trace_agrees_in_every_form(algorithm, preset):
    # a flat group shares one decision plan and forks it where verdicts
    # differ; every rank's trace must still be what its thread records.
    # p=50 is two full nodes and a partial one: the partial node's
    # node-merge verdict differs, and a crash (node merge off, so that
    # the victim still holds data) leaves its victim the trace as it
    # stood while the survivors record their recovery.
    kw = dict(opts=_opts(algorithm, preset is None),
              faults=PRESETS[preset] if preset else None)
    flat = _traces(_run(algorithm, uniform(), 64, 50, "flat", **kw))
    assert flat == _traces(_run(algorithm, uniform(), 64, 50, "thread", **kw))
    distinct = {json.dumps(t, sort_keys=True) for t in flat}
    if algorithm == "psrs":   # no crash barrier: one trace for all
        assert len(distinct) == 1
    elif preset is None:      # a full node's verdict and the partial one's
        assert flat[0][0]["measured"] != flat[48][0]["measured"]
    else:
        assert any(d["decision"] == "fault_recovery"
                   for t in flat for d in t)
        assert len(distinct) >= 2, distinct


def test_leader_oom_fails_the_leader_alone_in_every_form():
    # node merge on, every node's shards land on its leader, whose
    # capacity becomes the node's: a record a rank above its shards is
    # refused at the merge allocation, the leader still holding its own
    wl, n, p = uniform(), 64, 50
    capacity = (n + 1) * 20
    flat = _three_ways("sds", wl, n, p, capacity=capacity, thread=False)
    assert [r for r, *_ in flat["failure"]] == [0, 24, 48]  # every leader
    assert all(kind == "SimOOMError" for _, kind, _ in flat["failure"])
    # rank threads race: the first OOM aborts the world, so another
    # leader may be stopped before an allocation the flat world reaches.
    # The contract is the failure's kind, the flat peak on the ranks
    # that recorded one, and never more than the flat peak elsewhere.
    for _ in range(5):
        thread = _observed(_run("sds", wl, n, p, "thread",
                                capacity=capacity))
        assert {kind for _, kind, _ in thread["failure"]} == {"SimOOMError"}
        failed = {r for r, *_ in thread["failure"]}
        assert failed and failed <= {0, 24, 48}
        for r, (got, want) in enumerate(zip(thread["mem_peaks"],
                                            flat["mem_peaks"])):
            assert got == want if r in failed else got <= want, r


# ---------------------------------------------------------------------------
# (a') the exchange's three epilogues, path by path
# ---------------------------------------------------------------------------

#: The exchange paths: (algorithm, options).  ``tau_o=0`` sends SDS down
#: the synchronous exchange, ``tau_s=1`` takes its sort branch.
EXCHANGE_PATHS = {
    "sync-merge": ("sds", {"node_merge_enabled": False, "tau_o": 0}),
    "sync-sort": ("sds", {"node_merge_enabled": False, "tau_o": 0,
                          "tau_s": 1}),
    "sync-sort-stable": ("sds-stable", {"node_merge_enabled": False,
                                        "tau_s": 1}),
    "overlapped": ("sds", {"node_merge_enabled": False}),
}


def _observed_bytes(res) -> dict:
    """``_observed`` with every output column compared byte for byte."""
    out = _observed(res)
    if res.failure is None:
        batches = [r[1].batch for r in res.results]
        out["stats"] = [r[1].exchange for r in res.results]
        out["columns"] = [
            [(name, col.dtype.str, col.shape, col.tobytes())
             for name, col in [("key", b.keys), *b.payload.items()]]
            for b in batches]
        out["nbytes"] = [b.nbytes for b in batches]
    return out


@pytest.mark.parametrize("p", [1, 3, 25, 257])
@pytest.mark.parametrize("path", EXCHANGE_PATHS)
def test_exchange_epilogues_agree_in_every_form(path, p):
    algorithm, opts = EXCHANGE_PATHS[path]
    ran = ("overlap", "overlap-merge") if path == "overlapped" else (
        "sync", "merge" if path == "sync-merge" else "sort")
    # cosmology: six payload columns, one of them two-dimensional
    for wl, n in ((uniform(), 0), (uniform(), 1), (zipf(alpha=1.1), 64),
                  (cosmology(), 64)):
        flat = _three_ways(algorithm, wl, n, p, opts=opts,
                           observe=_observed_bytes, what=f"{path} n={n}",
                           thread=p <= 25 or n == 64)
        assert flat["failure"] is None
        if p > 1:
            assert all(st is not None and (st.mode, st.ordering) == ran
                       for st in flat["stats"]), (path, n)


def _heaviest_alone_capacity(algorithm, wl, n, p, opts) -> tuple[int, int]:
    """A capacity one byte under the highest memory peak of an unlimited
    run, and the one rank that reaches it."""
    peaks = _run(algorithm, wl, n, p, "flat", opts=opts).mem_peaks
    top = max(peaks)
    assert peaks.count(top) == 1, "need a single heaviest rank"
    return top - 1, peaks.index(top)


def _assert_thread_fails_alike(flat: dict, heavy: int, run) -> None:
    """The thread leg of an OOM comparison.  The refused rank's own
    history is deterministic: same failure, clock, phase tuples,
    counters and peak as on the flat world.  Its siblings race the
    abort it raises — one still leaving the exchange's barrier is
    stopped before charges the flat world reaches — so they may only
    fall short of the flat world, never pass it."""
    for _ in range(3):
        thread = _observed(run())
        assert thread["failure"] == flat["failure"]
        for key in ("clocks", "phase_times", "traces", "counters",
                    "mem_peaks"):
            assert thread[key][heavy] == flat[key][heavy], key
        for key in ("mem_peaks", "clocks"):
            assert all(got <= want for got, want in zip(thread[key],
                                                        flat[key])), key


@pytest.mark.parametrize("path", EXCHANGE_PATHS)
def test_exchange_oom_fails_the_heaviest_rank_alone_in_every_form(path):
    # zipf through SDS leaves destinations unequal; the heaviest one's
    # peak is an exchange allocation (receive buffer or output), which a
    # capacity one byte short refuses — for that rank only
    algorithm, opts = EXCHANGE_PATHS[path]
    wl, n, p = zipf(alpha=1.1), 64, 25
    capacity, heavy = _heaviest_alone_capacity(algorithm, wl, n, p, opts)
    flat = _three_ways(algorithm, wl, n, p, opts=opts, capacity=capacity,
                       thread=False, what=path)
    assert [(r, kind) for r, kind, _ in flat["failure"]] == [
        (heavy, "SimOOMError")]
    # everybody else finished both phases; the refused rank stopped
    # inside one, with the partial time its bracket saw
    done = [r for r in range(p) if r != heavy]
    final_phase = "exchange" if path == "overlapped" else "local_ordering"
    assert all(final_phase in flat["phase_times"][r] for r in done)
    assert flat["clocks"][heavy] <= max(flat["clocks"][r] for r in done)
    _assert_thread_fails_alike(flat, heavy, lambda: _run(
        algorithm, wl, n, p, "thread", opts=opts, capacity=capacity))


@pytest.mark.parametrize("path", ["sync-merge", "overlapped"])
def test_refused_output_allocation_stops_the_rank_mid_epilogue(
        monkeypatch, path):
    # the exchange's *second* allocation (the output, after the receive
    # buffer was released) cannot run out on its own — it never exceeds
    # the first — so refuse it by hand: rank 5's third ``alloc`` (input,
    # receive buffer, output).  By then the rank has paid its ordering
    # charge (sync) or moved its clock (overlapped) and released its
    # receive buffer; every backend must leave it exactly there.
    victim, calls = 5, {}
    real = MemoryLedger.alloc

    def alloc(self, at, nbytes):
        for g in np.atleast_1d(at).tolist():
            calls[g] = calls.get(g, 0) + 1
        if calls.get(victim) != 3 or victim not in np.atleast_1d(at):
            return real(self, at, nbytes)
        cap, self.capacity[victim] = self.capacity[victim], -1  # cannot fit
        try:
            return real(self, at, nbytes)
        finally:
            self.capacity[victim] = cap

    monkeypatch.setattr(MemoryLedger, "alloc", alloc)
    algorithm, opts = EXCHANGE_PATHS[path]

    def run(*args, **kw):
        calls.clear()
        return _run(*args, **kw)

    flat = _three_ways(algorithm, zipf(alpha=1.1), 64, 25, opts=opts,
                       thread=False, run=run)
    assert [(r, kind) for r, kind, _ in flat["failure"]] == [
        (victim, "SimOOMError")]
    last = "exchange" if path == "overlapped" else "local_ordering"
    assert flat["phase_times"][victim][last] > 0.0    # the charge landed
    # the overlapped epilogue counts after the refused statement, the
    # sync network epilogue had already run to its end
    assert ("bytes.recv" in flat["counters"][victim]) is (
        path != "overlapped")
    _assert_thread_fails_alike(flat, victim, lambda: run(
        algorithm, zipf(alpha=1.1), 64, 25, "thread", opts=opts))


def test_psrs_exchange_oom_on_a_duplicate_heavy_destination():
    # classic partitioning piles the duplicates of one value onto one
    # rank (the paper's Fig 8/10 failure): its receive buffer is refused
    wl, n, p = zipf(alpha=1.4), 64, 50
    capacity, heavy = _heaviest_alone_capacity("psrs", wl, n, p, {})
    flat = _three_ways("psrs", wl, n, p, capacity=capacity, thread=False)
    assert [(r, kind) for r, kind, _ in flat["failure"]] == [
        (heavy, "SimOOMError")]
    _assert_thread_fails_alike(flat, heavy, lambda: _run(
        "psrs", wl, n, p, "thread", capacity=capacity))


# ---------------------------------------------------------------------------
# (a'') node merge, branch by branch of the leaders' merge
# ---------------------------------------------------------------------------

def _negative_int64_batch(n, rng):
    return RecordBatch(rng.integers(-1000, 1000, n, dtype=np.int64) - 1000)


def _vector_batch(n, rng):
    return RecordBatch(rng.random(n), {"vec": rng.random((n, 3))})


#: ``(workload, p, n)``: a 16-rank last node (two node lengths, two
#: stacks: 170 rows and one, at p=4096; two rows of 2,400 keys on the
#: packed stable-argsort path and one of 1,600 on the plain one, at
#: p=64), a 2-rank last node, int64 keys below zero (the plain stable
#: argsort), a ``(n, 3)`` payload column (trailing-shape concatenation).
NODE_MERGE_SHAPES = {
    "p4096": (uniform(), 4096, 8),
    "p64": (uniform(), 64, 100),
    "p50": (uniform(), 50, 64),
    "negative-int64": (Workload("neg", _negative_int64_batch), 50, 64),
    "2d-payload": (Workload("vec", _vector_batch), 50, 64),
}


@pytest.mark.parametrize("shape", NODE_MERGE_SHAPES)
def test_node_merge_shapes_agree_in_every_form(shape):
    wl, p, n = NODE_MERGE_SHAPES[shape]
    # no thread leg at p=4096: late in a full tier-1 run, 4,096 rank
    # threads (thousands pinned to one CPU, the rest free) have taken
    # from 3 s to over 4 min for the same run; p=64 stacks the same way
    flat = _three_ways("sds", wl, n, p, observe=_observed_bytes, what=shape,
                       thread=p < 4096)
    assert flat["failure"] is None
    assert flat["active"] == [r % 24 == 0 for r in range(p)]
    assert {d["choice"] for dec in flat["decisions"] for d in dec
            if d["decision"] == "node_merge"} == {"merge"}


class _DirectSds:
    """Rank program running SDS-Sort on the batches it is handed: node
    layouts no registered workload makes, both engine entry points."""

    def __init__(self, batches):
        self.batches = [tag_provenance(b, r) for r, b in enumerate(batches)]

    def __call__(self, comm):
        return self.batches[comm.rank], sds_sort(comm,
                                                 self.batches[comm.rank])

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        outs = sds_sort_world(world, comms, self.batches, SdsParams())
        return [None if o is None else (self.batches[i], o)
                for i, o in enumerate(outs)], world.failures


def _direct_run(batches, backend, trace=False):
    return run_spmd(_DirectSds(batches), len(batches), machine=EDISON,
                    check=False, backend=backend,
                    tracer=Tracer(len(batches)) if trace else None)


@pytest.mark.parametrize("odd", ["payload-dtype", "extra-column"])
def test_a_node_of_mixed_layouts_agrees_in_every_form(odd):
    # rank 30 sits on the second node: its leader (rank 24) merges runs
    # of two layouts through the per-list merge, which promotes a payload
    # dtype or refuses a column set for that leader alone
    rng = np.random.default_rng(4)
    batches = [RecordBatch(rng.random(64), {"w": rng.random(64)})
               for _ in range(50)]
    w = batches[30].payload["w"]
    batches[30] = RecordBatch(batches[30].keys, (
        {"w": (w * 1000).astype(np.int32)} if odd == "payload-dtype"
        else {"w": w, "extra": w}))
    flat = _observed_bytes(_direct_run(batches, "flat"))
    _assert_same(flat, _observed_bytes(_direct_run(batches, "flat", True)),
                 "flat traced")
    if odd == "payload-dtype":
        assert flat["failure"] is None
        assert flat["columns"][24][1][:2] == ("w", "<f8")     # promoted
        _assert_same(flat, _observed_bytes(_direct_run(batches, "thread")),
                     "thread")
    else:
        assert [(r, kind) for r, kind, _ in flat["failure"]] == [
            (24, "ValueError")]
        _assert_thread_fails_alike(
            flat, 24, lambda: _direct_run(batches, "thread"))


def test_a_leader_refused_by_memory_fails_alone_in_every_form():
    # p=26: a 24-rank node and a 2-rank node; a leader's capacity is
    # its node's, so 1.25 shards a rank holds the big node's merge (25
    # shards in 30) and refuses the small one's (3 in 2.5)
    wl, n, p = uniform(), 64, 26
    capacity = 5 * n * 20 // 4
    flat = _three_ways("sds", wl, n, p, capacity=capacity, thread=False)
    assert [(r, kind) for r, kind, _ in flat["failure"]] == [
        (24, "SimOOMError")]
    assert flat["mem_peaks"][0] == 25 * n * 20    # its shard + its node's
    _assert_thread_fails_alike(flat, 24, lambda: _run(
        "sds", wl, n, p, "thread", capacity=capacity))


def test_whole_form_outputs_outlive_the_run():
    # outputs are views of arrays the exchange shares between ranks:
    # they must keep those alive on their own
    kw = dict(n_per_rank=64, p=50, mem_factor=None, seed=2,
              backend="flat", keep_outputs=True)
    res = run_sort("psrs", cosmology(), **kw)
    outputs = res.outputs
    want = [[(name, col.copy()) for name, col in
             [("key", b.keys), *b.payload.items()]] for b in outputs]
    del res
    gc.collect()
    np.random.default_rng(0).random(1 << 20)       # churn the heap
    for b, cols in zip(outputs, want):
        for (name, col), got in zip(cols, [b.keys, *b.payload.values()]):
            assert np.array_equal(got, col), name
    keys = np.concatenate([b.keys for b in outputs])
    assert np.all(keys[1:] >= keys[:-1])


@pytest.mark.parametrize("mutant", ["clock", "bytes.recv"])
def test_a_mutated_whole_epilogue_is_caught(monkeypatch, mutant):
    # the comparisons above must see an epilogue that drifts, on the
    # columnar world alone, by one ulp-scale factor or one byte
    real = pipeline._sync_exchange_network

    def drifting(world, comms, shared, send_nbytes):
        with monkeypatch.context() as patch:
            if mutant == "clock":  # t + dt * (1 + 1e-7)
                exact = CostModel.alltoallv_time
                patch.setattr(
                    CostModel, "alltoallv_time",
                    lambda *a, **k: exact(*a, **k) * (1 + 1e-7))
            outs = real(world, comms, shared, send_nbytes)
        if mutant == "bytes.recv":
            comms[0]._world.counters.add(comms[-1].grank, "bytes.recv", 1)
        return outs

    algorithm, opts = EXCHANGE_PATHS["sync-merge"]
    _three_ways(algorithm, uniform(), 64, 25, opts=opts, what="unmutated")
    thread = _observed(_run(algorithm, uniform(), 64, 25, "thread",
                            opts=opts))
    monkeypatch.setattr(pipeline, "_sync_exchange_network", drifting)
    for trace in (False, True):
        mutated = _observed(_run(algorithm, uniform(), 64, 25, "flat",
                                 opts=opts, trace=trace))
        with pytest.raises(AssertionError, match="clocks" if mutant == "clock"
                           else "counters"):
            _assert_same(mutated, thread, "mutant")


@pytest.mark.parametrize("damage,message", [
    ("span", "displacements must span [0, len) with p+1 bounds"),
    ("step", "displacements must be non-decreasing"),
])
def test_bad_cuts_fail_their_rank_alone_in_every_form(monkeypatch, damage,
                                                      message):
    # the world checks all cuts in one pass; when that pass objects, the
    # per-rank checks name the offender, with their own exception
    real = pipeline.partition_cuts

    def damaged(rows, pg, variant, layout):
        out = real(rows, pg, variant, layout)
        for cuts in out:
            if cuts.offs[-1] == 63:           # rank 3 alone holds 63 records
                offs = cuts.offs.copy()
                if damage == "span":
                    offs[-1] += 1
                else:
                    offs[1] = offs[2] + 1
                cuts.offs = offs
        return out

    class Ragged(Workload):
        def __init__(self):
            super().__init__("ragged", uniform().fn)

        def shard(self, n, p, rank, seed=0):
            return super().shard(63 if rank == 3 else n, p, rank, seed)

    monkeypatch.setattr(pipeline, "partition_cuts", damaged)
    flat = _three_ways("psrs", Ragged(), 64, 25, thread=False)
    assert flat["failure"] == [(3, "ValueError", message)]
    thread = _observed(_run("psrs", Ragged(), 64, 25, "thread"))
    assert thread["failure"] == flat["failure"]


def test_run_sort_result_is_form_independent():
    # the public surface: documents are plain floats, ints, lists, dicts
    kw = dict(n_per_rank=64, p=50, mem_factor=None, seed=5)
    plain = run_sort("sds", uniform(), backend="flat", **kw)
    traced = run_sort("sds", uniform(), backend="flat", trace=True, **kw)
    thread = run_sort("sds", uniform(), backend="thread", **kw)
    for other in (traced, thread):
        assert other.elapsed == plain.elapsed
        assert other.phase_times == plain.phase_times
        assert other.loads == plain.loads
        for key in ("mem_peaks", "decisions", "p_active", "bytes_sent",
                    "messages"):
            assert other.extras[key] == plain.extras[key], key
    assert type(plain.elapsed) is float
    assert all(type(v) is float for v in plain.phase_times.values())
    assert all(type(v) is int for v in plain.loads)
    assert all(type(v) is int for v in plain.extras["mem_peaks"])


# ---------------------------------------------------------------------------
# (c) phase brackets record partial time when the world aborts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("traced", [False, True])
def test_phase_all_records_partial_time_on_abort(traced):
    p = 6
    sim = SimWorld(p, EDISON, tracer=Tracer(p) if traced else None)
    comms = make_world_comms(sim)
    world = ColumnarWorld(sim)
    world.charge_compute(comms, [0.5 * (r + 1) for r in range(p)])
    t0 = sim.clock.tolist()
    with pytest.raises(FlatAbort):
        with world.phase(comms[1:], "work"):
            world.charge_compute(comms, [0.25] * p)
            with world.phase(comms[:4], "inner"):
                world.charge_compute(comms[:2], [1.0, 2.0])
                raise FlatAbort
    # exactly what ``with comm.phase(name)`` records per rank
    ref = SimWorld(p, EDISON)
    rcomms = make_world_comms(ref)
    for r, c in enumerate(rcomms):
        c.charge(0.5 * (r + 1))
    for r, c in enumerate(rcomms):
        try:
            if r >= 1:
                with c.phase("work"):
                    c.charge(0.25)
                    _inner(c, r)
            else:
                c.charge(0.25)
                _inner(c, r)
        except FlatAbort:
            pass
    got, want = _views(sim), _views(ref)
    assert got.clocks == want.clocks
    assert got.phase_times == want.phase_times
    assert got.traces == want.traces
    assert got.phase_times[0] == {"inner": 1.0}
    assert got.phase_times[5] == {"work": 0.25}
    assert got.traces[1] == [(t0[1] + 0.25, t0[1] + 2.25, "inner"),
                             (t0[1], t0[1] + 2.25, "work")]
    if traced:  # the tracer saw each bracket close, where it closed
        assert [[(a, b, name) for a, b, cat, name, _ in spans
                 if cat == "phase"] for spans in sim.tracer.rank_spans()
                ] == got.traces


def _views(sim: SimWorld) -> SpmdResult:
    """A world's per-rank ledger views."""
    return SpmdResult(sim, [None] * sim.p)


def _inner(c, r):
    if r < 4:
        with c.phase("inner"):
            if r < 2:
                c.charge(1.0 + r)
            raise FlatAbort
    raise FlatAbort


@pytest.mark.parametrize("traced", [False, True])
def test_charge_verbs_fail_the_offending_rank_only(traced):
    p = 4
    sim = SimWorld(p, EDISON, mem_capacity=100,
                   tracer=Tracer(p) if traced else None)
    comms = make_world_comms(sim)
    world = ColumnarWorld(sim)
    world.alloc(comms, [10, 200, 30, 100])
    world.charge_compute(comms, [1.0, 1.0, -1.0, 2.0])
    world.free(comms, [5, 0, -1, 0])
    assert [(r, type(e).__name__, str(e)) for r, e in world.failures] == [
        (1, "SimOOMError", "rank 1: allocation of 200 B would exceed "
                           "capacity (0 B in use of 100 B)"),
        (2, "ValueError", "cannot charge negative time"),
        (2, "ValueError", "free size must be non-negative"),
    ]
    assert sim.clock.tolist() == [1.0, 1.0, 0.0, 2.0]
    assert sim.mem.in_use.tolist() == [5, 0, 30, 100]
    assert sim.mem.peak.tolist() == [10, 0, 30, 100]
    assert world.dead == {1, 2}


# ---------------------------------------------------------------------------
# (d) the hooks live in the verbs' loops: nothing is replayed rank by rank
#     (a lost collective: tests/test_faults.py; what a lane's epilogue
#     costs: tests/test_exchange.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["sds", "sds-stable", "psrs"])
def test_a_hooked_flat_world_replays_no_comm_chain(monkeypatch, algorithm):
    # what a rank can still book on itself: its phase bracket, a compute
    # charge, a clock overwrite.  A columnar world never opens a rank's
    # bracket; it charges one rank by hand (the pivot root pays for its
    # own sort); and it never overwrites one rank's clock: every epilogue
    # writes its membership's clocks, fault debt folded in, in one
    # statement (``SimWorld.set_clocks``), traced and under a plan too
    calls = {"charge": 0, "set_clock": 0}

    def replayed(*args, **kwargs):
        raise AssertionError("a columnar world opened a rank's bracket")

    def counted(name):
        real = getattr(Comm, name)

        def method(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return method

    monkeypatch.setattr(Comm, "phase", replayed)
    for name in calls:
        monkeypatch.setattr(Comm, name, counted(name))
    kw = dict(n_per_rank=64, p=50, mem_factor=None, backend="flat")
    assert run_sort(algorithm, uniform(), **kw).ok
    assert calls == {"charge": 1, "set_clock": 0}
    assert run_sort(algorithm, uniform(), trace=True, **kw).ok
    assert calls == {"charge": 2, "set_clock": 0}
    assert run_sort(algorithm, uniform(), faults=PRESETS["mixed"], **kw).ok
    assert calls == {"charge": 3, "set_clock": 0}


def test_a_comm_is_a_view_that_books_nothing():
    p = 8
    plan = PRESETS["straggler"].compile(p, 1)
    slow = [g for g in range(p) if plan.slowdown(g) != 1.0]
    sim = SimWorld(p, EDISON, faults=plan, tracer=Tracer(p))
    for _ in range(2):  # the straggler mark is the world's, once a run
        comms = [Comm(sim, sim.world_ctx, r) for r in range(p)]
    assert len(slow) == 2
    assert _views(sim).counters == [
        {"faults.straggler": 1.0} if r in slow else {} for r in range(p)]
    assert [r for r, ins in enumerate(sim.tracer.rank_instants())
            if ins] == slow
    assert not hasattr(comms[0], "__dict__")
    # two handles of one rank owe the same debt: one books it, the other's
    # clock overwrite settles it
    a, b = Comm(sim, sim.world_ctx, 3), comms[3]
    LANE._book_penalties((a,), [CollectivePenalty(0.25, 0, 0, 0, False)], 0,
                         p)
    b.set_clock(1.0)
    assert a.clock == b.clock == 1.25 and sim.debt.tolist() == [0.0] * p


# ---------------------------------------------------------------------------
# (e) every verb is written once: ``Comm.<verb>`` on rank threads is the
#     ``World`` verb a columnar world runs on the membership
# ---------------------------------------------------------------------------

def _payload(rank: int) -> np.ndarray:
    return np.arange(rank + 1, dtype=np.int64)     # sizes differ by rank


def _sends(c: Comm) -> tuple[RecordBatch, Cuts]:
    """A send batch and its cuts: ``rank + 2 d`` records to ``d`` (rank
    0's bucket to itself is empty)."""
    sizes = [c.rank + 2 * d for d in range(c.size)]
    return (RecordBatch(np.full(sum(sizes), c.rank, dtype=np.int64)),
            Cuts.from_displs(np.concatenate(([0], np.cumsum(sizes)))))


def _total(objs: list) -> int:
    return sum(o.size for o in objs)


def _color(c: Comm):
    return None if c.rank == 2 else c.rank % 2


def _membership(children: list) -> list[list[Comm]]:
    """Children of a columnar split, one rank-ordered list a context."""
    by_ctx: dict[int, list[Comm]] = {}
    for child in children:
        if child is not None:
            by_ctx.setdefault(id(child._ctx), []).append(child)
    return [sorted(m, key=lambda c: c.rank) for m in by_ctx.values()]


def _seat(child, summed) -> tuple | None:
    return None if child is None else (
        child.rank, child.size, child._ctx.group, summed)


def _split_rank(c: Comm):
    child = c.split(_color(c), key=-c.rank)
    return _seat(child, None if child is None else child.allreduce(c.grank))


def _split_world(world, comms):
    children = world.split(comms, [_color(c) for c in comms],
                           [-c.rank for c in comms])
    summed = {}
    for members in _membership(children):
        sums = world.allreduce(members, [c.grank for c in members])
        summed.update((c.grank, v) for c, v in zip(members, sums))
    return [_seat(child, summed.get(c.grank))
            for c, child in zip(comms, children)]


#: verb -> (what a rank thread calls, the world verb on a membership);
#: roots are the *last* rank and deposits differ by rank, so a verb that
#: mistook a lane's list index (always 0) for its rank would show
VERBS = {
    "barrier": (lambda c: c.barrier(),
                lambda w, cs: [w.barrier(cs)] * len(cs)),
    "bcast": (lambda c: c.bcast(_payload(c.rank), c.size - 1),
              lambda w, cs: w.bcast(cs, [_payload(c.rank) for c in cs],
                                    len(cs) - 1)),
    "gather": (lambda c: c.gather(_payload(c.rank), c.size - 1),
               lambda w, cs: w.gather(cs, [_payload(c.rank) for c in cs],
                                      len(cs) - 1)),
    "allreduce": (lambda c: c.allreduce(c.rank + 1),
                  lambda w, cs: w.allreduce(cs, [c.rank + 1 for c in cs])),
    # list "sums" of two lengths: one charge per distinct payload size
    "allreduce-op": (
        lambda c: c.allreduce([c.rank] * (1 + c.rank % 2),
                              lambda a, b: a + b),
        lambda w, cs: w.allreduce(cs, [[c.rank] * (1 + c.rank % 2)
                                       for c in cs], lambda a, b: a + b)),
    "allgather": (lambda c: c.allgather(_payload(c.rank)),
                  lambda w, cs: w.allgather(cs, [_payload(c.rank)
                                                 for c in cs])),
    "allgather_staged": (
        lambda c: c.allgather_staged(_payload(c.rank), _total),
        lambda w, cs: w.allgather_staged(cs, [_payload(c.rank) for c in cs],
                                         _total)),
    "split": (_split_rank, _split_world),
    "alltoallv": (lambda c: c.alltoallv(*_sends(c)),
                  lambda w, cs: w.alltoallv(cs, *zip(*map(_sends, cs)))),
}


class _VerbProgram:
    """One verb inside a phase bracket, entered at unequal clocks."""

    def __init__(self, verb: str) -> None:
        self.verb = verb
        self.per_rank, self.whole = VERBS[verb]

    def __call__(self, comm):
        comm.charge(1e-3 * (comm.rank + 1))
        with comm.phase(self.verb):
            return self.per_rank(comm)

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        world.charge_compute(comms, [1e-3 * (c.rank + 1) for c in comms])
        with world.phase(comms, self.verb):
            outs = self.whole(world, comms)
        return outs, world.failures


def _plain(value):
    """Verb outputs as values ``==`` can compare."""
    if isinstance(value, RecordBatch):
        return ("batch", value.keys.tolist())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("mode", ["plain", "traced", "mixed"])
@pytest.mark.parametrize("p", [1, 5, 25])
def test_comm_verbs_on_threads_equal_world_verbs_on_the_membership(p, mode):
    for verb in VERBS:
        seen = {}
        for backend in ("thread", "flat"):
            tracer = Tracer(p) if mode == "traced" else None
            res = run_spmd(
                _VerbProgram(verb), p, machine=EDISON, check=False,
                backend=backend, tracer=tracer,
                faults=PRESETS["mixed"].compile(p, 11)
                if mode == "mixed" else None)
            assert res.failure is None, (verb, backend)
            seen[backend] = {
                "outs": _plain(res.results), "clocks": res.clocks,
                "phase_times": res.phase_times, "traces": res.traces,
                "counters": [{k: v for k, v in c.items()
                              if k not in HOST_COUNTERS}
                             for c in res.counters],
                "mem_peaks": res.mem_peaks,
                "trace": tracer and TraceReport.from_run(
                    tracer, clocks=res.clocks).as_dict(),
            }
        _assert_same(seen["thread"], seen["flat"], f"{verb} p={p} {mode}")


def test_a_lane_split_builds_its_own_child_and_no_other(monkeypatch):
    # the columnar epilogue seats a whole membership; a lane running it
    # must seat itself alone, or a p-rank thread world builds p^2 handles
    p, built = 512, []
    real = Comm.__init__

    def counted(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(Comm, "__init__", counted)
    res = run_spmd(lambda comm: comm.split(comm.rank % 4).size, p,
                   machine=EDISON, backend="thread")
    assert res.results == [p // 4] * p
    assert len(built) <= 2 * p            # the world's handles + a child each


def test_charge_verbs_and_brackets_take_no_rank_at_all():
    # a lane that is not among the ranks a phase charges hands in nothing
    sim = SimWorld(2, EDISON, tracer=Tracer(2))
    for world in (LANE, ColumnarWorld(sim)):
        world.charge_compute([], [])
        world.alloc([], [])
        world.free([], [])
        world.trace_counter([], "kernel.sort.records", [])
        with world.phase([], "nobody"):
            pass
    assert _views(sim).clocks == [0.0, 0.0] and _views(sim).traces == [[], []]


#: the verbs that exist once, on ``World``
WRITTEN_ONCE = ("barrier", "bcast", "gather", "allreduce", "allgather_staged",
                "allgather", "split", "alltoallv", "_finish_all",
                "_book_alltoallv", "node_funnel", "_book_penalties",
                "charge_compute", "alloc", "free", "trace_counter")


def _class_defs(module) -> dict[str, dict[str, ast.FunctionDef]]:
    tree = ast.parse(inspect.getsource(module))
    return {cls.name: {f.name: f for f in cls.body
                       if isinstance(f, ast.FunctionDef)}
            for cls in tree.body if isinstance(cls, ast.ClassDef)}


def test_every_verb_has_one_body():
    from repro.mpi import comm, flatworld, world
    views = {**_class_defs(world), **_class_defs(flatworld)}
    assert set(WRITTEN_ONCE) <= set(views["World"])
    assert not set(WRITTEN_ONCE) & set(views["LaneWorld"])
    assert not set(WRITTEN_ONCE) & set(views["ColumnarWorld"])
    assert "phase" not in views["LaneWorld"]
    # the columnar bracket is the one bracket behind the cancel poll
    assert [ast.unparse(st) for st in views["ColumnarWorld"]["phase"].body
            ] == ["self.poll_cancel()", "return super().phase(comms, name)"]
    # a rank's collectives are the lane's, called on itself
    methods = _class_defs(comm)["Comm"]
    assert "_finish_coll" not in methods
    # and so are its compute charge and tracer counter
    for name, verb in [*zip(WRITTEN_ONCE[:8], WRITTEN_ONCE[:8]),
                       ("charge", "charge_compute"),
                       ("trace_counter", "trace_counter")]:
        body = [st for st in methods[name].body
                if not (isinstance(st, ast.Expr)
                        and isinstance(st.value, ast.Constant))]  # docstring
        assert len(body) == 1, name
        assert f"LANE.{verb}((self,)" in ast.unparse(body[0]), name
    assert ast.unparse(methods["phase"].body[-1]) == (
        "return phase_all((self,), name)")


@pytest.mark.parametrize("first", ["world", "comm", "flatworld"])
def test_comm_and_world_import_each_other_at_module_level(first):
    from repro.mpi import comm, world
    for module in (comm, world):
        tree = ast.parse(inspect.getsource(module))
        inner = [node for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.Lambda))
                 for node in ast.walk(fn)
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not inner, module.__name__
    # whichever module a fresh interpreter asks for first
    done = subprocess.run(
        [sys.executable, "-c",
         f"import repro.mpi.{first} as m; from repro.mpi.comm import LANE; "
         "from repro.mpi.world import Comm; print(LANE.__class__.__name__)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "LaneWorld"


# ---------------------------------------------------------------------------
# (b) the batched kernels equal their per-rank definitions
# ---------------------------------------------------------------------------

def _assert_batches_equal(got: RecordBatch, want: RecordBatch) -> None:
    assert got.keys.dtype == want.keys.dtype
    assert got.keys.tolist() == want.keys.tolist()
    assert got.columns == want.columns
    for name in want.columns:
        assert got.payload[name].dtype == want.payload[name].dtype, name
        assert got.payload[name].shape == want.payload[name].shape, name
        assert got.payload[name].tolist() == want.payload[name].tolist()
    assert got.nbytes == want.nbytes


def _sorted_run(rng, n, key_dtype, wide):
    # few distinct keys: every merge has to break ties by run order
    keys = np.sort(rng.integers(-3, 4, n)).astype(key_dtype)
    payload = {"tag": rng.integers(0, 1 << 30, n).astype(np.int32)}
    if wide:
        payload["vec"] = rng.random((n, 2))
    return RecordBatch(keys, payload)


def _pending_run(rng, n, key_dtype, wide):
    # an unsorted shard as a local sort leaves it: a one-row table of
    # its input, the stable permutation and the sorted keys
    rows = RecordBatch(rng.integers(-3, 4, n).astype(key_dtype),
                       {"tag": rng.integers(0, 1 << 30, n).astype(np.int32),
                        **({"vec": rng.random((n, 2))} if wide else {})})
    perm = np.argsort(rows.keys, kind="stable")
    return SortedRows([rows], perm[None], rows.keys[perm][None])


def _assert_merged_equal(run_lists, merged):
    # the oracle merges the runs' sorted batches (and, for a list of
    # mismatched runs, promotes or refuses as kway_merge_batches does)
    want = kway_merge_run_lists([[r.batch(0) for r in runs]
                                 for runs in run_lists])
    assert len(merged) == len(run_lists)
    for got, oracle in zip(merged, want):
        if isinstance(oracle, Exception):
            assert type(got) is type(oracle) and str(got) == str(oracle)
        else:
            _assert_batches_equal(got, oracle)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([1, 2, 3, 24]),
       st.integers(1, 5), st.sampled_from([0, 1, 2, 5, 9, 100]),
       st.sampled_from([np.int64, np.float64]), st.booleans())
def test_node_merge_of_every_leader_equals_per_node_merge(seed, k, nodes, n,
                                                          key_dtype, wide):
    rng = np.random.default_rng(seed)
    run_lists = [[_pending_run(rng, n, key_dtype, wide) for _ in range(k)]
                 for _ in range(nodes)]
    # a ragged last node (fewer, uneven runs) and one of another dtype
    run_lists.append([_pending_run(rng, m, key_dtype, wide)
                      for m in rng.integers(0, 6, max(1, k - 1))])
    run_lists.append([_pending_run(rng, n, np.int32, wide)
                      for _ in range(k)])
    _assert_merged_equal(run_lists, merge_sorted_rows(run_lists))


def test_node_merge_leaves_mismatched_runs_to_the_per_list_merge():
    rng = np.random.default_rng(0)
    good = [[_pending_run(rng, 4, np.float64, False) for _ in range(3)]
            for _ in range(2)]
    mixed_dtype = [_pending_run(rng, 4, np.float64, False),
                   _pending_run(rng, 4, np.float64, False),
                   _pending_run(rng, 4, np.int64, False)]
    other_schema = [_pending_run(rng, 4, np.float64, False),
                    _pending_run(rng, 4, np.float64, True),
                    _pending_run(rng, 4, np.float64, False)]
    run_lists = good + [mixed_dtype, other_schema, []]
    merged = merge_sorted_rows(run_lists)
    _assert_merged_equal(run_lists, merged)
    # the per-list merge promotes one list and refuses another, that
    # list alone: its exception comes back in its slot
    assert merged[2].keys.dtype == np.float64
    assert isinstance(merged[3], ValueError)
    assert "schema mismatch" in str(merged[3])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(1, 9), st.integers(0, 2**31 - 1),
       st.data())
def test_shards_equals_shard_per_rank(n, p, seed, data):
    ranks = data.draw(st.lists(st.integers(0, p - 1), max_size=p))
    for wl in map(by_name, registered_names()):
        for got, r in zip(wl.shards(n, p, seed, ranks), ranks, strict=True):
            _assert_batches_equal(got, wl.shard(n, p, r, seed))
        whole = wl.shards(n, p, seed)
        assert len(whole) == p
        _assert_batches_equal(whole[p - 1], wl.shard(n, p, p - 1, seed))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=8),
       st.integers(0, 2**31 - 1), st.booleans())
def test_world_tagging_equals_tag_provenance(lengths, seed, wide):
    rng = np.random.default_rng(seed)
    ranks = [int(r) for r in rng.permutation(100)[:len(lengths)]]
    batches = [None if n is None else _sorted_run(rng, n, np.float64, wide)
               for n in lengths]
    tagged = tag_provenance_world(batches, ranks)
    assert len(tagged) == len(batches)
    for got, batch, rank in zip(tagged, batches, ranks):
        if batch is None:
            assert got is None
        else:
            _assert_batches_equal(got, tag_provenance(batch, rank))


# ---------------------------------------------------------------------------
# the collector is paused for a flat world's span
# ---------------------------------------------------------------------------

@pytest.fixture
def collector_off():
    """Hold the cyclic collector off: whatever the test makes that only
    it could free is still there for ``gc.collect()`` to count."""
    assert gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("mode", ["plain", "traced", "mixed-faults"])
def test_ok_flat_runs_make_no_cycles(algorithm, mode, collector_off):
    # the invariant the pause rests on: every object of an ok run dies
    # by reference count.  A back-reference (Comm <-> SimWorld, a plan
    # that holds its context...) shows up here as unreachable objects.
    kw = dict(n_per_rank=64, p=50, mem_factor=None, backend="flat",
              trace=mode == "traced",
              faults=PRESETS["mixed"] if mode == "mixed-faults" else None)
    assert run_sort(algorithm, zipf(1.1), seed=1, **kw).ok
    gc.collect()     # a first call's imports and caches may leave some
    before = len(gc.get_objects())
    for seed in range(2, 6):
        assert run_sort(algorithm, zipf(1.1), seed=seed, **kw).ok
    assert not gc.isenabled()
    assert len(gc.get_objects()) == before
    assert gc.collect() == 0


def test_a_cycle_in_the_world_is_caught(monkeypatch, collector_off):
    # the mutant the test above exists for
    init = SimWorld.__init__

    def back_referencing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.world_ctx.sim = self

    kw = dict(n_per_rank=64, p=50, mem_factor=None, backend="flat")
    assert run_sort("sds", uniform(), **kw).ok
    gc.collect()
    assert run_sort("sds", uniform(), **kw).ok
    assert gc.collect() == 0
    monkeypatch.setattr(SimWorld, "__init__", back_referencing)
    assert run_sort("sds", uniform(), **kw).ok
    assert gc.collect() > 0


class _Probe:
    """A flat program that reports the collector's state from inside
    the run, then ends the way it is told to."""

    def __init__(self, ending="ok"):
        self.ending = ending
        self.inside = None

    def flat_run(self, comms):
        self.inside = gc.isenabled()
        if self.ending == "raise":
            raise RuntimeError("program blew up")
        if self.ending == "fail":
            return [None] * len(comms), [(1, ValueError("rank 1 failed"))]
        return [r for r in range(len(comms))], []


class _SetAfter:
    """A cancel event that fires at the ``n``-th poll (mid-run)."""

    def __init__(self, n):
        self.polls, self.n = 0, n

    def is_set(self):
        self.polls += 1
        return self.polls > self.n


def _leader_oom(check):
    # the paper's algorithm with a shard and a record a rank: node
    # merge puts 24 shards on a leader still holding its own
    prog = _SortProgram("sds", uniform(), 2000, 0, {})
    return run_spmd(prog, 48, machine=EDISON, mem_capacity=40_020,
                    check=check, backend="flat")


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_what_it_was_after_every_ending(enabled):
    assert gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        ok = _Probe()
        assert run_spmd(ok, 4, backend="flat").results == [0, 1, 2, 3]
        assert ok.inside is False and gc.isenabled() is enabled

        failing = _Probe("fail")
        res = run_spmd(failing, 4, backend="flat", check=False)
        assert res.failure.ranks == (1,)
        assert failing.inside is False and gc.isenabled() is enabled
        with pytest.raises(RankFailure):
            run_spmd(_Probe("fail"), 4, backend="flat")
        assert gc.isenabled() is enabled

        raising = _Probe("raise")
        with pytest.raises(RuntimeError, match="program blew up"):
            run_spmd(raising, 4, backend="flat", check=False)
        assert raising.inside is False and gc.isenabled() is enabled

        assert _leader_oom(check=False).failure.ranks == (0, 24)
        assert gc.isenabled() is enabled
        with pytest.raises(RankFailure, match="SimOOMError"):
            _leader_oom(check=True)
        assert gc.isenabled() is enabled

        cancel = _SetAfter(4)
        res = run_sort("sds", uniform(), n_per_rank=64, p=600,
                       mem_factor=None, backend="flat", cancel=cancel)
        assert "RunCancelled" in res.failure and cancel.polls > 4
        assert gc.isenabled() is enabled

        assert run_sort("psrs", uniform(), n_per_rank=64, p=50,
                        mem_factor=None, backend="flat").ok
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


class _Held(_Probe):
    """Stays inside the run until released."""

    def __init__(self):
        super().__init__()
        self.entered, self.release = threading.Event(), threading.Event()

    def flat_run(self, comms):
        self.inside = gc.isenabled()
        self.entered.set()
        assert self.release.wait(30)
        return [None] * len(comms), []


@pytest.mark.parametrize("first_out", ["first-in", "last-in"])
def test_overlapping_flat_runs_never_leave_the_collector_off(first_out):
    # two service workers: whoever found the collector on restores it,
    # so the other may run on with it enabled (part of the saving
    # lost) — it is never left off
    assert gc.isenabled()
    a, b = _Held(), _Held()
    threads = {prog: threading.Thread(
        target=run_spmd, args=(prog, 2), kwargs={"backend": "flat"})
        for prog in (a, b)}
    try:
        for prog in (a, b):
            threads[prog].start()
            assert prog.entered.wait(30)
        assert (a.inside, b.inside) == (False, False)
        assert not gc.isenabled()
        leaver, stayer = (a, b) if first_out == "first-in" else (b, a)
        leaver.release.set()
        threads[leaver].join(30)
        assert not threads[leaver].is_alive()
        assert gc.isenabled() is (leaver is a)
        stayer.release.set()
        threads[stayer].join(30)
        assert not threads[stayer].is_alive()
        assert gc.isenabled()
    finally:
        a.release.set()
        b.release.set()
        gc.enable()


class _BrokenRank(Workload):
    """Rank 1's shard generator raises."""

    def __init__(self) -> None:
        super().__init__("broken-rank", uniform().fn)

    def shard(self, n, p, rank, seed=0):
        if rank == 1:
            raise RuntimeError("generator blew up")
        return super().shard(n, p, rank, seed)


def test_failed_flat_runs_do_not_pile_up(collector_off):
    # A raised failure owns a cycle — exception -> traceback -> the
    # frames of the whole call stack -> whoever holds the exception —
    # that turns to garbage only once the caller lets go of the result,
    # so no sweep inside the run can free it.  What the exit sweep
    # guarantees, with no automatic collection to rely on (a paused
    # world never ages anything into one): nothing else is left
    # unreachable, and a failed run frees the failed runs before it.
    def failed_run():
        res = run_sort("sds", _BrokenRank(), n_per_rank=64, p=48,
                       backend="flat")
        assert "generator blew up" in res.failure

    run_sort("sds", uniform(), n_per_rank=64, p=48, mem_factor=None,
             backend="flat")                                  # warm
    held = run_spmd(_SortProgram("sds", _BrokenRank(), 64, 0, {}), 48,
                    machine=EDISON, check=False, backend="flat")
    assert gc.collect() == 0          # swept at exit; the rest is held
    del held
    assert gc.collect() > 0
    # a refusal (the leader's OOM) is recorded, never raised: no cycle
    held = _leader_oom(check=False)
    del held
    assert gc.collect() == 0
    failed_run()
    one = len(gc.get_objects())
    for _ in range(5):
        failed_run()
    assert len(gc.get_objects()) == one
    assert not gc.isenabled()
    assert gc.collect() > 0 and gc.collect() == 0 and gc.garbage == []


def test_every_rank_refused_in_the_sync_network_epilogue():
    # the whole ordering epilogue is then handed no ranks at all
    kw = dict(n_per_rank=500, p=64, mem_factor=1.0)
    flat = run_sort("psrs", uniform(), backend="flat", **kw)
    traced = run_sort("psrs", uniform(), backend="flat", trace=True, **kw)
    assert flat.oom and flat.failure == traced.failure
    assert flat.failure.startswith("rank 0: SimOOMError")
    assert run_sort("psrs", uniform(), backend="thread", **kw).oom


# ---------------------------------------------------------------------------
# a budget that cannot flake: Python calls per rank
# ---------------------------------------------------------------------------

#: Flat SDS, p=1024 x 64: measured 14.1 (95.5 at first; the history is
#: in CHANGELOG.md), plus 10 %.  A count, not a time: it repeats exactly
#: on any host and trips when a per-rank ``Comm`` call chain, ledger
#: loop, payload ``take`` or communicator returns (2-10 calls each).
CALLS_PER_RANK_BUDGET = 15.6


#: Flat PSRS, p=1024 x 64: measured 25.1 (144.4 at first), plus 10 %.
#: What is left per rank is one output ``RecordBatch``, its context and
#: its outcome.
PSRS_CALLS_PER_RANK_BUDGET = 27.6


def _calls_per_rank(algorithm: str, p: int) -> float:
    kw = dict(n_per_rank=64, p=p, mem_factor=None, backend="flat")
    run_sort(algorithm, by_name("uniform"), **kw)  # imports, caches
    prof = cProfile.Profile()
    prof.enable()
    res = run_sort(algorithm, by_name("uniform"), **kw)
    prof.disable()
    assert res.ok
    # summed per code object, as the ledger's py_calls_per_rank does
    return sum(entry.callcount for entry in prof.getstats()) / p


def test_flat_sds_python_calls_per_rank_budget():
    calls = _calls_per_rank("sds", 1024)
    assert calls <= CALLS_PER_RANK_BUDGET, calls


def test_flat_psrs_python_calls_per_rank_budget():
    calls = _calls_per_rank("psrs", 1024)
    assert calls <= PSRS_CALLS_PER_RANK_BUDGET, calls
