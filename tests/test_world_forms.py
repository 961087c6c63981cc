"""The two forms of per-rank bookkeeping, compared.

Every collective epilogue, phase bracket and charge exists as a
per-rank ``Comm`` method (the definition: rank threads run it through
the lane view, a traced or fault-injected columnar world replays it)
and as a whole-membership loop in ``ColumnarWorld`` (a flat world with
no tracer and no fault plan).  These tests run the same sort through

* flat, untraced — the whole-membership form,
* flat with a tracer — the per-rank form on the columnar world,
* thread — the per-rank form on rank threads,

and require every simulated observable to be equal: clocks, phase
times, phase traces, counters, memory peaks, decisions, loads, outputs
and the shape of a failure.  Under a fault plan both flat and thread
take the per-rank form; they are compared too.
"""

from __future__ import annotations

import ast
import cProfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import PRESETS
from repro.machine import EDISON
from repro.mpi import (
    ColumnarWorld,
    FlatAbort,
    SimWorld,
    make_world_comms,
    run_spmd,
)
from repro.obs import Tracer
from repro.records import (
    RecordBatch,
    kway_merge_batches,
    kway_merge_batches_stacked,
    tag_provenance,
    tag_provenance_world,
)
from repro.runner import _SortProgram, run_sort
from repro.workloads import Workload, by_name, cosmology, uniform, zipf

#: Host-wall counters: no engine reproduces them.
WALL_COUNTERS = ("coll.sync_wait", "p2p.wait")

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
        "counters": [{k: v for k, v in c.items() if k not in WALL_COUNTERS}
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
# (a) whole form == per-rank form == thread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", WORLD_SIZES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_whole_form_equals_per_rank_forms(algorithm, p):
    wl = uniform()
    shapes = [(n, nm) for n in (0, 1, 7, 64) for nm in (True, False)]
    if not algorithm.startswith("sds"):
        shapes = [s for s in shapes if s[1]]  # no node-merge switch
    if p == 257:  # HykSort's p^2 send lists: one small shape there
        shapes = [s for s in shapes
                  if s[0] in ((7,) if algorithm == "hyksort" else (7, 64))]
    for n, nm in shapes:
        opts = _opts(algorithm, nm)
        whole = _observed(_run(algorithm, wl, n, p, "flat", opts=opts))
        per_rank = _observed(_run(algorithm, wl, n, p, "flat", opts=opts,
                                  trace=True))
        _assert_same(whole, per_rank, f"n={n} nm={nm} flat traced")
        if p <= 50 or (n, nm) == (64, True):  # one thread leg at p=257
            thread = _observed(_run(algorithm, wl, n, p, "thread",
                                    opts=opts))
            _assert_same(whole, thread, f"n={n} nm={nm} thread")


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
        opts = _opts(algorithm, nm)
        whole = _observed(_run(algorithm, wl, 64, p, "flat", opts=opts))
        _assert_same(whole, _observed(_run(
            algorithm, wl, 64, p, "flat", opts=opts, trace=True)),
            f"nm={nm} flat traced")
        _assert_same(whole, _observed(_run(
            algorithm, wl, 64, p, "thread", opts=opts)), f"nm={nm} thread")


@pytest.mark.parametrize("preset", ["straggler", "mixed"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_flat_equals_thread_under_faults(algorithm, preset):
    # an active plan forces the per-rank form on the columnar world
    wl = uniform()
    for p, n, nm in ((25, 64, True), (48, 64, False), (50, 7, True)):
        opts = _opts(algorithm, nm)
        flat = _run(algorithm, wl, n, p, "flat", opts=opts,
                    faults=PRESETS[preset])
        thread = _run(algorithm, wl, n, p, "thread", opts=opts,
                      faults=PRESETS[preset])
        _assert_same(_observed(flat), _observed(thread),
                     f"{preset} p={p} n={n} nm={nm}")


def test_leader_oom_fails_the_leader_alone_in_every_form():
    # node merge on, 24 shards land on each leader: a capacity of a few
    # shards is refused at the leader's merge allocation
    wl, n, p = uniform(), 64, 50
    shard_bytes = n * 20
    capacity = 4 * shard_bytes
    whole = _observed(_run("sds", wl, n, p, "flat", capacity=capacity))
    assert [r for r, *_ in whole["failure"]] == [0, 24]  # full nodes only
    assert all(kind == "SimOOMError" for _, kind, _ in whole["failure"])
    _assert_same(whole, _observed(_run(
        "sds", wl, n, p, "flat", capacity=capacity, trace=True)),
        "flat traced")
    # rank threads race: the first OOM aborts the world, so a rank (the
    # other full-node leader, or rank 48 leading the 2-rank node) may be
    # stopped before an allocation every flat form reaches.  The
    # contract is the failure's kind, the flat peak on the ranks that
    # recorded one, and never more than the flat peak elsewhere.
    for _ in range(5):
        thread = _observed(_run("sds", wl, n, p, "thread",
                                capacity=capacity))
        assert {kind for _, kind, _ in thread["failure"]} == {"SimOOMError"}
        failed = {r for r, *_ in thread["failure"]}
        assert failed and failed <= {0, 24}
        for r, (got, want) in enumerate(zip(thread["mem_peaks"],
                                            whole["mem_peaks"])):
            assert got == want if r in failed else got <= want, r


def test_run_sort_result_is_form_independent():
    # the public surface: documents are plain floats, ints, lists, dicts
    kw = dict(n_per_rank=64, p=50, mem_factor=None, seed=5)
    whole = run_sort("sds", uniform(), backend="flat", **kw)
    traced = run_sort("sds", uniform(), backend="flat", trace=True, **kw)
    thread = run_sort("sds", uniform(), backend="thread", **kw)
    for other in (traced, thread):
        assert other.elapsed == whole.elapsed
        assert other.phase_times == whole.phase_times
        assert other.loads == whole.loads
        for key in ("mem_peaks", "decisions", "p_active", "bytes_sent",
                    "messages", "traces"):
            assert other.extras[key] == whole.extras[key], key
    assert type(whole.elapsed) is float
    assert all(type(v) is float for v in whole.phase_times.values())
    assert all(type(v) is int for v in whole.loads)
    assert all(type(v) is int for v in whole.extras["mem_peaks"])
    assert all(type(t) is float for tr in whole.extras["traces"]
               for t0, t1, _ in tr for t in (t0, t1))


# ---------------------------------------------------------------------------
# (c) phase brackets record partial time when the world aborts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("traced", [False, True])
def test_phase_all_records_partial_time_on_abort(traced):
    p = 6
    sim = SimWorld(p, EDISON, tracer=Tracer(p) if traced else None)
    comms = make_world_comms(sim)
    world = ColumnarWorld(sim)
    assert world.whole is (not traced)
    world.charge_compute(comms, [0.5 * (r + 1) for r in range(p)])
    t0 = list(sim.clocks)
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
    assert sim.clocks == ref.clocks
    assert sim.phase_times == ref.phase_times
    assert sim.traces == ref.traces
    assert sim.phase_times[0] == {"inner": 1.0}
    assert sim.phase_times[5] == {"work": 0.25}
    assert sim.traces[1] == [(t0[1] + 0.25, t0[1] + 2.25, "inner"),
                             (t0[1], t0[1] + 2.25, "work")]


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
    assert sim.clocks == [1.0, 1.0, 0.0, 2.0]
    assert [m.in_use for m in sim.mem] == [5, 0, 30, 100]
    assert [m.peak for m in sim.mem] == [10, 0, 30, 100]
    assert world.dead == {1, 2}


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([1, 2, 3, 24]),
       st.integers(1, 5), st.integers(0, 9),
       st.sampled_from([np.int64, np.float64]), st.booleans())
def test_stacked_node_merge_equals_per_node_merge(seed, k, nodes, n,
                                                  key_dtype, wide):
    rng = np.random.default_rng(seed)
    run_lists = [[_sorted_run(rng, n, key_dtype, wide) for _ in range(k)]
                 for _ in range(nodes)]
    # a ragged last node (fewer, uneven runs) and one of another dtype
    run_lists.append([_sorted_run(rng, m, key_dtype, wide)
                      for m in rng.integers(0, 6, max(1, k - 1))])
    run_lists.append([_sorted_run(rng, n, np.int32, wide)
                      for _ in range(k)])
    stacked = kway_merge_batches_stacked(run_lists)
    assert len(stacked) == len(run_lists)
    for runs, got in zip(run_lists, stacked):
        if len(runs) < 3:
            assert got is None  # k = 1, 2 keep their dedicated kernels
        else:
            assert got is not None
            _assert_batches_equal(got, kway_merge_batches(runs))


def test_stacked_node_merge_leaves_mismatched_runs_to_the_caller():
    rng = np.random.default_rng(0)
    good = [[_sorted_run(rng, 4, np.float64, False) for _ in range(3)]
            for _ in range(2)]
    mixed_dtype = [_sorted_run(rng, 4, np.float64, False),
                   _sorted_run(rng, 4, np.float64, False),
                   _sorted_run(rng, 4, np.int64, False)]
    other_schema = [_sorted_run(rng, 4, np.float64, False),
                    _sorted_run(rng, 4, np.float64, True),
                    _sorted_run(rng, 4, np.float64, False)]
    # one odd list keeps its whole same-shape group on the per-list path
    for odd in (mixed_dtype, other_schema):
        assert kway_merge_batches_stacked(good + [odd]) == [None] * 3
    with pytest.raises(ValueError, match="schema mismatch"):
        kway_merge_batches(other_schema)
    assert kway_merge_batches(mixed_dtype).keys.dtype == np.float64


def _registered_workloads():
    """Every workload ``by_name`` knows, read off its own error text."""
    try:
        by_name("no-such-workload")
    except KeyError as err:
        names = ast.literal_eval(err.args[0].split("options: ")[1])
    assert "staggered" in names and len(names) >= 11
    return [by_name(name) for name in names]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(1, 9), st.integers(0, 2**31 - 1),
       st.data())
def test_shards_equals_shard_per_rank(n, p, seed, data):
    ranks = data.draw(st.lists(st.integers(0, p - 1), max_size=p))
    for wl in _registered_workloads():
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
# a budget that cannot flake: Python calls per rank
# ---------------------------------------------------------------------------

#: Measured 102.5 at p=1024 (the parent: 295.8), plus 10 %.  A count,
#: not a time: it repeats exactly on any host and trips when a per-rank
#: ``Comm`` call chain returns to the flat path.
CALLS_PER_RANK_BUDGET = 113


def test_flat_sds_python_calls_per_rank_budget():
    p = 1024
    kw = dict(n_per_rank=64, p=p, mem_factor=None, backend="flat")
    run_sort("sds", by_name("uniform"), **kw)  # imports, caches
    prof = cProfile.Profile()
    prof.enable()
    res = run_sort("sds", by_name("uniform"), **kw)
    prof.disable()
    assert res.ok
    # summed per code object, as the ledger's py_calls_per_rank does
    calls = sum(entry.callcount for entry in prof.getstats()) / p
    assert calls <= CALLS_PER_RANK_BUDGET, calls
