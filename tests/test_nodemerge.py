"""Node-level merging detour (Section 2.3): the ``NodeMerge`` phase.

Every check runs SDS-Sort with node merging forced on (``tau_m_bytes``
above any node's volume) on both engine backends, and reads the phase's
work off a spy on :meth:`NodeMerge.run`: which ranks lead, what a leader
holds once its node is merged, and the leader communicator it goes on
with.  The same checks run under a tracer and under the ``mixed`` fault
plan (stragglers, message drops and delays, transient collective
failures — none of its collectives is lost at these seeds: which rank a
thread world reports for a lost one depends on host scheduling).

``World.node_funnel`` books the funnel as one collective; its oracle is
what it replaced — ``Comm.node_split`` (a split into node communicators,
then the leaders' split) and a gather per node — compared on both
backends plain, traced and under faults, and on the flat engine with
collectives lost in each of the three.
"""

import sys

import numpy as np
import pytest

from repro.core import NodeMerge, SdsParams, sds_sort, sds_sort_world
from repro.faults import FaultSpec, MessageFaults
from repro.faults.chaos import PRESETS
from repro.machine import EDISON, LAPTOP
from repro.mpi import HOST_COUNTERS, LANE, ColumnarWorld, FlatAbort, run_spmd
from repro.obs import TraceReport, Tracer
from repro.records import RecordBatch

FORCED = SdsParams(tau_m_bytes=1 << 40)
BACKENDS = ("thread", "flat")


class _Sort:
    """Rank program sorting the key arrays it is handed, both entry points."""

    def __init__(self, keys):
        self.batches = [RecordBatch(k) for k in keys]

    def __call__(self, comm):
        return sds_sort(comm, self.batches[comm.rank], FORCED)

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        return (sds_sort_world(world, comms, self.batches, FORCED),
                world.failures)


def _keys(p, n=16):
    return [np.random.default_rng(r).random(n) for r in range(p)]


def run_merge(p, machine, backend, keys, **hooks):
    """Per-rank outcomes, and ``{leader rank: (leader comm size, merged
    batch)}`` as the phase left them; ``hooks`` go to ``run_spmd``
    (``tracer=``, ``faults=``)."""
    merged = {}
    run = NodeMerge.run

    def spy(self, world, ctxs):
        run(self, world, ctxs)
        for ctx in ctxs:
            if ctx.outcome is None and ctx.active is not ctx.comm:
                merged[ctx.comm.rank] = (ctx.active.size, ctx.batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeMerge, "run", spy)
        res = run_spmd(_Sort(keys), p, machine=machine, backend=backend,
                       **hooks)
    return res.results, merged


class TestNodeMerge:
    def test_one_leader_per_node(self):
        for backend in BACKENDS:
            outs, merged = run_merge(16, LAPTOP, backend, _keys(16))
            # 8 cores/node -> 2 nodes
            assert sorted(merged) == [0, 8], backend
            assert [o.active for o in outs] == \
                [True] + [False] * 7 + [True] + [False] * 7, backend

    def test_leader_holds_all_node_data(self):
        keys = _keys(16, n=10)
        for backend in BACKENDS:
            _, merged = run_merge(16, LAPTOP, backend, keys)
            for leader in (0, 8):
                node = np.concatenate(keys[leader:leader + 8])
                assert np.array_equal(merged[leader][1].keys,
                                      np.sort(node)), backend

    def test_leader_comm_spans_nodes(self):
        for backend in BACKENDS:
            outs, merged = run_merge(16, LAPTOP, backend, _keys(16))
            assert merged[0][0] == merged[8][0] == 2, backend
            assert [o.info["p_active"] for o in outs] == \
                [2] + [0] * 7 + [2] + [0] * 7, backend

    def test_single_node_is_not_merged(self):
        # the policy never funnels a lone node onto one leader
        for backend in BACKENDS:
            outs, merged = run_merge(8, LAPTOP, backend, _keys(8))
            assert merged == {}, backend
            assert all(o.active for o in outs), backend
            assert {d["choice"] for o in outs for d in o.info["decisions"]
                    if d["decision"] == "node_merge"} == {"skip"}, backend

    def test_edison_node_width(self):
        for backend in BACKENDS:
            _, merged = run_merge(48, EDISON, backend, _keys(48, n=4))
            assert sorted(merged) == [0, 24], backend  # two 24-wide nodes

    def test_a_short_last_node_votes_skip(self):
        # p=26 on 24-wide nodes: the 2-rank node pools 2 ranks' memory but
        # its leader would hold its node's data and half the exchange
        from repro.runner import run_sort
        from repro.workloads import by_name

        for backend in BACKENDS:
            r = run_sort("sds", by_name("uniform"), p=26, n_per_rank=50,
                         backend=backend, keep_outputs=True)
            assert r.ok and r.extras["p_active"] == 26, (backend, r.failure)
            (d,) = [d for d in r.extras["decisions"]
                    if d["decision"] == "node_merge"]
            assert d["choice"] == "skip" and "24/26" in d["reason"], backend

        outs, merged = run_merge(26, EDISON, "flat", _keys(26),
                                 mem_capacity=6 * 16 * 8)
        assert merged == {}
        short = [d for d in outs[25].info["decisions"]
                 if d["decision"] == "node_merge"]
        assert [d["reason"].split(":")[0] for d in short] == \
            ["leader capacity"]

    def test_merge_preserves_multiset(self):
        keys = [np.full(4, float(r)) for r in range(16)]
        for backend in BACKENDS:
            outs, merged = run_merge(16, LAPTOP, backend, keys)
            for leader in (0, 8):
                want = np.repeat(np.arange(leader, leader + 8.0), 4)
                assert np.array_equal(merged[leader][1].keys, want), backend
            out = np.concatenate([o.batch.keys for o in outs])
            assert np.array_equal(out, np.repeat(np.arange(16.0), 4)), \
                backend


def _leaders(p, width):
    """Ranks that lead a node after the merge: none when one node holds
    everybody or a node of one rank vetoes the merge."""
    if p <= width or p % width == 1:
        return []
    return list(range(0, p, width))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("hooks", ["traced", "mixed"])
@pytest.mark.parametrize("p", [25, 48, 50])
def test_funnel_under_a_tracer_and_faults(p, hooks, backend):
    keys = _keys(p, n=6)
    tracer = Tracer(p) if hooks == "traced" else None
    faults = PRESETS["mixed"].compile(p, 1) if hooks == "mixed" else None
    outs, merged = run_merge(p, EDISON, backend, keys, tracer=tracer,
                             faults=faults)
    leaders = _leaders(p, EDISON.cores_per_node)
    assert sorted(merged) == leaders
    for lead in leaders:
        size, batch = merged[lead]
        assert size == len(leaders)
        assert np.array_equal(batch.keys,
                              np.sort(np.concatenate(keys[lead:lead + 24])))
    assert [o.info["p_active"] for o in outs] == (
        [len(leaders) if r in leaders else 0 for r in range(p)]
        if leaders else [p] * p)
    out = np.concatenate([o.batch.keys for o in outs])
    assert np.array_equal(out, np.sort(np.concatenate(keys)))
    if tracer is not None:
        # inside its node_merge phase every rank books the funnel as
        # two splits and a gather
        colls = []
        for spans in tracer.rank_spans():
            (a, b), = [s[:2] for s in spans if s[2:4] == ("phase",
                                                          "node_merge")]
            colls.append([s[3] for s in spans if s[2] == "coll"
                          and s[3] in ("split", "gather")
                          and a <= s[0] and s[1] <= b])
        assert colls == [["split", "split", "gather"] if leaders else []] * p


# ---------------------------------------------------------------------------
# the fused funnel against the collectives it stands for
# ---------------------------------------------------------------------------



def _value(rank):
    return np.arange(rank % 5 + 1, dtype=np.int64)  # sizes differ by rank


def _split_and_gather(world, comms, values):
    """The oracle on a membership: node split, leaders' split, then one
    gather per node, each checked only on the first node."""
    ranks = [c.rank for c in comms]
    colors = [c._world.node_of(c.grank) for c in comms]
    local = world.split(comms, colors, keys=ranks)
    leaders = world.split(comms, [0 if lc.rank == 0 else None
                                  for lc in local], keys=ranks)
    order = np.argsort(colors, kind="stable")
    starts = np.flatnonzero(np.diff(np.take(colors, order)))
    outs = [None] * len(comms)
    for k, members in enumerate(np.split(order, starts + 1)):
        members = members.tolist()
        got = world.gather([local[i] for i in members],
                           [values[i] for i in members], check=k == 0)
        outs[members[0]] = (leaders[members[0]], got[0])
    return outs


def _seat(out):
    if out is None:
        return None
    lead, vals = out
    return lead.rank, lead.size, lead._ctx.group, [v.tolist() for v in vals]


class _Funnel:
    """The funnel inside a phase bracket, entered at unequal clocks:
    ``fused`` is ``World.node_funnel``, else the oracle."""

    def __init__(self, fused):
        self.fused = fused

    def __call__(self, comm):
        comm.charge(1e-3 * (comm.rank % 7 + 1))
        with comm.phase("funnel"):
            if self.fused:
                out = LANE.node_funnel((comm,), (_value(comm.rank),))[0]
            else:
                local, leaders = comm.node_split()
                vals = local.gather(_value(comm.rank))
                out = None if leaders is None else (leaders, vals)
        return _seat(out)

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        world.charge_compute(comms, [1e-3 * (c.rank % 7 + 1) for c in comms])
        values = [_value(c.rank) for c in comms]
        outs = [None] * len(comms)
        try:
            with world.phase(comms, "funnel"):
                outs = (world.node_funnel(comms, values) if self.fused
                        else _split_and_gather(world, comms, values))
        except FlatAbort:
            pass
        return [_seat(o) for o in outs], world.failures


def _observed(fused, p, backend, *, traced=False, faults=None, seed=3):
    tracer = Tracer(p) if traced else None
    res = run_spmd(_Funnel(fused), p, machine=EDISON, backend=backend,
                   check=False, tracer=tracer,
                   faults=faults and faults.compile(p, seed))
    return {
        "failure": res.failure and [(r, type(e).__name__, str(e))
                                    for r, e in res.failure.failures],
        "outs": res.results if res.failure is None else None,
        "clocks": res.clocks, "phase_times": res.phase_times,
        "traces": res.traces, "mem_peaks": res.mem_peaks,
        "counters": [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                     for c in res.counters],
        "trace": tracer and TraceReport.from_run(
            tracer, clocks=res.clocks).as_dict(),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["plain", "traced", "mixed"])
@pytest.mark.parametrize("p", [5, 25, 48, 50])
def test_fused_funnel_books_what_split_and_gather_booked(p, mode, backend):
    kw = dict(traced=mode == "traced",
              faults=PRESETS["mixed"] if mode == "mixed" else None)
    fused = _observed(True, p, backend, **kw)
    assert fused["failure"] is None
    assert fused == _observed(False, p, backend, **kw)
    if backend == "flat":  # and rank threads book the same
        assert fused == _observed(True, p, "thread", **kw)


def test_fused_funnel_on_threads_switching_every_microsecond():
    # 50 rank threads on the shared result of one compute: each reads it
    # and books only itself, whichever thread ran the compute
    kw = dict(traced=True, faults=PRESETS["mixed"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = _observed(True, 50, "thread", **kw)
    finally:
        sys.setswitchinterval(interval)
    assert threads == _observed(True, 50, "flat", **kw)


#: (p, fault seed) of runs at a 40 % drop rate that lose nothing, or a
#: collective in the node split, in the leaders' split, in a node gather
LOSSY_RUNS = [(48, 3), (48, 0), (50, 3), (48, 13), (50, 14)]


def test_fused_funnel_aborts_where_split_and_gather_aborted():
    # the failures, and everything booked before the world stopped
    lossy = FaultSpec(messages=MessageFaults(drop_rate=0.4))
    lost = []
    for p, seed in LOSSY_RUNS:
        kw = dict(traced=True, faults=lossy, seed=seed)
        fused = _observed(True, p, "flat", **kw)
        assert fused == _observed(False, p, "flat", **kw), (p, seed)
        kinds = set()
        for _, _, msg in fused["failure"] or ():
            seq, size = msg.split("-rank")[0].split(" on a ")
            kinds.add("gather" if int(size) < p else seq)
        lost.append(kinds)
    assert lost == [set(), {"collective #0"}, {"collective #1"}, {"gather"},
                    {"gather"}]
