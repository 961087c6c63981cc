"""Node-level merging detour (Section 2.3): the ``NodeMerge`` phase.

Every check runs SDS-Sort with node merging forced on (``tau_m_bytes``
above any node's volume) on both engine backends, and reads the phase's
work off a spy on :meth:`NodeMerge.run`: which ranks lead, what a leader
holds once its node is merged, and the leader communicator it goes on
with.
"""

import numpy as np
import pytest

from repro.core import NodeMerge, SdsParams, sds_sort, sds_sort_world
from repro.machine import EDISON, LAPTOP
from repro.mpi import ColumnarWorld, run_spmd
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


def run_merge(p, machine, backend, keys):
    """Per-rank outcomes, and ``{leader rank: (leader comm size, merged
    batch)}`` as the phase left them."""
    merged = {}
    run = NodeMerge.run

    def spy(self, world, ctxs):
        run(self, world, ctxs)
        for ctx in ctxs:
            if ctx.outcome is None and ctx.active is not ctx.comm:
                merged[ctx.comm.rank] = (ctx.active.size, ctx.batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeMerge, "run", spy)
        res = run_spmd(_Sort(keys), p, machine=machine, backend=backend)
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
