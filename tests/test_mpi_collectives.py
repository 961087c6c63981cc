"""Collective operations of the simulated MPI engine."""

import numpy as np
import pytest

from repro.machine import EDISON
from repro.mpi import Cuts, run_spmd
from repro.obs import Tracer
from repro.records import RecordBatch

from .oracles_exchange import alltoallv_async_dense, alltoallv_dense


def results(fn, p, **kw):
    return run_spmd(fn, p, **kw).results


class TestBasicCollectives:
    def test_allgather(self):
        out = results(lambda c: c.allgather(c.rank * 10), 5)
        assert all(r == [0, 10, 20, 30, 40] for r in out)

    def test_bcast_from_nonzero_root(self):
        def prog(c):
            return c.bcast("hello" if c.rank == 2 else None, root=2)
        assert results(prog, 4) == ["hello"] * 4

    def test_gather_only_root_receives(self):
        out = results(lambda c: c.gather(c.rank**2, root=1), 4)
        assert out[1] == [0, 1, 4, 9]
        assert out[0] is None and out[2] is None

    def test_allreduce_default_sum(self):
        out = results(lambda c: c.allreduce(c.rank + 1), 4)
        assert out == [10, 10, 10, 10]

    def test_allreduce_custom_op(self):
        out = results(lambda c: c.allreduce(c.rank, op=max), 6)
        assert out == [5] * 6

    def test_allreduce_numpy_arrays(self):
        def prog(c):
            return c.allreduce(np.full(3, c.rank))
        for r in results(prog, 4):
            assert list(r) == [6, 6, 6]

    def test_barrier_syncs_clocks(self):
        def prog(c):
            if c.rank == 0:
                c.charge(5.0)
            c.barrier()
            return c.clock
        out = results(prog, 4)
        assert all(t >= 5.0 for t in out)


def _steady(counters):
    """Counters without the host-wall-clock ones."""
    return [{k: v for k, v in c.items()
             if k not in ("coll.sync_wait", "p2p.wait")} for c in counters]


def _even(c, batch):
    """``batch`` cut into ``c.size`` equal buckets (its length divides)."""
    return batch, Cuts.from_displs(
        np.arange(c.size + 1) * (len(batch) // c.size))


class TestAlltoallv:
    def test_chunks_arrive_in_source_order(self):
        def prog(c):
            chunks = c.alltoallv(*_even(c, RecordBatch(
                np.full(2 * c.size, float(c.rank)))))
            return [float(ch.keys[0]) for ch in chunks]
        out = results(prog, 4)
        assert all(r == [0.0, 1.0, 2.0, 3.0] for r in out)

    def test_only_non_empty_chunks_arrive(self):
        """Rank ``r`` sends only to ``r + 1``: every rank gets one chunk
        (rank 0 none), never ``p`` empty ones."""
        def prog(c):
            b = RecordBatch(np.array([float(c.rank)]))
            d = np.zeros(c.size + 1, dtype=np.int64)
            if c.rank + 1 < c.size:
                d[c.rank + 2:] = 1
            else:
                d[:] = 0
                b = RecordBatch(np.zeros(0))
            return [float(ch.keys[0]) for ch in
                    c.alltoallv(b, Cuts.from_displs(d))]
        assert results(prog, 4) == [[], [0.0], [1.0], [2.0]]

    def test_payload_travels(self):
        def prog(c):
            b = RecordBatch(np.arange(float(c.size)),
                            {"src": np.full(c.size, c.rank)})
            chunks = c.alltoallv(*_even(c, b))
            return [int(ch.payload["src"][0]) for ch in chunks]
        out = results(prog, 3)
        assert all(r == [0, 1, 2] for r in out)

    def test_length_validated(self):
        """``Cuts.check`` refuses, on the rank, cuts that do not span
        the batch in ``p`` non-decreasing buckets."""
        for displs, message in (
                ([0, 1], "with p+1 bounds"),          # 1 bucket for p=3
                ([0, 0, 0, 2], "with p+1 bounds"),    # past the batch
                ([0, 1, 0, 1], "must be non-decreasing")):
            def prog(c):
                c.alltoallv(RecordBatch(np.array([1.0])),
                            Cuts.from_displs(np.array(displs)))
            res = run_spmd(prog, 3, check=False)
            assert isinstance(res.failure.cause, ValueError)
            assert message in str(res.failure.cause)

    def test_memory_charged_for_received(self):
        def prog(c):
            c.alltoallv(*_even(c, RecordBatch(np.zeros(100 * c.size))))
            return c.mem.in_use
        out = results(prog, 4)
        # 3 remote chunks of 800 bytes each
        assert all(m == 2400 for m in out)

    @pytest.mark.parametrize("p", [1, 5, 24])
    def test_matches_the_dense_oracle(self, p):
        """The cell-sparse verb books what the dense p-slot alltoallv
        booked — clocks, counters, memory, traced spans, cost split and
        edge rows — and delivers its non-empty chunks."""
        def sends(c):
            """A ragged batch cut at random bounds (many empty cells);
            ranks enter at staggered clocks."""
            c.set_clock(c.rank * 1e-6)
            rng = np.random.default_rng(p * 1000 + c.rank)
            n = int(rng.integers(0, 3 * c.size))
            d = np.sort(rng.integers(0, n + 1, c.size + 1))
            d[0], d[-1] = 0, n
            return RecordBatch(np.arange(float(n)) + 1000 * c.rank), d

        def sparse(c):
            b, d = sends(c)
            return [ch.keys.tolist() for ch in
                    c.alltoallv(b, Cuts.from_displs(d))]

        def dense(c):
            b, d = sends(c)
            return [ch.keys.tolist() for ch in
                    alltoallv_dense(c, b.split([int(x) for x in d]))
                    if len(ch)]

        runs = []
        for prog in (sparse, dense):
            tr = Tracer(p)
            runs.append((run_spmd(prog, p, machine=EDISON, tracer=tr), tr))
        (a, ta), (b, tb) = runs
        assert a.results == b.results
        assert a.clocks == b.clocks
        assert a.mem_peaks == b.mem_peaks
        assert _steady(a.counters) == _steady(b.counters)
        assert ta.rank_spans() == tb.rank_spans()
        assert ta.counters.rows() == tb.counters.rows()
        assert np.array_equal(ta.edge_matrix(), tb.edge_matrix())

    def test_async_schedule_sorted_by_completion(self):
        """The dense oracle's ring arrival schedule (the reference the
        overlapped exchange is compared against)."""
        def prog(c):
            sends = [RecordBatch(np.zeros(10)) for _ in range(c.size)]
            arrivals = alltoallv_async_dense(c, sends)
            times = [t for _, _, t in arrivals]
            srcs = sorted(s for s, _, _ in arrivals)
            return times == sorted(times) and srcs == list(range(c.size))
        assert all(results(prog, 5))


class TestSplit:
    def test_split_by_parity(self):
        def prog(c):
            sub = c.split(c.rank % 2)
            return (sub.size, sub.rank)
        out = results(prog, 6)
        assert all(size == 3 for size, _ in out)
        assert [r for _, r in out] == [0, 0, 1, 1, 2, 2]

    def test_split_undefined_color(self):
        def prog(c):
            sub = c.split(0 if c.rank == 0 else None)
            return sub if sub is None else sub.size
        out = results(prog, 4)
        assert out == [1, None, None, None]

    def test_split_key_reorders(self):
        def prog(c):
            sub = c.split(0, key=-c.rank)  # reverse order
            return sub.rank
        out = results(prog, 4)
        assert out == [3, 2, 1, 0]

    def test_nested_split(self):
        def prog(c):
            half = c.split(c.rank // 2)
            quarter = half.split(half.rank)
            return quarter.size
        assert results(prog, 4) == [1, 1, 1, 1]

    def test_node_split_edison(self):
        def prog(c):
            local, leaders = c.node_split()
            return (local.size, None if leaders is None else leaders.size)
        out = results(prog, 48, machine=EDISON)  # 2 nodes x 24 cores
        assert out[0] == (24, 2)
        assert out[1] == (24, None)
        assert out[24] == (24, 2)

    def test_ranks_per_node_equals_the_group_scan(self):
        """Counted once per communicator, equal to the per-handle scan
        it replaced — world, strided split, node split, leaders — with a
        ragged last node (56 = 24 + 24 + 8)."""
        def scan(c):
            node_of = c._world.node_of
            mine = node_of(c.grank)
            return sum(1 for g in c._ctx.group if node_of(g) == mine)

        def prog(c):
            local, leaders = c.node_split()
            out = [(x.ranks_per_node, scan(x))
                   for x in (c, c.split(c.rank % 3), local)]
            if leaders is not None:
                out.append((leaders.ranks_per_node, scan(leaders)))
            return out
        out = results(prog, 56, machine=EDISON)
        assert all(got == want for rank in out for got, want in rank)
        assert [rank[0][0] for rank in out] == [24] * 48 + [8] * 8
        assert out[0][3][0] == 1  # one leader per node

    def test_collectives_on_subcomm(self):
        def prog(c):
            sub = c.split(c.rank % 2)
            return sub.allgather(c.rank)
        out = results(prog, 6)
        assert out[0] == [0, 2, 4]
        assert out[1] == [1, 3, 5]
