"""Engine stress and failure-injection tests."""

import numpy as np
import pytest

from repro.core import SdsParams, sds_sort
from repro.machine import EDISON, SimOOMError
from repro.metrics import check_sorted
from repro.mpi import Cuts, RankFailure, run_spmd
from repro.records import RecordBatch, tag_provenance
from repro.workloads import uniform


class TestScale:
    def test_collectives_at_p256(self):
        res = run_spmd(lambda c: c.allreduce(1), 256)
        assert res.results == [256] * 256

    def test_full_sort_at_p128(self):
        def prog(comm):
            shard = tag_provenance(
                uniform().shard(200, comm.size, comm.rank, 0), comm.rank)
            return shard, sds_sort(comm, shard,
                                   SdsParams(node_merge_enabled=False))
        res = run_spmd(prog, 128)
        ins = [r[0] for r in res.results]
        outs = [r[1].batch for r in res.results]
        check_sorted(ins, outs)

    def test_repeated_runs_stable_state(self):
        """Back-to-back runs share no leaked state."""
        def prog(comm):
            return comm.allgather(comm.rank)
        a = run_spmd(prog, 16).results
        b = run_spmd(prog, 16).results
        assert a == b


class TestFailureInjection:
    def test_oom_inside_alltoallv(self):
        """OOM raised mid-collective aborts everyone cleanly."""
        def prog(comm):
            big = 10_000 if comm.rank == 0 else 10
            comm.alltoallv(RecordBatch(np.zeros(big * comm.size)),
                           Cuts.from_displs(np.arange(comm.size + 1) * big))
            comm.barrier()
        res = run_spmd(prog, 8, mem_capacity=50_000, check=False)
        assert res.failure is not None
        assert isinstance(res.failure.cause, SimOOMError)

    def test_exception_in_one_rank_of_many(self):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            if comm.rank == 17:
                raise RuntimeError("late failure")
            comm.barrier()
            return comm.allgather(0)
        res = run_spmd(prog, 32, check=False)
        assert res.failure is not None and res.failure.rank == 17

    def test_failure_during_split(self):
        def prog(comm):
            if comm.rank == 3:
                raise ValueError("pre-split")
            comm.split(comm.rank % 2)
        res = run_spmd(prog, 8, check=False)
        assert res.failure.rank == 3

    def test_failure_in_sds_sort_surfaces(self):
        """A rank failing inside the full algorithm unwinds the world."""
        def prog(comm):
            shard = uniform().shard(100, comm.size, comm.rank, 0)
            if comm.rank == 2:
                comm.mem.alloc(10**12)  # force OOM before the sort
            return sds_sort(comm, shard, SdsParams(node_merge_enabled=False))
        with pytest.raises(RankFailure) as ei:
            run_spmd(prog, 8, mem_capacity=10**6)
        assert ei.value.rank == 2

    def test_results_partial_on_failure(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("x")
            return comm.rank
        res = run_spmd(prog, 4, check=False)
        # surviving ranks that returned before/without blocking keep
        # their results; the failed rank has none
        assert res.results[1] is None


class TestFusedCollectiveAbort:
    """Abort semantics under the fused staged collectives.

    A rank raising mid-deposit (its payload already in the stage, the
    barrier not yet released) must unwind every sibling with SimAbort:
    no deadlock, no reuse of the half-filled stage by a later
    collective.
    """

    @pytest.mark.parametrize("p", [7, 64])
    def test_raise_mid_staged_unwinds_all(self, p):
        boom = p // 2

        def prog(comm):
            comm.allgather(comm.rank)  # healthy collective first

            def compute(stage):
                raise RuntimeError("mid-deposit failure")

            if comm.rank == boom:
                # deposit, then die before reaching the barrier
                comm._ctx.stage[comm.rank] = ("poison", comm.clock)
                raise RuntimeError("mid-deposit failure")
            return comm.staged(comm.rank, lambda stage: len(stage))

        res = run_spmd(prog, p, check=False)
        assert res.failure is not None
        assert res.failure.rank == boom
        assert isinstance(res.failure.cause, RuntimeError)
        # siblings unwound with SimAbort (recorded as no result), never
        # a deadlock or a second failure
        assert all(r is None for r in res.results)
        assert len(res.failure.failures) == 1

    @pytest.mark.parametrize("p", [7, 64])
    def test_raise_in_compute_action_unwinds_all(self, p):
        """The designated last-arriver's compute action failing aborts
        the world before the barrier releases anyone."""

        def prog(comm):
            def compute(objs):
                raise ValueError("compute action failure")
            comm.allgather_staged(comm.rank, compute)

        res = run_spmd(prog, p, check=False)
        assert res.failure is not None
        # which rank arrives last is scheduling-dependent; the cause
        # and clean unwind are not
        assert isinstance(res.failure.cause, ValueError)
        assert all(r is None for r in res.results)

    @pytest.mark.parametrize("p", [7, 64])
    def test_no_partial_payload_reuse_after_abort(self, p):
        """A fresh world's collectives never observe a poisoned stage
        from an aborted predecessor run."""
        def bad(comm):
            if comm.rank == 1:
                comm._ctx.stage[comm.rank] = ("stale", comm.clock)
                raise RuntimeError("die with deposit in place")
            comm.allgather(comm.rank)

        res = run_spmd(bad, p, check=False)
        assert res.failure is not None

        def good(comm):
            return comm.allgather(comm.rank)

        out = run_spmd(good, p)
        assert out.results == [list(range(p))] * p

    def test_multi_rank_failures_aggregate(self):
        """RankFailure reports every failed rank, in rank order, with
        the original exceptions preserved."""
        def prog(comm):
            # no blocking call before the raise: the abort flag cannot
            # convert any of these failures into a SimAbort unwind, so
            # all three deterministically surface
            if comm.rank in (2, 5, 11):
                raise ValueError(f"rank {comm.rank} dies")
            comm.barrier()

        res = run_spmd(prog, 16, check=False)
        f = res.failure
        assert f is not None
        assert f.ranks == (2, 5, 11)
        assert f.rank == 2
        assert all(isinstance(e, ValueError) for _, e in f.failures)
        assert f.cause is f.failures[0][1]

    def test_rank_failure_cause_chain(self):
        def prog(comm):
            if comm.rank == 0:
                raise KeyError("primary")
            comm.barrier()

        with pytest.raises(RankFailure) as ei:
            run_spmd(prog, 4)
        assert isinstance(ei.value.__cause__, KeyError)
        assert ei.value.failures[0][0] == 0


class TestDeterminism:
    def test_sds_deterministic_across_runs(self):
        def prog(comm):
            shard = uniform().shard(300, comm.size, comm.rank, 9)
            out = sds_sort(comm, shard, SdsParams(node_merge_enabled=False))
            return out.batch.keys.sum(), comm.clock
        a = run_spmd(prog, 16, machine=EDISON).results
        b = run_spmd(prog, 16, machine=EDISON).results
        assert a == b

    def test_clock_independent_of_host_load(self):
        """Virtual time depends only on data — the whole point of the
        simulated clock (deterministic across reruns by construction)."""
        def prog(comm):
            comm.barrier()
            comm.allgather(np.zeros(100))
            return comm.clock
        runs = {tuple(run_spmd(prog, 8).results) for _ in range(3)}
        assert len(runs) == 1
