"""Engine semantics: failures, clocks, phases, determinism, p2p."""

import numpy as np
import pytest

from repro.machine import EDISON, SimOOMError
from repro.mpi import RankFailure, run_spmd


class TestLifecycle:
    def test_single_rank_inline(self):
        res = run_spmd(lambda c: c.rank, 1)
        assert res.results == [0]
        assert res.ok

    def test_args_and_kwargs(self):
        res = run_spmd(lambda c, a, b=0: a + b + c.rank, 3, args=(10,),
                       kwargs={"b": 5})
        assert res.results == [15, 16, 17]

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)

    def test_many_ranks(self):
        res = run_spmd(lambda c: c.allreduce(1), 64)
        assert res.results == [64] * 64


class TestFailures:
    def test_failure_raises_by_default(self):
        def prog(c):
            if c.rank == 2:
                raise ValueError("boom")
            c.barrier()
        with pytest.raises(RankFailure) as ei:
            run_spmd(prog, 4)
        assert ei.value.rank == 2
        assert isinstance(ei.value.cause, ValueError)

    def test_failure_reported_with_check_false(self):
        def prog(c):
            if c.rank == 1:
                raise RuntimeError("nope")
            c.barrier()
        res = run_spmd(prog, 4, check=False)
        assert not res.ok
        assert res.failure.rank == 1

    def test_siblings_unwind_from_barrier(self):
        """Other ranks blocked in collectives must not deadlock."""
        def prog(c):
            if c.rank == 0:
                raise RuntimeError("early")
            for _ in range(5):
                c.barrier()
        res = run_spmd(prog, 8, check=False)
        assert res.failure is not None

    def test_siblings_unwind_from_recv(self):
        def prog(c):
            if c.rank == 0:
                raise RuntimeError("early")
            if c.rank == 1:
                c.recv(0)  # never sent
        res = run_spmd(prog, 2, check=False)
        assert res.failure.rank == 0

    def test_oom_surfaces(self):
        def prog(c):
            c.mem.alloc(10**9)
        res = run_spmd(prog, 2, mem_capacity=100, check=False)
        assert isinstance(res.failure.cause, SimOOMError)

    def test_first_failing_rank_wins(self):
        def prog(c):
            raise RuntimeError(f"r{c.rank}")
        res = run_spmd(prog, 4, check=False)
        assert res.failure.rank == 0


class TestVirtualTime:
    def test_charge_accumulates(self):
        res = run_spmd(lambda c: (c.charge(1.5), c.charge(2.5), c.clock)[-1], 1)
        assert res.results[0] == pytest.approx(4.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(RankFailure):
            run_spmd(lambda c: c.charge(-1), 1)

    def test_elapsed_is_makespan(self):
        def prog(c):
            c.charge(float(c.rank))
        res = run_spmd(prog, 4)
        assert res.elapsed == pytest.approx(3.0)

    def test_deterministic_clocks(self):
        def prog(c):
            c.charge(0.1 * (c.rank + 1))
            c.barrier()
            vals = c.allgather(c.rank)
            c.charge(sum(vals) * 0.01)
            return c.clock
        a = run_spmd(prog, 8).clocks
        b = run_spmd(prog, 8).clocks
        assert a == b

    def test_p2p_time_includes_transfer(self):
        def prog(c):
            if c.rank == 0:
                c.send(np.zeros(1_000_000), 1)
                return c.clock
            data = c.recv(0)
            return c.clock
        res = run_spmd(prog, 2, machine=EDISON)
        send_clock, recv_clock = res.results
        assert recv_clock > send_clock
        # 8 MB over 2 GB/s single stream ~ 4 ms
        assert recv_clock == pytest.approx(0.004, rel=0.2)


class TestPhases:
    def test_phase_attribution(self):
        def prog(c):
            with c.phase("a"):
                c.charge(1.0)
            with c.phase("b"):
                c.charge(2.0)
            return None
        res = run_spmd(prog, 2)
        bd = res.phase_breakdown()
        assert bd["a"] == pytest.approx(1.0)
        assert bd["b"] == pytest.approx(2.0)

    def test_breakdown_takes_max_over_ranks(self):
        def prog(c):
            with c.phase("work"):
                c.charge(float(c.rank))
        res = run_spmd(prog, 4)
        assert res.phase_breakdown()["work"] == pytest.approx(3.0)

    def test_counters(self):
        def prog(c):
            c.count("widgets", 2)
            c.count("widgets")
            return None
        res = run_spmd(prog, 2)
        assert res.counters[0]["widgets"] == 3


class TestP2P:
    def test_fifo_per_channel(self):
        def prog(c):
            if c.rank == 0:
                for i in range(5):
                    c.send(i, 1, tag=7)
                return None
            return [c.recv(0, tag=7) for _ in range(5)]
        res = run_spmd(prog, 2)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_separate_channels(self):
        def prog(c):
            if c.rank == 0:
                c.send("a", 1, tag=1)
                c.send("b", 1, tag=2)
                return None
            second = c.recv(0, tag=2)
            first = c.recv(0, tag=1)
            return (first, second)
        res = run_spmd(prog, 2)
        assert res.results[1] == ("a", "b")

    def test_sendrecv_symmetric(self):
        def prog(c):
            peer = c.rank ^ 1
            return c.sendrecv(c.rank * 11, peer)
        res = run_spmd(prog, 4)
        assert res.results == [11, 0, 33, 22]
