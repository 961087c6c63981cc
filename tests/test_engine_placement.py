"""Where a thread world's rank threads run, and what never notices.

Rank threads share one GIL, so a second core only adds a second wake-up
per hand-off — unless their ranks hold big arrays, whose numpy sections
overlap.  So a rank's memory ledger places its thread: a peak under the
mark pins the ``SpmdPool`` worker to the pool's shared CPU, a peak over
it moves the worker back out, a rank that books nothing counts as
shallow when it ends, and between runs a worker stays where it was (a
new one runs free).  The contract checked here: one shared CPU from the
allowed set, the same for every pool of a process; the caller's
affinity is never touched; a deep rank is off the shared CPU from its
first deep ledger entry; one allowed CPU, a missing
``sched_setaffinity`` or an ``OSError`` from it mean no pin and a
correct run; the flat backend makes no affinity call at all.  Results
cannot see placement — the golden, determinism and world-forms suites
are that evidence.

Also here: a completed run must not wait for the cancel watcher's poll
tick.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.mpi import RankFailure, SpmdPool, engine, run_spmd
from repro.mpi.errors import RunCancelled
from repro.core import sds_sort
from repro.records import tag_provenance
from repro.runner import run_sort
from repro.workloads import uniform

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"),
    reason="no thread affinity API on this platform")


def _allowed():
    return os.sched_getaffinity(0)


def _needs_two_cpus():
    if len(_allowed()) < 2:
        pytest.skip("the process is allowed a single CPU")


def _affinity_prog(comm):
    comm.barrier()
    return os.sched_getaffinity(0), comm.allreduce(comm.rank)


def _one_barrier(comm):
    comm.barrier()


@pytest.fixture
def pool():
    """A pool whose first 16 workers have hosted a shallow rank."""
    pool = SpmdPool()
    run_spmd(_one_barrier, 16, pool=pool)
    yield pool
    pool.shutdown()


def _deep_rank0_prog(comm):
    """Rank 0 books a deep array on its ledger, the others a small one."""
    before = os.sched_getaffinity(0)
    comm.mem.alloc(engine._DEEP_RANK_BYTES if comm.rank == 0 else 1024)
    comm.barrier()
    return before, os.sched_getaffinity(0), comm.allreduce(comm.rank)


@needs_affinity
class TestPlacement:
    def test_a_new_worker_runs_free_until_its_rank_books_a_small_array(self):
        _needs_two_cpus()

        def prog(comm):
            start = os.sched_getaffinity(0)
            comm.mem.alloc(1024)
            return start, os.sched_getaffinity(0)

        fresh = SpmdPool()
        try:
            res = run_spmd(prog, 4, pool=fresh)
        finally:
            fresh.shutdown()
        assert all(start == _allowed() for start, _ in res.results)
        assert len({frozenset(after) for _, after in res.results}) == 1
        assert all(len(after) == 1 for _, after in res.results)

    def test_shallow_rank_threads_share_one_allowed_cpu(self, pool):
        _needs_two_cpus()
        before = _allowed()
        res = run_spmd(_affinity_prog, 8, pool=pool)
        masks = {frozenset(mask) for mask, _ in res.results}
        assert len(masks) == 1
        (mask,) = masks
        assert len(mask) == 1 and mask <= before
        assert [total for _, total in res.results] == [28] * 8
        assert _allowed() == before  # the caller is never placed

    def test_default_pool_is_placed_too(self):
        _needs_two_cpus()
        run_spmd(_affinity_prog, 4)
        res = run_spmd(_affinity_prog, 4)
        assert {len(mask) for mask, _ in res.results} == {1}

    def test_a_deep_rank_leaves_the_shared_cpu_at_once(self, pool):
        _needs_two_cpus()
        allowed = _allowed()
        res = run_spmd(_deep_rank0_prog, 4, pool=pool)
        assert [total for _, _, total in res.results] == [6] * 4
        shared = {frozenset(before) for before, _, _ in res.results}
        assert len(shared) == 1 and len(*shared) == 1
        assert res.results[0][1] == allowed  # rank 0 turned deep
        assert {frozenset(after) for _, after, _ in res.results[1:]} == shared
        # its worker stays out for the next run, deep again or not ...
        again = run_spmd(_deep_rank0_prog, 4, pool=pool)
        assert again.results[0][0] == allowed
        # ... and a shallow rank ending on it brings it back
        run_spmd(_affinity_prog, 4, pool=pool)
        back = run_spmd(_affinity_prog, 4, pool=pool)
        assert {frozenset(mask) for mask, _ in back.results} == shared
        assert _allowed() == allowed

    def test_a_deep_sort_runs_as_if_nothing_were_placed(self, monkeypatch):
        """The reviewer's shape in small: on new workers, and again on the
        workers a deep run leaves behind, every rank of a deep sort has
        the whole allowed set from its first statement to its last and
        the engine makes no affinity call."""
        _needs_two_cpus()
        allowed = _allowed()
        calls = []
        real = os.sched_setaffinity
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: (
            calls.append(mask), real(pid, mask)))

        def deep_sort(comm):
            start = os.sched_getaffinity(0)
            n = engine._DEEP_RANK_BYTES // 8
            batch = tag_provenance(uniform().shard(n, comm.size, comm.rank, 0),
                                   comm.rank)
            sds_sort(comm, batch)
            return start, os.sched_getaffinity(0)

        own = SpmdPool()
        try:
            runs = [run_spmd(deep_sort, 4, pool=own) for _ in range(2)]
        finally:
            own.shutdown()
        assert all(start == allowed and end == allowed
                   for res in runs for start, end in res.results)
        assert calls == []

    def test_every_pool_of_a_process_shares_the_pid_s_cpu(self):
        """Pools of one process share one GIL, so they share one CPU;
        the pid spreads sibling processes (xdist workers, daemons)."""
        _needs_two_cpus()
        n = len(_allowed())
        code = ("import os\n"
                "from repro.mpi.engine import SpmdPool\n"
                "print(os.getpid(), SpmdPool()._place[0], "
                "SpmdPool()._place[0])\n")
        pid, first, second = map(int, subprocess.run(
            [sys.executable, "-c", code], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout.split())
        assert first == second == sorted(_allowed())[pid % n]

    def test_nested_run_on_its_own_pool_completes(self, pool):
        """A pool created inside a rank thread sees the rank's one-CPU
        mask: it does not pin, its threads inherit the mask."""
        def inner(comm):
            return os.sched_getaffinity(0), comm.allreduce(1)

        def outer(comm):
            mine = os.sched_getaffinity(0)
            nested = SpmdPool()
            try:
                res = run_spmd(inner, 3, pool=nested)
            finally:
                nested.shutdown()
            return nested._place, mine, res.results

        res = run_spmd(outer, 2, pool=pool)  # shallow before: both pinned
        for place, mine, inner_results in res.results:
            assert [total for _, total in inner_results] == [3] * 3
            if len(mine) == 1:
                assert place is None
                assert {frozenset(m) for m, _ in inner_results} \
                    == {frozenset(mine)}

    def test_one_allowed_cpu_makes_no_affinity_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: calls.append(mask))
        narrow = SpmdPool()
        try:
            run_spmd(_one_barrier, 8, pool=narrow)  # shallow ranks end ...
            res = run_spmd(_deep_rank0_prog, 8, pool=narrow)  # a deep one
        finally:
            narrow.shutdown()
        assert [total for _, _, total in res.results] == [28] * 8
        assert narrow._place is None and calls == []

    def test_refused_pin_runs_unplaced(self, monkeypatch):
        _needs_two_cpus()
        before = _allowed()

        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        unplaced = SpmdPool()
        try:
            run_spmd(_one_barrier, 8, pool=unplaced)  # every pin refused
            res = run_spmd(_deep_rank0_prog, 8, pool=unplaced)
        finally:
            unplaced.shutdown()
        assert [total for _, _, total in res.results] == [28] * 8
        assert {frozenset(mask) for _, mask, _ in res.results} \
            == {frozenset(before)}


@pytest.mark.parametrize("missing", ["sched_setaffinity",
                                     "sched_getaffinity"])
def test_no_affinity_api_runs_unplaced(monkeypatch, missing):
    monkeypatch.delattr(os, missing, raising=False)

    def deep(comm):
        comm.mem.alloc(engine._DEEP_RANK_BYTES)
        return comm.allreduce(comm.rank)

    bare = SpmdPool()
    try:
        run_spmd(_one_barrier, 8, pool=bare)
        res = run_spmd(deep, 8, pool=bare)
    finally:
        bare.shutdown()
    assert res.results == [28] * 8


def test_flat_backend_creates_no_pool_and_places_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the flat backend touched pools or affinity")

    monkeypatch.setattr(engine, "SpmdPool", forbidden)
    monkeypatch.setattr(engine, "default_pool", forbidden)
    monkeypatch.setattr(engine, "_place", forbidden)
    if hasattr(os, "sched_setaffinity"):
        monkeypatch.setattr(os, "sched_setaffinity", forbidden)
    r = run_sort("sds", uniform(), p=8, n_per_rank=200, backend="flat",
                 mem_factor=None)
    assert r.ok and r.extras["engine"]["backend"] == "flat"


class TestCancelWatcher:
    def test_completion_does_not_wait_for_the_poll_tick(self, pool):
        """When the engine joined a watcher asleep in ``cancel.wait``
        every run waited out the rest of the 10 ms tick — the *fastest*
        took 10.4 ms.  Now a run costs ~0.7 ms (median, quiet host;
        3-7 ms with the host loaded: the watcher's start and join
        stretch), so the median is held under the old floor with room
        for load, and one run at least must be clearly tick-free."""
        walls = []
        for _ in range(20):
            t0 = time.perf_counter()
            run_spmd(_one_barrier, 16, pool=pool, cancel=threading.Event())
            walls.append(time.perf_counter() - t0)
        walls.sort()
        assert walls[0] < 0.005
        assert walls[len(walls) // 2] < 0.008

    def test_in_flight_cancel_is_delivered_within_a_tick(self, pool):
        cancel = threading.Event()
        entered = threading.Event()
        fired = []

        def prog(comm):
            if comm.rank == 0:
                entered.set()
                comm.recv(source=1)  # never sent: only an abort wakes it
            else:
                comm.barrier()

        def fire():
            entered.wait(5)
            fired.append(time.perf_counter())
            cancel.set()

        firer = threading.Thread(target=fire)
        firer.start()
        with pytest.raises(RankFailure) as info:
            run_spmd(prog, 4, pool=pool, cancel=cancel)
        late = time.perf_counter() - fired[0]
        firer.join(5)
        assert not firer.is_alive()
        cause = info.value.cause
        assert isinstance(cause, RunCancelled)
        assert str(cause) == "run cancelled while in flight"
        assert late < 0.05
