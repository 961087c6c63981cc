"""Where the service's own threads run, what a finished job keeps, and
when a drained daemon ends.

One CPython hosts every world of a daemon, so the threads the service
*creates* — scheduler workers and connection threads — sit on the one
CPU ``engine._place()`` picks for the process, next to every pool's
shallow rank threads.  A worker leaves it for the span of a job that is
deep (modelled per-rank peak at or over ``_DEEP_JOB_RANK_BYTES``) or
that runs on rank threads, stays where that job left it — as a pool's
rank worker does between runs — and takes its next shallow job on the
shared CPU again, however the deep one ended.  Threads the service did not create — the caller
of ``SortService()`` / ``ServiceClient`` / ``serve_socket`` — keep their
masks.  Results cannot see any of it (``tests/test_service.py``).

Also here: a terminal job holds its ``sdssort.sort`` document and not
its ``RunResult``, the terminal ledger is capped oldest-first, and
``drain`` does not wait for idle clients to hang up.
"""

import os
import threading
import time

import pytest

from repro.mpi import engine
from repro.service import (JobSpec, ServiceClient, SocketClient, SortService,
                           comparable, estimate_job_bytes, serve_socket,
                           sort_doc)
from repro.service import scheduler
from repro.service.daemon import handle_request
from repro.workloads import Workload

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="no thread affinity API, or the process is allowed one CPU")

SHALLOW = JobSpec(p=8, n_per_rank=200)
DEEP = JobSpec(p=8, n_per_rank=8000)


def _mask(thread: threading.Thread) -> set[int]:
    return os.sched_getaffinity(thread.native_id)


def _conn_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "sort-service-conn"]


def test_the_two_shapes_straddle_the_mark():
    def per_rank(spec):
        return estimate_job_bytes(spec) // spec.p

    assert per_rank(SHALLOW) < scheduler._DEEP_JOB_RANK_BYTES <= per_rank(DEEP)


@pytest.fixture()
def served(tmp_path):
    """``(service, socket path, serving thread)`` of a 2-worker daemon."""
    path = str(tmp_path / "d.sock")
    service = SortService(workers=2)
    listening = threading.Event()
    server = threading.Thread(target=serve_socket, args=(service, path),
                              kwargs={"ready": listening.set}, daemon=True)
    server.start()
    assert listening.wait(10)
    yield service, path, server
    if server.is_alive():
        with SocketClient(path) as c:
            c.drain()
    server.join(10)
    assert not server.is_alive()


@pytest.fixture()
def drawn(monkeypatch):
    """Patches ``Workload.shard``: the affinity mask rank 3 of a p=8 job
    is drawn under goes to ``drawn.masks``; ``drawn.hold`` makes that
    draw wait for ``drawn.go``, ``drawn.fail`` makes it raise."""
    shard = Workload.shard

    class Drawn:
        masks: list = []
        started, go = threading.Event(), threading.Event()
        hold = fail = False

    def gated(self, n, p, rank, seed=0):
        if (p, rank) == (8, 3):  # probes draw rank 0 only
            Drawn.masks.append(os.sched_getaffinity(0))
            Drawn.started.set()
            if Drawn.hold:
                assert Drawn.go.wait(10)
            if Drawn.fail:
                raise RuntimeError("generator failed")
        return shard(self, n, p, rank, seed)

    monkeypatch.setattr(Workload, "shard", gated)
    yield Drawn
    Drawn.go.set()


@needs_two_cpus
class TestPlacement:
    def test_workers_and_connection_threads_share_the_placed_cpu(self, served):
        service, path, server = served
        allowed = os.sched_getaffinity(0)
        cpu, _ = engine._place()
        with SocketClient(path) as a, SocketClient(path) as b:
            for c in (a, b):  # a round trip each: every thread has started
                env = c.result(c.submit(SHALLOW)["job_id"])
                assert env["status"] == "done"
            conns = _conn_threads()
            assert len(conns) == 2 and len(service._workers) == 2
            for t in (*service._workers, *conns):
                assert _mask(t) == {cpu}, t.name
            # threads the service did not create keep their masks
            assert _mask(server) == allowed
            assert os.sched_getaffinity(0) == allowed
            a.drain()
        server.join(10)
        assert not server.is_alive()
        assert os.sched_getaffinity(0) == allowed

    def test_in_process_callers_keep_their_masks(self):
        allowed = os.sched_getaffinity(0)
        seen = {}

        def embed():
            with ServiceClient(workers=2) as c:
                for spec in (SHALLOW, DEEP, JobSpec(p=8, n_per_rank=200,
                                                    backend="thread")):
                    assert c.run(spec)["status"] == "done"
                seen["open"] = os.sched_getaffinity(0)
            seen["closed"] = os.sched_getaffinity(0)

        caller = threading.Thread(target=embed)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        assert seen == {"open": allowed, "closed": allowed}
        assert os.sched_getaffinity(0) == allowed
        # a leaked pin would switch every later pool's placement off
        assert engine._place() is not None

    @pytest.mark.parametrize("how", ["done", "failed", "timeout",
                                     "cancelled"])
    def test_a_deep_flat_job_runs_free_and_the_next_shallow_one_shared(
            self, drawn, how):
        allowed = os.sched_getaffinity(0)
        cpu, _ = engine._place()
        svc = SortService(workers=1)
        try:
            (worker,) = svc._workers
            job = svc.submit(SHALLOW)
            svc.wait(job.id, timeout=10)
            assert job.status == "done" and drawn.masks == [{cpu}]
            assert _mask(worker) == {cpu}

            drawn.started.clear()
            drawn.hold = how in ("timeout", "cancelled")
            drawn.fail = how == "failed"
            job = svc.submit(DEEP, timeout_s=0.2 if how == "timeout" else None)
            if drawn.hold:
                assert drawn.started.wait(10)
                assert _mask(worker) == allowed
                if how == "cancelled":
                    svc.cancel(job.id)
                else:
                    time.sleep(max(0.0, job.deadline - time.monotonic()))
                drawn.go.set()
            svc.wait(job.id, timeout=10)
            assert job.status == how, job.error
            # (a failing block is drawn again rank by rank: one more entry)
            assert drawn.masks[:2] == [{cpu}, allowed]
            assert drawn.masks[2:] == [allowed] * (how == "failed")
            # the worker stays out (a stream of deep jobs makes no call) ...
            assert _mask(worker) == allowed

            drawn.hold = drawn.fail = False
            del drawn.masks[:]
            job = svc.submit(SHALLOW)
            svc.wait(job.id, timeout=10)
            # ... until a shallow job brings it back
            assert job.status == "done" and drawn.masks == [{cpu}]
            assert _mask(worker) == {cpu}
            assert svc.stats()["admission"]["committed_bytes"] == 0
        finally:
            drawn.go.set()
            svc.close()

    def test_a_worker_moves_only_when_the_next_job_changes_sides(
            self, monkeypatch):
        allowed = os.sched_getaffinity(0)
        cpu, _ = engine._place()
        calls = []
        real = os.sched_setaffinity
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: (
            calls.append(set(mask)), real(pid, mask)))
        with ServiceClient(workers=1) as c:
            for spec in (SHALLOW, SHALLOW, DEEP, DEEP, DEEP, SHALLOW):
                assert c.run(spec)["status"] == "done"
        # its start, the first deep job, the shallow one after the last
        assert calls == [{cpu}, allowed, {cpu}]

    @pytest.mark.parametrize("n_per_rank, deep", [(200, False),
                                                  (40_000, True)])
    def test_thread_job_ranks_are_placed_as_in_a_direct_run(
            self, n_per_rank, deep, fresh_pool):
        # tests/test_engine_placement.py for a direct run: shallow ranks
        # end on the shared CPU, deep ones on the allowed set, and stay
        # there between runs.  Through the service that only holds if
        # the worker built the engine's pool from off the shared CPU.
        allowed = os.sched_getaffinity(0)
        cpu, _ = engine._place()
        spec = JobSpec(p=8, n_per_rank=n_per_rank, backend="thread")
        svc = SortService(workers=1)
        try:
            job = svc.submit(spec)
            svc.wait(job.id, timeout=60)
            assert job.status == "done", job.error
            pool = engine._default_pool
            assert pool._place == (cpu, sorted(allowed))
            masks = [_mask(w) for w in pool._workers]
            assert masks == [allowed if deep else {cpu}] * 8
            # asleep on the run's latch, wherever: the worker was free
            assert _mask(svc._workers[0]) == allowed
        finally:
            svc.close()

    def test_a_refused_move_leaves_the_service_serving_unplaced(
            self, monkeypatch):
        allowed = os.sched_getaffinity(0)

        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        with ServiceClient(workers=2) as c:
            for spec in (SHALLOW, DEEP, SHALLOW,
                         JobSpec(p=8, n_per_rank=200, backend="thread")):
                assert c.run(spec)["status"] == "done"
            assert [_mask(w) for w in c.service._workers] == [allowed] * 2
        assert os.sched_getaffinity(0) == allowed


def test_one_allowed_cpu_makes_no_affinity_call(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, mask: calls.append(mask), raising=False)
    with ServiceClient(workers=2) as c:
        for spec in (SHALLOW, DEEP):
            assert c.run(spec)["status"] == "done"
    assert calls == []


def _direct(spec: JobSpec) -> dict:
    return comparable(sort_doc(
        spec.run(), machine=spec.machine, seed=spec.seed,
        fault_seed=spec.fault_seed, explain=spec.explain))


class TestRetention:
    def test_a_terminal_job_keeps_its_document_only(self):
        modes = {0: {"trace": True}, 1: {"explain": True},
                 2: {"faults": "mixed", "fault_seed": 3}}

        def spec(k: int) -> JobSpec:
            return JobSpec.from_dict({"p": 4, "n_per_rank": 40 + k % 7,
                                      "seed": k, **modes.get(k % 25, {})})

        with ServiceClient(workers=2) as c:
            ids = [c.submit(spec(k))["job_id"] for k in range(300)]
            assert c.drain(timeout=120)
            jobs = [c.service.get(i) for i in ids]
            assert {j.status for j in jobs} == {"done"}
            assert all(j.result is None and j.doc is not None for j in jobs)
            for k in (0, 1, 2, 3, 25, 26, 27, 299):
                env = c.result(ids[k])
                assert env["result"] is not None
                assert comparable(env["result"]) == _direct(spec(k)), k
                assert (env["result"]["trace"] is not None) == (k % 25 == 0)
                assert ("explain" in env["result"]) == (k % 25 == 1)
                assert env["result"]["timing"] == {
                    key: env["timing"][key] for key in ("queue_ms", "run_ms")}
                assert c.result(ids[k]) == env  # the same bytes every time
            assert c.stats()["admission"]["committed_bytes"] == 0

    def test_a_failed_job_keeps_its_document_too(self):
        with ServiceClient(workers=1) as c:
            env = c.run(JobSpec(algorithm="hyksort", workload="ptf", p=48,
                                n_per_rank=2000))  # the paper's OOM
            assert env["status"] == "failed"
            assert env["result"]["oom"] is True
            assert env["result"]["failure"] == env["error"]
            assert c.service.get(env["job_id"]).result is None

    def test_the_cap_forgets_the_oldest_terminal_job_never_a_live_one(
            self, monkeypatch, drawn):
        monkeypatch.setattr(scheduler, "MAX_TERMINAL_JOBS", 5)
        drawn.hold = True
        svc = SortService(workers=1)
        try:
            running = svc.submit(JobSpec(p=8, n_per_rank=50))
            assert drawn.started.wait(10)
            queued = svc.submit(JobSpec(p=8, n_per_rank=60))
            rejected = [svc.submit({"p": 0}) for _ in range(12)]
            assert {j.status for j in rejected} == {"rejected"}
            assert (running.status, queued.status) == ("running", "queued")
            for live in (running, queued):
                assert svc.get(live.id) is live
            for gone in rejected[:7]:
                with pytest.raises(KeyError, match="unknown job id"):
                    svc.get(gone.id)
                response, _ = handle_request(
                    svc, {"op": "status", "job_id": gone.id})
                assert not response["ok"]
                assert "unknown job id" in response["error"]
            assert [svc.get(j.id) for j in rejected[7:]] == rejected[7:]

            drawn.go.set()
            for live in (running, queued):
                svc.wait(live.id, timeout=10)
                assert live.status == "done" and live.doc is not None
            # finishing order, not submission order, decides who goes
            assert list(svc._jobs) == [j.id for j in (running, queued)] \
                + [j.id for j in rejected[9:]]
            stats = svc.stats()
            assert stats["counts"]["submitted"] == 14  # counts forget nothing
            assert stats["counts"]["rejected"] == 12
            assert stats["admission"]["committed_bytes"] == 0
        finally:
            drawn.go.set()
            svc.close()


class TestDrain:
    def test_drain_does_not_wait_for_idle_clients(self, served):
        service, path, server = served
        idle = [SocketClient(path) for _ in range(3)]
        try:
            assert idle[0].stats()["state"] == "accepting"
            with SocketClient(path) as c:
                env = c.result(c.submit(SHALLOW)["job_id"])
                assert env["status"] == "done"
                t0 = time.monotonic()
                assert c.drain()["drained"] is True
            server.join(2)
            assert not server.is_alive(), "daemon outlived its drain"
            assert time.monotonic() - t0 < 2
            assert not os.path.exists(path)
            assert _conn_threads() == []
            assert service.state.value == "stopped"
        finally:
            for c in idle:
                c.close()

    def test_a_result_on_its_way_out_survives_the_drain(self, served,
                                                         drawn):
        # a client blocked in ``result`` when another drains: the work
        # finishes first, and its response is not cut off by the
        # shutdown of the connections
        service, path, server = served
        drawn.hold = True
        got = {}
        with SocketClient(path) as waiter, SocketClient(path) as c:
            job_id = waiter.submit(JobSpec(p=8, n_per_rank=50))["job_id"]
            assert drawn.started.wait(10)
            blocked = threading.Thread(
                target=lambda: got.update(env=waiter.result(job_id)))
            blocked.start()
            threading.Timer(0.1, drawn.go.set).start()
            assert c.drain()["stats"]["counts"]["done"] == 1
            blocked.join(10)
            assert not blocked.is_alive()
        assert got["env"]["status"] == "done"
        assert got["env"]["result"]["ok"] is True
        server.join(5)
        assert not server.is_alive()
