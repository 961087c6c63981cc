"""The sort service: specs, admission, scheduling, and determinism.

The load-bearing contract is bit-identical equivalence: any stream of
JobSpecs run through the service — serially, concurrently, or
interleaved with chaos and traced jobs, on a fresh engine pool or a
reused one — must produce exactly the result documents direct
``run_sort`` calls would, modulo the wall-clock fields ``comparable()``
strips.
"""

import threading
import time

import pytest

from repro.service import (
    AdmissionController,
    Job,
    JobQueue,
    JobSpec,
    JobValidationError,
    ServiceClient,
    ServiceState,
    SortService,
    comparable,
    estimate_job_bytes,
    job_envelope,
    sort_doc,
)
from repro.service.daemon import handle_request
from repro.service.queue import CancelToken


def direct_doc(spec: JobSpec) -> dict:
    """The sort/v5 doc a plain ``run_sort`` of this spec produces."""
    r = spec.run()
    return comparable(sort_doc(r, machine=spec.machine, seed=spec.seed,
                               fault_seed=spec.fault_seed,
                               explain=spec.explain))


def service_doc(envelope: dict) -> dict:
    assert envelope["status"] == "done", \
        f"job {envelope['job_id']}: {envelope['status']} ({envelope['error']})"
    return comparable(envelope["result"])


#: Spec fields of the wrong JSON type, as a client can send them.
WRONG_TYPED = [
    {"algorithm": ["sds"]},
    {"algorithm": {"name": "sds"}},
    {"backend": ["flat"]},
    {"machine": ["edison"]},
    {"workload": ["uniform"]},
    {"workload": 7},
    {"workload_opts": "alpha"},
    {"algo_opts": [1]},
    {"mem_factor": "abc"},
    {"mem_factor": [2.0]},
]


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec(algorithm="sds-stable", workload="zipf",
                       workload_opts={"alpha": 1.1}, p=8, n_per_rank=300,
                       backend="flat", seed=7, faults=None, trace=True)
        again = JobSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_faults_accept_preset_name(self):
        spec = JobSpec.from_dict({"faults": "straggler", "p": 8,
                                  "n_per_rank": 200})
        assert spec.faults is not None and not spec.faults.empty

    @pytest.mark.parametrize("bad", WRONG_TYPED + [
        {"algorithm": "quicksort3"},
        {"backend": "gpu"},
        {"p": 0},
        {"n_per_rank": -1},
        {"machine": "frontier"},
        {"workload": "lognormal"},
        {"workload": "zipf", "workload_opts": {"beta": 2}},
        {"mystery_knob": 1},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "3"},
        {"seed": None},
        {"fault_seed": -1},
        {"fault_seed": 2.0},
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(JobValidationError):
            JobSpec.from_dict(bad)

    def test_run_is_the_direct_path(self):
        spec = JobSpec(p=8, n_per_rank=300, seed=4)
        r = spec.run()
        assert r.ok and r.p == 8


class TestAdmission:
    def test_estimate_is_deterministic_and_positive(self):
        spec = JobSpec(p=16, n_per_rank=2000)
        est = estimate_job_bytes(spec)
        assert est > 0
        assert est == estimate_job_bytes(spec)

    def test_estimate_scales_with_p(self):
        small = estimate_job_bytes(JobSpec(p=4, n_per_rank=1000))
        large = estimate_job_bytes(JobSpec(p=64, n_per_rank=1000))
        assert large > small

    @pytest.mark.parametrize("workload", ["uniform", "zipf", "ptf"])
    @pytest.mark.parametrize("algorithm", ["sds", "sds-stable"])
    @pytest.mark.parametrize("p", [25, 26, 48, 50, 64, 74])
    def test_estimate_bounds_the_default_run(self, p, algorithm, workload):
        # node merge on (the default): a leader holds its node's data,
        # unless a short last node votes merging off (p = 26, 50, 74)
        # and no leader is modelled; either way the bound stays close
        spec = JobSpec(algorithm=algorithm, workload=workload, p=p,
                       backend="flat")
        r = spec.run()
        assert r.ok, r.failure
        peak = sum(r.extras["mem_peaks"])
        assert peak <= estimate_job_bytes(spec) <= 1.25 * peak

    def test_over_budget_is_typed_backpressure(self):
        ctrl = AdmissionController(mem_budget_bytes=1)
        d = ctrl.admit(JobSpec(p=8, n_per_rank=1000), queue_depth=0)
        assert not d.admitted and d.code == "over-budget"
        assert "budget" in d.reason
        assert d.estimated_bytes > d.budget_bytes

    def test_queue_full_is_typed(self):
        ctrl = AdmissionController(max_queue_depth=2)
        d = ctrl.admit(JobSpec(p=4, n_per_rank=100), queue_depth=2)
        assert not d.admitted and d.code == "queue-full"

    def test_commit_and_release_balance(self):
        ctrl = AdmissionController()
        spec = JobSpec(p=8, n_per_rank=500)
        d1 = ctrl.admit(spec, queue_depth=0)
        d2 = ctrl.admit(spec, queue_depth=1)
        assert d1.admitted and d2.admitted
        assert ctrl.committed_bytes == \
            d1.estimated_bytes + d2.estimated_bytes
        ctrl.release(d1)
        ctrl.release(d2)
        assert ctrl.committed_bytes == 0

    def test_budget_frees_as_jobs_release(self):
        spec = JobSpec(p=8, n_per_rank=500)
        est = estimate_job_bytes(spec)
        ctrl = AdmissionController(mem_budget_bytes=est + est // 2)
        d1 = ctrl.admit(spec, queue_depth=0)
        d2 = ctrl.admit(spec, queue_depth=1)
        assert d1.admitted and not d2.admitted
        ctrl.release(d1)
        d3 = ctrl.admit(spec, queue_depth=0)
        assert d3.admitted


class TestJobQueue:
    def _job(self, seq, priority="batch"):
        return Job(id=f"j-{seq}", spec=JobSpec(), priority=priority, seq=seq)

    def test_priority_classes_beat_fifo(self):
        q = JobQueue()
        q.push(self._job(1, "bulk"))
        q.push(self._job(2, "batch"))
        q.push(self._job(3, "interactive"))
        q.push(self._job(4, "interactive"))
        order = [q.pop().seq for _ in range(4)]
        assert order == [3, 4, 2, 1]

    def test_pop_skips_cancelled(self):
        q = JobQueue()
        a, b = self._job(1), self._job(2)
        q.push(a)
        q.push(b)
        a.finish("cancelled")
        assert q.pop() is b
        assert q.depth() == 0
        assert q.pop() is None

    def test_pop_of_an_empty_queue_is_none(self):
        # a worker waits on the service's condition, never in the queue
        assert JobQueue().pop() is None

    def test_cancel_token_reads_its_deadline(self):
        past, future = CancelToken(time.monotonic()), \
            CancelToken(time.monotonic() + 60)
        assert past.is_set() and past.timed_out
        assert not future.is_set()
        future.set()
        assert future.is_set() and not future.timed_out
        late = CancelToken(time.monotonic())
        late.set()  # the deadline had passed: it fired first
        assert late.timed_out
        assert type(self._job(1).cancel_event) is threading.Event

class TestServiceLifecycle:
    def test_submit_run_result(self):
        with ServiceClient(workers=2) as c:
            env = c.run(JobSpec(p=8, n_per_rank=300, seed=2))
            assert env["status"] == "done"
            assert env["schema"] == "sdssort.job/v1"
            assert env["result"]["schema"] == "sdssort.sort/v5"
            assert env["result"]["timing"]["run_ms"] > 0
            assert env["timing"]["total_ms"] >= env["timing"]["run_ms"]
            assert env["admission"]["code"] == "admitted"

    def test_invalid_spec_rejected_typed(self):
        with ServiceClient() as c:
            env = c.submit({"algorithm": "nope"})
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "invalid"
            assert "nope" in env["error"]
            # a field of the wrong JSON type is the same rejection — it
            # used to escape ``validate`` as a TypeError and leave a job
            # counted ``submitted`` with no spec and no terminal state
            for bad in WRONG_TYPED:
                env = c.submit(bad)
                assert env["status"] == "rejected", bad
                assert env["admission"]["code"] == "invalid", bad
                assert "must be" in env["error"], bad
                assert c.status(env["job_id"])["status"] == "rejected"
            assert c.run(JobSpec(p=8, n_per_rank=100))["status"] == "done"
            counts = c.stats()["counts"]
            assert counts["submitted"] == len(WRONG_TYPED) + 2
            assert counts["rejected"] == len(WRONG_TYPED) + 1
            assert counts["submitted"] == sum(
                n for state, n in counts.items() if state != "submitted")
            # every remembered job is terminal, so the service's cap on
            # terminal jobs bounds what malformed input can leave behind
            jobs = c.service._jobs.values()
            assert all(j.terminal and j.spec is not None for j in jobs)
            assert len(jobs) == len(c.service._terminal) == len(
                WRONG_TYPED) + 2

    @pytest.mark.parametrize("field", ["seed", "fault_seed"])
    @pytest.mark.parametrize("bad", [-1, 1.5, "3"])
    def test_malformed_seed_rejected_typed(self, field, bad):
        # it used to reach admission's probe shard and escape as
        # numpy's ValueError / TypeError: no envelope, and a job counted
        # ``submitted`` that never reached a terminal state
        with ServiceClient() as c:
            env = c.submit({"p": 8, "n_per_rank": 100, field: bad})
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "invalid"
            assert env["admission"]["estimated_bytes"] == 0
            assert env["error"] == (f"{field} must be an integer >= 0, "
                                    f"got {bad!r}")
            assert c.run(JobSpec(p=8, n_per_rank=100))["status"] == "done"
            st = c.stats()
            counts = st["counts"]
            assert counts["submitted"] == 2
            assert counts["submitted"] == sum(
                n for state, n in counts.items() if state != "submitted")
            assert st["admission"]["committed_bytes"] == 0

    def test_over_budget_rejected_typed(self):
        with ServiceClient(mem_budget_bytes=1000) as c:
            env = c.submit(JobSpec(p=32, n_per_rank=50_000))
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "over-budget"

    def test_queue_full_rejected_typed(self):
        svc = SortService(workers=1, max_queue_depth=1)
        try:
            first = svc.submit(JobSpec(p=16, n_per_rank=50_000))
            # fill the single queue slot while the first job runs
            deadline = time.monotonic() + 5
            filler = None
            while time.monotonic() < deadline:
                j = svc.submit(JobSpec(p=4, n_per_rank=100))
                if j.status == "queued":
                    filler = j
                    break
                time.sleep(0.005)
            assert filler is not None
            over = svc.submit(JobSpec(p=4, n_per_rank=100))
            assert over.status == "rejected"
            assert over.admission.code == "queue-full"
            assert first is not None
        finally:
            svc.close()

    def test_failed_job_reports_engine_failure(self):
        with ServiceClient() as c:
            # this shape OOMs inside the simulation (rank-0 gather)
            env = c.run(JobSpec(algorithm="hyksort", workload="zipf",
                                workload_opts={"alpha": 2.1},
                                p=16, n_per_rank=800))
            assert env["status"] == "failed"
            assert env["result"]["ok"] is False
            assert env["result"]["oom"] is True

    def test_timeout_cancels_running_job(self, monkeypatch):
        # one test id for both backends: the tier-1 floor compares ids.
        # Rank 3's shard draw holds the job until its deadline has
        # passed, so the deadline finds it running: a fast host could
        # otherwise pass the job's last cancel poll inside the 30 ms
        from repro.workloads import Workload

        shard, jobs, known = Workload.shard, [], threading.Event()

        def gated_shard(self, n, p, rank, seed=0):
            if p == 16 and rank == 3:  # run_sort's own probe draws rank 0 only
                assert known.wait(10)
                token, give_up = jobs[-1].cancel_event, time.monotonic() + 10
                while not token.is_set() and time.monotonic() < give_up:
                    time.sleep(0.001)
            return shard(self, n, p, rank, seed)

        monkeypatch.setattr(Workload, "shard", gated_shard)
        for backend in ("thread", "flat"):
            with ServiceClient(workers=1) as c:
                known.clear()
                jobs.append(c.service.submit(JobSpec(
                    p=16, n_per_rank=50_000, backend=backend), timeout_s=0.03))
                known.set()
                env = job_envelope(c.service.wait(jobs[-1].id))
                assert env["status"] == "timeout", backend
                assert "RunCancelled" in (env["error"] or ""), backend
                # the service stays healthy afterwards
                ok = c.run(JobSpec(p=4, n_per_rank=200, backend=backend))
                assert ok["status"] == "done", backend
                assert c.stats()["admission"]["committed_bytes"] == 0

    def test_cancel_running_flat_job(self, monkeypatch):
        # the cancel lands while the flat world is generating shards:
        # it must abort at its next poll — between two blocks of ranks —
        # not run to completion
        from repro.workloads import Workload

        started, released = threading.Event(), threading.Event()
        shard = Workload.shard
        drawn = []

        def gated_shard(self, n, p, rank, seed=0):
            if p == 512:  # the job below, not the healthy one after it
                drawn.append(rank)
                if rank == 3:  # run_sort's own probe draws rank 0 only
                    started.set()
                    assert released.wait(10)
            return shard(self, n, p, rank, seed)

        monkeypatch.setattr(Workload, "shard", gated_shard)
        svc = SortService(workers=1, telemetry=True)
        try:
            job = svc.submit(JobSpec(p=512, n_per_rank=20, backend="flat"))
            assert started.wait(10)
            assert job.status == "running"
            svc.cancel(job.id)
            released.set()
            svc.wait(job.id, timeout=10)
            assert job.status == "cancelled"
            assert "RunCancelled('run cancelled while in flight')" \
                in job.error
            # the first block was finished, the second never drawn
            assert 3 in drawn and max(drawn) < 511
            assert svc.stats()["admission"]["committed_bytes"] == 0
            assert svc.metrics.engine_cancels.value == 1
            monkeypatch.undo()
            ok = svc.submit(JobSpec(p=4, n_per_rank=200, backend="flat"))
            svc.wait(ok.id, timeout=10)
            assert ok.status == "done"
        finally:
            released.set()
            svc.close()

    @pytest.mark.parametrize("backend", ["thread", "flat"])
    @pytest.mark.parametrize("how", ["cancelled", "timeout"])
    def test_cancel_between_pop_and_world_start(self, how, backend,
                                                monkeypatch):
        # the cancel (or the deadline) lands after the worker took the
        # job and before its world starts: the job is already
        # ``running``, and no backend may run it to completion
        starting, go = threading.Event(), threading.Event()
        run = JobSpec.run

        def gated_run(self, **kwargs):
            starting.set()
            assert go.wait(10)
            return run(self, **kwargs)

        monkeypatch.setattr(JobSpec, "run", gated_run)
        svc = SortService(workers=1)
        try:
            job = svc.submit(JobSpec(p=8, n_per_rank=200, backend=backend),
                             timeout_s=0.05 if how == "timeout" else None)
            assert starting.wait(10)
            assert job.status == "running"
            if how == "cancelled":
                svc.cancel(job.id)
            else:
                time.sleep(max(0.0, job.deadline - time.monotonic()) + 0.01)
            go.set()
            svc.wait(job.id, timeout=10)
            assert job.status == how
            assert "RunCancelled" in job.error
            assert svc.stats()["admission"]["committed_bytes"] == 0
        finally:
            go.set()
            svc.close()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1, True, False, "5",
                                     [5], {}, 10 ** 400],
                             ids=["nan", "inf", "-inf", "negative", "true",
                                  "false", "string", "list", "object",
                                  "huge-int"])
    def test_malformed_timeouts_are_typed_errors(self, bad):
        # NaN used to time a job out before it started, Infinity to kill
        # the watchdog thread and run the job with no deadline, ``true``
        # to become a 1 s deadline, "5" to escape as a TypeError; the
        # result op took NaN / ``true`` and raised OverflowError on
        # Infinity
        svc = SortService(workers=1)
        try:
            response, _ = handle_request(svc, {
                "op": "submit", "spec": {"p": 4, "n_per_rank": 100},
                "timeout_s": bad})
            assert not response["ok"]
            assert response["error"].startswith(
                "ValueError: timeout_s must be None or a finite number > 0")
            job = svc.submit(JobSpec(p=4, n_per_rank=100))
            response, _ = handle_request(svc, {
                "op": "result", "job_id": job.id, "timeout": bad})
            assert not response["ok"]
            assert response["error"].startswith(
                "ValueError: timeout must be None or a finite number >= 0")
            response, _ = handle_request(svc, {
                "op": "result", "job_id": job.id, "timeout": 1e300})
            assert response["ok"] and response["job"]["status"] == "done"
            counts = svc.stats()["counts"]
            assert counts["submitted"] == counts["done"] == 1
            assert counts["submitted"] == sum(
                n for state, n in counts.items() if state != "submitted")
            assert svc.stats()["admission"]["committed_bytes"] == 0
        finally:
            svc.close()

    def test_deadlines_start_no_threads(self, monkeypatch):
        def no_timer(*args, **kwargs):
            raise AssertionError("a deadline started a timer thread")

        JobSpec(p=8, n_per_rank=50, backend="thread").run()  # pool grown
        baseline = threading.active_count()
        monkeypatch.setattr(threading, "Timer", no_timer)
        with ServiceClient(workers=2) as c:
            envs = [c.submit(JobSpec(p=8, n_per_rank=100 + s, seed=s,
                                     backend=("thread", "auto")[s % 2]),
                             timeout_s=60) for s in range(20)]
            assert [c.result(e["job_id"])["status"] for e in envs] \
                == ["done"] * 20
        assert threading.active_count() == baseline

    def test_cancel_queued_job(self):
        with ServiceClient(workers=1) as c:
            slow = c.submit(JobSpec(p=16, n_per_rank=50_000))
            queued = c.submit(JobSpec(p=4, n_per_rank=100))
            c.cancel(queued["job_id"])
            assert c.result(queued["job_id"])["status"] == "cancelled"
            assert c.result(slow["job_id"])["status"] == "done"

    def test_interactive_overtakes_bulk(self):
        svc = SortService(workers=1)
        try:
            svc.submit(JobSpec(p=16, n_per_rank=50_000))  # occupies worker
            bulk = svc.submit(JobSpec(p=4, n_per_rank=100, seed=1),
                              priority="bulk")
            inter = svc.submit(JobSpec(p=4, n_per_rank=100, seed=2),
                               priority="interactive")
            svc.wait(bulk.id)
            svc.wait(inter.id)
            assert inter.started_at < bulk.started_at
        finally:
            svc.close()

    def test_drain_state_machine(self):
        svc = SortService(workers=2)
        jobs = [svc.submit(JobSpec(p=8, n_per_rank=300, seed=s))
                for s in range(4)]
        assert svc.state is ServiceState.ACCEPTING
        assert svc.drain(timeout=30)
        assert svc.state is ServiceState.STOPPED
        for j in jobs:
            assert j.status == "done"
        late = svc.submit(JobSpec(p=4, n_per_rank=100))
        assert late.status == "rejected"
        assert late.admission.code == "draining"
        svc.close()

    def test_stats_shape(self):
        with ServiceClient() as c:
            c.run(JobSpec(p=8, n_per_rank=200, backend="thread"))
            st = c.stats()
            assert st["state"] == "accepting"
            assert st["counts"]["done"] == 1
            assert st["admission"]["committed_bytes"] == 0
            assert st["pools"]["hits"] + st["pools"]["misses"] == 1


class TestWarmPools:
    """``thread`` jobs run on the engine's one pool, which stays warm."""

    def test_warm_rerun_hits_cache_and_matches(self, fresh_pool):
        spec = JobSpec(p=8, n_per_rank=400, seed=5, backend="thread")
        with ServiceClient(workers=1) as c:
            first = c.run(spec)
            second = c.run(spec)
            assert c.stats()["pools"] == {"hits": 1, "misses": 1}
            assert service_doc(first) == service_doc(second)

    def test_pool_reuse_does_not_leak_state(self, fresh_pool):
        """A job replayed after 20 other jobs on the same pool is
        bit-identical to its first run and to the direct path."""
        probe = JobSpec(p=8, n_per_rank=400, seed=9, backend="thread")
        with ServiceClient(workers=2) as c:
            first = service_doc(c.run(probe))
            for s in range(20):
                alg = "sds-stable" if s % 3 else "sds"
                env = c.run(JobSpec(algorithm=alg, p=8, backend="thread",
                                    n_per_rank=100 + 17 * s, seed=s))
                assert env["status"] == "done"
            again = service_doc(c.run(probe))
            assert c.stats()["pools"]["misses"] == 1  # one pool, reused
        assert first == again == direct_doc(probe)

    def test_concurrent_thread_jobs_match_direct(self):
        """Thread jobs that arrive together take turns on the one pool."""
        specs = [JobSpec(algorithm=alg, p=p, n_per_rank=300, seed=s,
                         backend="thread")
                 for s, (alg, p) in enumerate([("sds", 8), ("psrs", 16),
                                               ("sds-stable", 8),
                                               ("sds", 16)])]
        with ServiceClient(workers=2) as c:
            envs = [c.submit(spec) for spec in specs]
            got = [service_doc(c.result(e["job_id"])) for e in envs]
        assert got == [direct_doc(spec) for spec in specs]


def acceptance_stream() -> list[JobSpec]:
    """50 mixed jobs: 3 algorithms x 2 backends x 2 workloads x 4
    seeds, plus one traced and one chaos job."""
    stream = []
    for algorithm in ("sds", "sds-stable", "psrs"):
        for backend in ("thread", "flat"):
            for workload, opts in (("uniform", {}),
                                   ("zipf", {"alpha": 1.1})):
                for seed in range(4):
                    stream.append(JobSpec(
                        algorithm=algorithm, workload=workload,
                        workload_opts=opts, p=8,
                        n_per_rank=150 + 25 * seed, backend=backend,
                        seed=seed))
    stream.append(JobSpec(p=8, n_per_rank=300, seed=1, trace=True))
    stream.append(JobSpec.from_dict({"p": 8, "n_per_rank": 250,
                                     "faults": "mixed", "fault_seed": 3}))
    assert len(stream) == 50
    return stream


class TestAcceptanceRoundTrip:
    """ISSUE 9 acceptance: >= 50 mixed jobs through the in-process
    client, bit-identical to direct ``run_sort`` runs."""

    @pytest.fixture(scope="class")
    def direct(self):
        return [direct_doc(spec) for spec in acceptance_stream()]

    def test_serial_service_matches_direct(self, direct):
        stream = acceptance_stream()
        with ServiceClient(workers=1) as c:
            got = [service_doc(c.run(spec)) for spec in stream]
        assert got == direct

    def test_concurrent_service_matches_direct(self, direct):
        stream = acceptance_stream()
        with ServiceClient(workers=4) as c:
            envs = [c.submit(spec) for spec in stream]
            got = [service_doc(c.result(e["job_id"])) for e in envs]
        assert got == direct

    def test_interleaved_submitters_match_direct(self, direct):
        """Four threads submitting slices concurrently — arrival order
        is nondeterministic, results must not be."""
        stream = acceptance_stream()
        results: dict[int, dict] = {}
        errors = []

        with ServiceClient(workers=4) as c:
            def submitter(offset):
                try:
                    for i in range(offset, len(stream), 4):
                        results[i] = service_doc(c.run(stream[i]))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=submitter, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert [results[i] for i in range(len(stream))] == direct

    def test_acceptance_stream_is_mixed(self):
        stream = acceptance_stream()
        assert len(stream) >= 50
        assert {s.algorithm for s in stream} >= {"sds", "sds-stable", "psrs"}
        assert {s.backend for s in stream} >= {"thread", "flat"}
        assert any(s.trace for s in stream)
        assert any(s.faults is not None and not s.faults.empty
                   for s in stream)


class TestEnvelope:
    def test_envelope_shape(self):
        with ServiceClient() as c:
            env = c.run(JobSpec(p=8, n_per_rank=200))
        for key in ("schema", "job_id", "status", "priority", "algorithm",
                    "workload", "p", "n_per_rank", "backend", "admission",
                    "timing", "error", "result"):
            assert key in env, key
        assert env["job_id"].startswith("j-")

    def test_comparable_strips_volatile_fields(self):
        spec = JobSpec(p=8, n_per_rank=200)
        doc = sort_doc(spec.run(), machine=spec.machine, seed=spec.seed,
                       queue_ms=12.5, run_ms=99.0)
        stripped = comparable(doc)
        assert "timing" not in stripped
        assert "pool_threads" not in stripped["engine"]
        assert doc["timing"] == {"queue_ms": 12.5, "run_ms": 99.0}

    def test_job_envelope_without_result(self):
        with ServiceClient() as c:
            env = c.submit(JobSpec(p=8, n_per_rank=200))
            assert env["result"] is None
            job = c.service.wait(env["job_id"])
            assert job_envelope(job, include_result=False)["result"] is None
            assert job_envelope(job)["result"] is not None
