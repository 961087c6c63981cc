"""Concurrent job scheduling, drain, and timeouts.

:class:`SortService` is the long-lived object behind every front-end
(`sdssort serve`, `sdssort submit`, the in-process
:class:`~repro.service.client.ServiceClient`): it owns the
:class:`~repro.service.queue.JobQueue`, the
:class:`~repro.service.admission.AdmissionController` and a fixed set
of :class:`Scheduler` worker threads that drain the queue concurrently.
It owns no engine state: a ``thread`` job runs on the engine's one
:func:`~repro.mpi.engine.default_pool`.

Lifecycle (the drain state machine, see ``docs/service.md``)::

    ACCEPTING --drain()--> DRAINING --queue+running empty--> STOPPED

``drain`` stops admission immediately (submissions get a typed
``draining`` rejection), lets queued and running jobs finish, then
stops the workers.  Per-job timeouts cancel: a job's deadline rides on
its cancel token (:class:`~repro.service.queue.CancelToken`), so an
expired queued job never starts and the engine turns a deadline that
passes later into a ``RunCancelled`` abort (before the world starts or
mid-run, on every backend) — either way the job lands in the
``timeout`` state and releases its admission budget.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from enum import Enum
from typing import Any

import logging

from ..mpi.engine import Seat, _place, default_pool
from ..runner import resolve_backend
from .admission import AdmissionController, AdmissionDecision
from .metrics import ServiceMetrics
from .queue import Job, JobQueue
from .slog import log_event, service_logger
from .spec import DEFAULT_PRIORITY, PRIORITIES, JobSpec, JobValidationError

#: Default scheduler concurrency (worker threads draining the queue).
DEFAULT_WORKERS = 2

#: Modelled per-rank peak (``admission.estimated_bytes // p``) from which a
#: flat job is *deep*: its worker leaves the process's shared CPU for the
#: run, so deep jobs overlap in numpy's GIL-free sections; under it a job
#: is interpreter-bound and free workers only pass one GIL between cores.
#: Sweep, 2-core host, 2 workers x 2 connections, one shape per 3 s loop,
#: twice: jobs/s with every worker pinned over every worker free (what the
#: parent did), lowest-highest of p = 16 / 32 / 64 / 128:
#:   n/rank       200       500       1000      2000      3000      4000      8000
#:   sds, psrs    9-12      20-25     41-47     80-89     120-130   159-170   317-332 KiB
#:    sds uniform 1.26-1.76 1.34-1.50 1.24-1.47 1.04-1.36 0.87-1.35 0.78-1.19 0.61-0.94
#:    psrs unif.  1.33-1.62 1.22-1.67 1.17-1.39 0.99-1.52 0.72-1.41 0.63-1.23 0.50-1.01
#:   sds-stable   16-22     37-45     75-84     149-160   224-233   298-305   585-600 KiB
#:    on ptf      1.68-2.13 1.41-1.94 1.28-1.74 1.03-1.37 0.86-1.13 0.83-1.30 0.55-1.00
#: Under ~90 KiB staying never loses; from ~120 KiB the worlds of p >= 64 do
#: (p = 16 still gains to ~300), so the mark sits between: over it a job
#: runs as on the parent.  More cores move the crossover down.
_DEEP_JOB_RANK_BYTES = 96 * 1024

#: Terminal jobs the service remembers, ~8 KB of result document each; the
#: oldest finished is forgotten first and its id answers ``unknown job id``.
MAX_TERMINAL_JOBS = 1024

_LOG = service_logger("service.scheduler")


def _check_seconds(name: str, value: Any, *, positive: bool) -> None:
    """Reject a wire duration that is not ``None`` or a finite int or
    float (``bool`` is not one), > 0 if ``positive`` else >= 0."""
    if value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max  # NaN fails it too
            or positive and value == 0):
        raise ValueError(f"{name} must be None or a finite number "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")


class ServiceState(Enum):
    """The service lifecycle (transitions only move rightward)."""

    ACCEPTING = "accepting"
    DRAINING = "draining"
    STOPPED = "stopped"


class Scheduler(threading.Thread):
    """One worker draining the queue; runs jobs to completion."""

    def __init__(self, service: "SortService", index: int):
        super().__init__(name=f"sort-service-worker-{index}", daemon=True)
        self._service = service

    def run(self) -> None:
        svc = self._service
        seat = Seat(_place())
        seat.move(True)
        while True:
            job = svc.queue.pop(timeout=0.05)
            if job is None:
                if svc._stop_workers.is_set():
                    return
                continue
            svc._execute(job, seat)


class SortService:
    """The sort-as-a-service engine host.

    Parameters
    ----------
    workers:
        Concurrent jobs (scheduler threads); ``thread`` jobs among them
        take turns on the engine's one pool.
    max_queue_depth, mem_budget_bytes:
        Admission bounds (see :class:`AdmissionController`); pass
        ``mem_budget_bytes=None`` to disable the memory gate.
    telemetry:
        Keep a :class:`~repro.service.metrics.ServiceMetrics` (metric
        registry + cross-job cost rollup) updated through the job
        lifecycle and the engine boundary.  On by default — telemetry
        never touches result documents, so golden equivalence holds
        either way; ``False`` removes every hook (``self.metrics`` is
        ``None`` and the ``metrics`` op reports it as disabled).
    """

    def __init__(self, *, workers: int = DEFAULT_WORKERS,
                 max_queue_depth: int | None = None,
                 mem_budget_bytes: int | None = ...,  # type: ignore[assignment]
                 telemetry: bool = True):
        admission_kwargs: dict[str, Any] = {}
        if max_queue_depth is not None:
            admission_kwargs["max_queue_depth"] = max_queue_depth
        if mem_budget_bytes is not ...:
            admission_kwargs["mem_budget_bytes"] = mem_budget_bytes
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.metrics = ServiceMetrics() if telemetry else None
        self.queue = JobQueue()
        self.admission = AdmissionController(**admission_kwargs)
        self.state = ServiceState.ACCEPTING
        self._jobs: dict[str, Job] = {}
        self._terminal: deque[str] = deque()   # finished ids, oldest first
        self._lock = threading.Lock()          # jobs dict + state + counters
        self._submit_lock = threading.Lock()   # serialises admission order
        self._seq = 0
        self._running = 0
        self._idle = threading.Condition(self._lock)
        self._stop_workers = threading.Event()
        self._counts = {"submitted": 0, "rejected": 0, "done": 0,
                        "failed": 0, "cancelled": 0, "timeout": 0}
        # jobs that reached a worker; a miss started rank threads
        self._pools = {"hits": 0, "misses": 0}
        self._workers = [Scheduler(self, i) for i in range(workers)]
        for w in self._workers:
            w.start()

    # -- submission ---------------------------------------------------
    def submit(self, spec: JobSpec | dict[str, Any], *,
               priority: str = DEFAULT_PRIORITY,
               timeout_s: float | None = None) -> Job:
        """Admit one job (or reject it with a typed decision).

        Always returns a :class:`Job`: rejected submissions come back
        in the ``rejected`` state with ``job.admission`` (or
        ``job.error`` for validation failures) explaining why — the
        caller never has to catch anything to see backpressure.
        """
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; "
                             f"options: {list(PRIORITIES)}")
        _check_seconds("timeout_s", timeout_s, positive=True)
        with self._submit_lock:
            with self._lock:
                self._seq += 1
                job = Job(id=f"j-{self._seq:06d}", spec=None,  # type: ignore
                          priority=priority, seq=self._seq,
                          timeout_s=timeout_s)
                self._jobs[job.id] = job
                self._counts["submitted"] += 1
                draining = self.state is not ServiceState.ACCEPTING
            if self.metrics is not None:
                self.metrics.job_submitted(priority)
            try:
                if isinstance(spec, dict):
                    spec = JobSpec.from_dict(spec)
                else:
                    spec.validate()
            except JobValidationError as exc:
                job.spec = spec if isinstance(spec, JobSpec) else JobSpec()
                self._reject(job, AdmissionDecision(
                    admitted=False, code="invalid", reason=str(exc),
                    estimated_bytes=0,
                    committed_bytes=self.admission.committed_bytes,
                    budget_bytes=self.admission.mem_budget_bytes,
                    queue_depth=self.queue.depth(),
                    max_queue_depth=self.admission.max_queue_depth,
                    headroom_bytes=(
                        None if self.admission.mem_budget_bytes is None
                        else self.admission.mem_budget_bytes
                        - self.admission.committed_bytes)))
                return job
            job.spec = spec
            decision = self.admission.admit(
                spec, queue_depth=self.queue.depth(), draining=draining)
            job.admission = decision
            if not decision.admitted:
                self._reject(job, decision)
                return job
            if self.metrics is not None:
                self.metrics.admission_decision(decision.code)
            self.queue.push(job)
            self._refresh_gauges()
            log_event(_LOG, "job_queued", job_id=job.id,
                      priority=priority, algorithm=spec.algorithm,
                      workload=spec.workload, backend=spec.backend,
                      p=spec.p, n_per_rank=spec.n_per_rank,
                      estimated_bytes=decision.estimated_bytes)
            return job

    def _reject(self, job: Job, decision: AdmissionDecision) -> None:
        job.admission = decision
        with self._lock:
            self._counts["rejected"] += 1
            self._finish(job, "rejected", decision.reason)
        if self.metrics is not None:
            self.metrics.admission_decision(decision.code)
            self.metrics.job_finished(job, was_running=False)
        log_event(_LOG, "job_rejected", level=logging.WARNING,
                  job_id=job.id, priority=job.priority,
                  code=decision.code, reason=decision.reason,
                  estimated_bytes=decision.estimated_bytes,
                  headroom_bytes=decision.headroom_bytes)

    # -- execution (worker threads) -----------------------------------
    def _execute(self, job: Job, seat: Seat) -> None:
        expired: tuple[str, str] | None = None
        with self._lock:
            if job.done_event.is_set():
                return  # cancel() finalised it between pop and here
            if job.cancel_event.is_set():  # cancelled, or past its deadline
                expired = (("timeout", "expired in queue") if job.timed_out
                           else ("cancelled", "cancelled while queued"))
            else:
                job.status = "running"
                job.started_at = time.monotonic()
                self._running += 1
        if expired is not None:
            self._finalize(job, expired[0], error=expired[1])
            return
        if self.metrics is not None:
            self.metrics.job_started(job)
        self._refresh_gauges()
        log_event(_LOG, "job_started", job_id=job.id,
                  priority=job.priority, queue_ms=round(job.queue_ms, 3))

        resolved, _ = resolve_backend(job.spec.backend, job.spec.algorithm)
        # off the shared CPU before a thread job: the engine's pool, if
        # this job builds it, would read a pinned worker's one-CPU mask
        # and never place its ranks.  Between jobs a worker stays where
        # the last one left it
        p, est = job.spec.p, job.admission  # no estimate: taken for deep
        seat.move(resolved != "thread" and est is not None
                  and est.estimated_bytes // p < _DEEP_JOB_RANK_BYTES)
        pool = default_pool() if resolved == "thread" else None
        threads = 0 if pool is None else pool.size

        try:
            result = job.spec.run(cancel=job.cancel_event,
                                  metrics=self.metrics)
            job.result = result
            if self.metrics is not None and result.ok:
                report = result.extras.get("trace")
                if report is not None:
                    self.metrics.fold_job_trace(job.spec, report)
            if result.ok:
                status, error = "done", None
            elif job.cancel_event.is_set():
                status = "timeout" if job.timed_out else "cancelled"
                error = result.failure
            else:
                status, error = "failed", result.failure
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            status, error = "failed", repr(exc)
        with self._lock:  # exact while thread jobs do not overlap
            miss = pool is not None and pool.size > threads
            self._pools["misses" if miss else "hits"] += 1
        self._finalize(job, status, error=error, was_running=True)

    def _finalize(self, job: Job, status: str, *, error: str | None = None,
                  was_running: bool = False) -> None:
        """Move a job to a terminal state exactly once.

        Idempotent: a worker and a concurrent ``cancel`` may both reach
        here; only the first transition counts, finishes the job and
        releases its admission budget.
        """
        with self._lock:
            if was_running:
                self._running -= 1
                self._idle.notify_all()
            if job.done_event.is_set():
                self._refresh_gauges_locked()
                return
            self._counts[status] = self._counts.get(status, 0) + 1
            self._finish(job, status, error)
            self._idle.notify_all()
        if job.admission is not None:
            self.admission.release(job.admission)
        if self.metrics is not None:
            self.metrics.job_finished(job, was_running=was_running)
        self._refresh_gauges()
        log_event(_LOG, "job_finished",
                  level=(logging.INFO if status == "done"
                         else logging.WARNING),
                  job_id=job.id, status=status, priority=job.priority,
                  error=error, queue_ms=round(job.queue_ms, 3),
                  run_ms=round(job.run_ms, 3))

    def _finish(self, job: Job, status: str, error: str | None) -> None:
        """Finish ``job`` and forget the oldest over the cap (``_lock`` held)."""
        job.finish(status, error=error)
        self._terminal.append(job.id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]

    def _refresh_gauges(self) -> None:
        """Re-derive the point-in-time gauges from the ground truth."""
        if self.metrics is None:
            return
        with self._lock:
            running = self._running
        self.metrics.update_queue_gauges(
            depth_by_class=self.queue.depth_by_class(), running=running,
            committed_bytes=self.admission.committed_bytes)

    def _refresh_gauges_locked(self) -> None:
        """Gauge refresh for call sites already holding ``_lock``."""
        if self.metrics is None:
            return
        self.metrics.update_queue_gauges(
            depth_by_class=self.queue.depth_by_class(),
            running=self._running,
            committed_bytes=self.admission.committed_bytes)

    # -- queries ------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        _check_seconds("timeout", timeout, positive=False)
        job = self.get(job_id)
        job.done_event.wait(None if timeout is None
                            else min(timeout, threading.TIMEOUT_MAX))
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or abort a running one in flight."""
        job = self.get(job_id)
        with self._lock:
            if job.terminal:
                return job
            queued = job.status == "queued"
            job.cancel_event.set()
        if queued:
            # reap immediately rather than waiting for a worker's pop
            self._finalize(job, "cancelled", error="cancelled while queued")
        return job

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counts, pools = dict(self._counts), dict(self._pools)
            running = self._running
            state = self.state.value
        return {
            "state": state,
            "queued": self.queue.depth(),
            "running": running,
            "counts": counts,
            "admission": self.admission.stats(),
            "pools": pools,
            "telemetry": self.metrics is not None,
            # p50/p99 wall latency per priority class, from the
            # telemetry histograms (None with telemetry off)
            "latency": (self.metrics.latency_summary()
                        if self.metrics is not None else None),
        }

    # -- lifecycle ----------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for in-flight work, stop the workers.

        Returns ``True`` when the service fully drained (always, unless
        ``timeout`` expired first).  Idempotent.
        """
        with self._lock:
            if self.state is ServiceState.ACCEPTING:
                self.state = ServiceState.DRAINING
                log_event(_LOG, "draining",
                          queued=self.queue.depth(), running=self._running)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self.queue.depth() or self._running:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(0.05 if remaining is None
                                else min(0.05, remaining))
        self._stop_workers.set()
        self.queue.wake_all()
        for w in self._workers:
            w.join()
        stopped = False
        with self._lock:
            stopped = self.state is not ServiceState.STOPPED
            self.state = ServiceState.STOPPED
        self._refresh_gauges()
        if stopped:
            log_event(_LOG, "stopped", counts=dict(self._counts))
        return True

    close = drain  # the engine's pool stays warm for the process

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
