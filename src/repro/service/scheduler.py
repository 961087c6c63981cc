"""Concurrent job scheduling, drain, and timeouts.

:class:`SortService` is the long-lived object behind every front-end
(`sdssort serve`, `sdssort submit`, the in-process
:class:`~repro.service.client.ServiceClient`): it owns the
:class:`~repro.service.queue.JobQueue`, the
:class:`~repro.service.admission.AdmissionController` and a fixed set
of worker threads that drain the queue concurrently.  It owns no
engine state: a ``thread`` job runs on the engine's one
:func:`~repro.mpi.engine.default_pool`.

The service is a monitor: the job table, the queue, the running count,
the counters, the admission ledger and the lifecycle state change only
under its one lock, and its one condition is notified whenever they
do.  Workers wait on it for a job (or for ``STOPPED``), ``drain`` for an
empty queue and no running job; neither wait polls.  Admitting
a job, popping and starting one, cancelling a queued one, finishing one
and each drain step are single critical sections, so no job can be
seen half moved between two of them.

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

import logging
import sys
import threading
import time
from collections import deque
from enum import Enum
from typing import Any

from ..mpi.engine import Seat, _place, default_pool
from ..runner import resolve_backend
from .admission import AdmissionController, estimate_job_bytes
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


class SortService:
    """The sort-as-a-service engine host.

    Parameters
    ----------
    workers:
        Concurrent jobs (worker threads); ``thread`` jobs among them
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
        # the monitor: everything below changes under this one lock
        self._cond = threading.Condition(threading.Lock())
        self.queue = JobQueue()
        self.admission = AdmissionController(**admission_kwargs)
        self.state = ServiceState.ACCEPTING
        self._jobs: dict[str, Job] = {}
        self._terminal: deque[str] = deque()   # finished ids, oldest first
        self._seq = 0
        self._running = 0
        self._counts = {"submitted": 0, "rejected": 0, "done": 0,
                        "failed": 0, "cancelled": 0, "timeout": 0}
        # jobs that reached a worker; a miss started rank threads
        self._pools = {"hits": 0, "misses": 0}
        self._workers = [threading.Thread(
            target=self._work, name=f"sort-service-worker-{i}", daemon=True)
            for i in range(workers)]
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
        caller never has to catch anything to see backpressure.  The
        spec is parsed and its memory estimated before the monitor is
        entered; numbering, the admission decision and the queue push
        are one critical section, so decisions follow job ids.
        """
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; "
                             f"options: {list(PRIORITIES)}")
        _check_seconds("timeout_s", timeout_s, positive=True)
        submitted_at, invalid = time.monotonic(), None
        try:
            spec = (JobSpec.from_dict(spec) if isinstance(spec, dict)
                    else spec.validate())
            estimate = estimate_job_bytes(spec)
        except JobValidationError as exc:
            spec = spec if isinstance(spec, JobSpec) else JobSpec()
            invalid, estimate = str(exc), 0
        with self._cond:
            self._seq += 1
            job = Job(id=f"j-{self._seq:06d}", spec=spec, priority=priority,
                      seq=self._seq, timeout_s=timeout_s,
                      submitted_at=submitted_at)
            self._jobs[job.id] = job
            self._counts["submitted"] += 1
            depth = self.queue.depth()
            job.admission = decision = (
                self.admission.decision(False, "invalid", invalid, 0, depth)
                if invalid is not None else self.admission.decide(
                    estimate, queue_depth=depth,
                    draining=self.state is not ServiceState.ACCEPTING))
            if decision.admitted:
                self.queue.push(job)
                self._changed()
            else:
                self._finish(job, "rejected", decision.reason)
        if self.metrics is not None:
            self.metrics.job_submitted(priority)
            self.metrics.admission_decision(decision.code)
            if not decision.admitted:
                self.metrics.job_finished(job, was_running=False)
        if decision.admitted:
            log_event(_LOG, "job_queued", job_id=job.id,
                      priority=priority, algorithm=spec.algorithm,
                      workload=spec.workload, backend=spec.backend,
                      p=spec.p, n_per_rank=spec.n_per_rank,
                      estimated_bytes=decision.estimated_bytes)
        else:
            log_event(_LOG, "job_rejected", level=logging.WARNING,
                      job_id=job.id, priority=job.priority,
                      code=decision.code, reason=decision.reason,
                      estimated_bytes=decision.estimated_bytes,
                      headroom_bytes=decision.headroom_bytes)
        return job

    # -- execution (worker threads) -----------------------------------
    def _work(self) -> None:
        """One worker: pop and start, run, finish; return once stopped."""
        seat = Seat(_place())
        seat.move(True)
        while True:
            with self._cond:
                while (job := self.queue.pop()) is None:
                    if self.state is ServiceState.STOPPED:
                        return
                    self._cond.wait()
                # ``cancel`` finishes a queued job itself, so a set token
                # here is a deadline that passed in the queue
                expired = job.cancel_event.is_set()
                if expired:
                    self._finish(job, "timeout", "expired in queue")
                else:
                    job.status, job.started_at = "running", time.monotonic()
                    self._running += 1
                    self._changed()
            if expired:
                self._finished(job, was_running=False)
            else:
                self._execute(job, seat)

    def _execute(self, job: Job, seat: Seat) -> None:
        if self.metrics is not None:
            self.metrics.job_started(job)
        log_event(_LOG, "job_started", job_id=job.id,
                  priority=job.priority, queue_ms=round(job.queue_ms, 3))

        resolved, _ = resolve_backend(job.spec.backend, job.spec.algorithm)
        # off the shared CPU before a thread job: the engine's pool, if
        # this job builds it, would read a pinned worker's one-CPU mask
        # and never place its ranks.  Between jobs a worker stays where
        # the last one left it
        p, est = job.spec.p, job.admission
        seat.move(resolved != "thread"
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
        with self._cond:  # exact while thread jobs do not overlap
            miss = pool is not None and pool.size > threads
            self._pools["misses" if miss else "hits"] += 1
            self._running -= 1
            self._finish(job, status, error)
        self._finished(job, was_running=True)

    def _finish(self, job: Job, status: str, error: str | None) -> None:
        """Move ``job`` to a terminal state, release its budget and forget
        the oldest finished job over the cap (monitor held)."""
        self._counts[status] += 1
        self.admission.release(job.admission)
        job.finish(status, error=error)
        self._terminal.append(job.id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]
        self._changed()

    def _changed(self) -> None:
        """Wake every waiter and re-derive the point-in-time gauges
        (monitor held)."""
        self._cond.notify_all()
        if self.metrics is not None:
            self.metrics.update_queue_gauges(
                depth_by_class=self.queue.depth_by_class(),
                running=self._running,
                committed_bytes=self.admission.committed_bytes)

    def _finished(self, job: Job, *, was_running: bool) -> None:
        """Telemetry and the log line of a job that just finished."""
        if self.metrics is not None:
            self.metrics.job_finished(job, was_running=was_running)
        log_event(_LOG, "job_finished",
                  level=(logging.INFO if job.status == "done"
                         else logging.WARNING),
                  job_id=job.id, status=job.status, priority=job.priority,
                  error=job.error, queue_ms=round(job.queue_ms, 3),
                  run_ms=round(job.run_ms, 3))

    # -- queries ------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._cond:
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
        with self._cond:
            if job.terminal:
                return job
            job.cancel_event.set()
            if job.status == "running":
                return job  # the engine aborts it; its worker finishes it
            self._finish(job, "cancelled", "cancelled while queued")
        self._finished(job, was_running=False)
        return job

    def stats(self) -> dict[str, Any]:
        with self._cond:
            out = {
                "state": self.state.value,
                "queued": self.queue.depth(),
                "running": self._running,
                "counts": dict(self._counts),
                "admission": self.admission.stats(),
                "pools": dict(self._pools),
            }
        return {
            **out,
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
        with self._cond:
            if self.state is ServiceState.ACCEPTING:
                self.state = ServiceState.DRAINING
                log_event(_LOG, "draining",
                          queued=self.queue.depth(), running=self._running)
            if not self._cond.wait_for(
                    lambda: not self.queue.depth() and not self._running,
                    timeout):
                return False
            stopped = self.state is not ServiceState.STOPPED
            self.state = ServiceState.STOPPED
            self._cond.notify_all()
            counts = dict(self._counts)
        for w in self._workers:
            w.join()
        if stopped:
            log_event(_LOG, "stopped", counts=counts)
        return True

    close = drain  # the engine's pool stays warm for the process

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
