"""The service's job ledger: :class:`Job` records and :class:`JobQueue`.

The queue drains strictly by priority class (`repro.service.spec.
PRIORITIES`), FIFO within a class — a deterministic total order over
any submission sequence, which is what makes the service's scheduling
reproducible enough to golden-test.  Cancellation is lazy: a cancelled
job stays in the heap but is skipped at pop time, so cancel is O(1)
and never perturbs sibling ordering.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..runner import RunResult
from .admission import AdmissionDecision
from .jsondoc import sort_doc
from .spec import PRIORITIES, JobSpec

#: Every state a job can be in.  ``rejected`` jobs never enter the
#: queue; ``timeout`` is a cancellation the job's deadline issued.
JOB_STATES = ("queued", "running", "done", "failed", "rejected",
              "cancelled", "timeout")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "rejected", "cancelled", "timeout")


class CancelToken(threading.Event):
    """A job's cancel event that also reads as set once its monotonic
    ``deadline`` has passed.  The engine polls ``is_set()`` before a
    world starts, in the thread backend's cancel watcher and at every
    flat collective, so the deadline is checked there and no timer
    thread waits for it.  ``timed_out``: the deadline fired first."""

    def __init__(self, deadline: float):
        super().__init__()
        self.deadline = deadline
        self.timed_out = False

    def is_set(self) -> bool:
        if not super().is_set() and time.monotonic() >= self.deadline:
            self.timed_out = True
            super().set()
        return super().is_set()

    def set(self) -> None:
        self.is_set()  # a deadline already past fired first
        super().set()


@dataclass
class Job:
    """One submission's full lifecycle record.  ``result`` lives from the
    end of the run to :meth:`finish`, which keeps its ``sdssort.sort``
    document (``doc``) only: a traced result holds a whole ``TraceReport``."""

    id: str
    spec: JobSpec
    priority: str
    seq: int
    timeout_s: float | None = None
    status: str = "queued"
    admission: AdmissionDecision | None = None
    result: RunResult | None = None
    doc: dict[str, Any] | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    cancel_event: threading.Event = field(init=False, repr=False)
    done_event: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        # a job without a deadline polls a plain event: nothing extra
        self.cancel_event = (threading.Event() if self.timeout_s is None
                             else CancelToken(self.deadline))

    @property
    def timed_out(self) -> bool:
        """The deadline, not a cancel, set the job's cancel token."""
        return getattr(self.cancel_event, "timed_out", False)

    @property
    def deadline(self) -> float | None:
        """Monotonic deadline (timeout counts from submission)."""
        if self.timeout_s is None:
            return None
        return self.submitted_at + self.timeout_s

    @property
    def queue_ms(self) -> float:
        """Milliseconds spent waiting before the run started."""
        end = self.started_at if self.started_at is not None \
            else self.finished_at
        if end is None:
            return (time.monotonic() - self.submitted_at) * 1e3
        return (end - self.submitted_at) * 1e3

    @property
    def run_ms(self) -> float:
        """Milliseconds the run itself took (0 until it starts)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None \
            else time.monotonic()
        return (end - self.started_at) * 1e3

    @property
    def total_ms(self) -> float:
        end = self.finished_at if self.finished_at is not None \
            else time.monotonic()
        return (end - self.submitted_at) * 1e3

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def finish(self, status: str, *, error: str | None = None) -> None:
        """Move to a terminal state and wake every result() waiter."""
        self.status = status
        if error is not None:
            self.error = error
        self.finished_at = time.monotonic()
        if self.result is not None:
            self.doc = sort_doc(
                self.result, machine=self.spec.machine, seed=self.spec.seed,
                fault_seed=self.spec.fault_seed,
                queue_ms=round(self.queue_ms, 3),
                run_ms=round(self.run_ms, 3), explain=self.spec.explain)
            self.result = None
        self.done_event.set()


class JobQueue:
    """Bounded-by-admission priority queue of queued :class:`Job`\\ s.

    Depth bounding lives in the admission controller (the decision must
    be typed, not an exception from a full queue); this class only
    orders and hands out work.  ``pop`` skips jobs that were cancelled
    while queued, returning them via the ``reaped`` callback so the
    scheduler can finalise their bookkeeping.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Job]] = []
        self._cond = threading.Condition()

    def depth(self) -> int:
        """Jobs still waiting (cancelled-but-unreaped ones excluded)."""
        with self._cond:
            return sum(1 for _, _, j in self._heap if j.status == "queued")

    def depth_by_class(self) -> dict[str, int]:
        """Waiting jobs per priority class (telemetry gauges)."""
        out = {priority: 0 for priority in PRIORITIES}
        with self._cond:
            for _, _, j in self._heap:
                if j.status == "queued":
                    out[j.priority] += 1
        return out

    def push(self, job: Job) -> None:
        rank = PRIORITIES.index(job.priority)
        with self._cond:
            heapq.heappush(self._heap, (rank, job.seq, job))
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> Job | None:
        """Next runnable job in (priority, seq) order, or ``None``.

        Jobs cancelled while queued are skipped (their terminal state
        was already set by ``cancel``); returns ``None`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.status == "queued":
                        return job
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def wake_all(self) -> None:
        """Wake blocked poppers (service shutdown)."""
        with self._cond:
            self._cond.notify_all()


def envelope_timing(job: Job) -> dict[str, Any]:
    """The ``timing`` block of the ``sdssort.job/v1`` envelope."""
    return {
        "queue_ms": round(job.queue_ms, 3),
        "run_ms": round(job.run_ms, 3),
        "total_ms": round(job.total_ms, 3),
    }
