"""JSON documents shared by ``sdssort sort --json`` and the service.

One builder produces the ``sdssort.sort/v5`` result document for both
the direct CLI path and service job results, so the two are diffable
with the same tooling; it carries ``timing.queue_ms`` / ``timing.run_ms``
(wall milliseconds — zero for direct runs, measured for service jobs).
Service responses wrap the result in a ``sdssort.job/v1`` envelope
carrying the job id, lifecycle status, queue/run/total latency and the
admission decision.

:func:`comparable` strips the host-dependent fields (wall timings, the
pool-thread count a warm pool happens to have grown to) so golden
equivalence between a direct run and a service run compares exactly
the simulation-determined payload.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from ..runner import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .queue import Job
    from .scheduler import SortService

#: Result document schema (``sort --json`` and job envelopes).
SORT_SCHEMA = "sdssort.sort/v5"

#: Service response envelope schema.
JOB_SCHEMA = "sdssort.job/v1"

#: Telemetry scrape schema (the ``metrics`` op's JSON form).
METRICS_SCHEMA = "sdssort.metrics/v1"


def sort_doc(r: RunResult, *, machine: str, seed: int,
             fault_seed: int = 0, queue_ms: float = 0.0,
             run_ms: float = 0.0, explain: bool = False) -> dict[str, Any]:
    """The ``sdssort.sort/v5`` document for one :class:`RunResult`.

    ``queue_ms`` / ``run_ms`` are wall-clock milliseconds a service
    measured around the run; direct runs pass the zeros (the fields
    are always present, so service and direct results diff cleanly).
    """
    report = r.extras.get("trace")
    engine = dict(r.extras.get("engine") or {})
    resolved = r.extras.get("backend") or {}
    engine["resolved_backend"] = resolved
    engine["eligible_backends"] = resolved.get("eligible") or []
    doc = {
        "schema": SORT_SCHEMA,
        "algorithm": r.algorithm,
        "workload": r.workload,
        "machine": machine,
        "p": r.p,
        "n_per_rank": r.n_per_rank,
        "seed": seed,
        "fault_seed": fault_seed,
        "ok": r.ok,
        "oom": r.oom,
        "failure": r.failure,
        "elapsed": r.elapsed if r.ok else None,
        "throughput_tb_min": r.throughput_tb_min if r.ok else None,
        "rdfa": r.rdfa if r.ok else None,
        "phases": r.phase_times,
        "decisions": r.extras.get("decisions") or [],
        "faults": r.extras.get("faults"),
        "crashed_ranks": r.extras.get("crashed_ranks"),
        "trace": report.summary() if report is not None else None,
        "engine": engine,
        # wall latency split, zero for direct runs
        "timing": {"queue_ms": queue_ms, "run_ms": run_ms},
    }
    if explain:
        from ..core.plan import explain_lines
        doc["explain"] = explain_lines(doc["decisions"])
    return doc


def job_envelope(job: "Job", *, include_result: bool = True
                 ) -> dict[str, Any]:
    """The ``sdssort.job/v1`` envelope for one job's current state."""
    from .queue import envelope_timing

    doc = {
        "schema": JOB_SCHEMA,
        "job_id": job.id,
        "status": job.status,
        "priority": job.priority,
        "algorithm": job.spec.algorithm,
        "workload": job.spec.workload,
        "p": job.spec.p,
        "n_per_rank": job.spec.n_per_rank,
        "backend": job.spec.backend,
        "admission": (job.admission.as_dict()
                      if job.admission is not None else None),
        "timing": envelope_timing(job),
        "error": job.error,
        "result": None,
    }
    if include_result:
        doc["result"] = job.doc  # built once, when the job finished
    return doc


def metrics_doc(service: "SortService") -> dict[str, Any]:
    """The ``sdssort.metrics/v1`` telemetry document.

    Registry snapshot (counters / gauges / histograms, fully sorted)
    plus the cross-job cost rollup.  Everything but histogram ``sum``
    fields and the latency gauges' wall values is deterministic for a
    given job stream — see ``docs/observability.md`` for which fields
    the determinism contract covers.

    Raises ``ValueError`` when the service was built with
    ``telemetry=False`` (the daemon maps that to an error response).
    """
    m = service.metrics
    if m is None:
        raise ValueError("telemetry is disabled on this service "
                         "(built with telemetry=False / --no-telemetry)")
    snap = m.registry.snapshot()
    return {
        "schema": METRICS_SCHEMA,
        "state": service.state.value,
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
        "rollup": m.rollup.snapshot(),
    }


#: ``(path, key)`` pairs :func:`comparable` removes: wall-clock
#: latencies and warm-pool growth are host artifacts, not results.
_VOLATILE = (("timing",), ("engine", "pool_threads"))


def comparable(doc: dict[str, Any]) -> dict[str, Any]:
    """A deep copy of a sort/v5 doc minus host-dependent fields.

    Direct runs and service runs of the same :class:`JobSpec` are
    bit-identical under this projection — the contract the service
    determinism tests and the CI serve-smoke golden check assert.
    """
    out = copy.deepcopy(doc)
    for *path, key in _VOLATILE:
        node: Any = out
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
            if node is None:
                break
        if isinstance(node, dict):
            node.pop(key, None)
    return out
