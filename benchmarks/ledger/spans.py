"""Host-wall spans recorded from outside the program.

Nothing in ``src/`` is instrumented (that is ROADMAP item 1's
``obs/hostprof.py``).  The ledger gets its layer boundaries by handing
the engine benchmark-owned subclasses through its public seams:

* ``run_spmd(prog, backend="flat")`` accepts any program exposing
  ``flat_run(comms)`` — :class:`TracedProgram` times ``Workload.shard``,
  ``tag_provenance`` and ``AlgorithmSpec.invoke_world`` there;
* ``invoke_world`` accepts any ``World`` — :class:`TimedColumnarWorld`
  and :class:`TimedLaneWorld` wrap the parent's ``phase()`` and
  ``collective()`` and time the ``compute`` / ``finish`` callbacks;
* :func:`traced_run_sort` repeats ``run_sort``'s own steps (prepare,
  ``run_spmd``, ``check_sorted``, result assembly) each under a span.

A traced job's sort document goes through the same sim-digest check as
an untraced one, so the replica cannot drift from ``run_sort`` silently.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any

from repro.machine import EDISON
from repro.metrics import check_sorted
from repro.mpi import ColumnarWorld, LaneWorld, run_spmd
from repro.records import tag_provenance
from repro.runner import (
    ALGORITHMS,
    MEM_FACTOR,
    RunResult,
    eligible_backends,
    resolve_backend,
    run_sort,
)
from repro.workloads import by_name

#: Root span of every traced job; its self time is what no layer claims.
ROOT = "job"

#: Lane accumulator slot for a rank thread's whole program wall.
PROGRAM_NS = "program"


class SpanLog:
    """Spans kept in memory: ``[name, start_ns, end_ns, job, parent]``.

    ``parent`` is the index of the enclosing span (-1 for a root); all
    spans of one job carry its id.  One log serves one thread — the
    thread backend's rank threads report through per-rank accumulators
    on :class:`TimedLaneWorld` instead.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0, 0, self.job, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an already-timed leaf under the currently open span."""
        self.spans.append([name, start_ns, end_ns, self.job,
                           self._open[-1] if self._open else -1])

    def per_job(self) -> dict[int, dict[str, list[float]]]:
        """``{job: {name: [self_ms, inclusive_ms, count]}}``.

        A span's self time is its duration minus its children's.
        """
        child_ns = [0] * len(self.spans)
        for _, t0, t1, _, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[int, dict[str, list[float]]] = {}
        for i, (name, t0, t1, job, _) in enumerate(self.spans):
            row = out.setdefault(job, {}).setdefault(name, [0.0, 0.0, 0])
            row[0] += (t1 - t0 - child_ns[i]) / 1e6
            row[1] += (t1 - t0) / 1e6
            row[2] += 1
        return out


class TimedColumnarWorld(ColumnarWorld):
    """``ColumnarWorld`` whose phases and collectives leave spans.

    Every columnar collective funnels through :meth:`collective`: after
    ``compute`` returns, the parent does nothing but replay the per-rank
    ``finish`` epilogues, so ``mpi.epilogue`` is timed as the interval
    from compute's return to the collective's — no per-rank wrapper, no
    per-rank overhead.
    """

    __slots__ = ("log",)

    def __init__(self, world: Any, log: SpanLog):
        super().__init__(world)
        self.log = log

    @contextmanager
    def phase(self, comms, name):
        with self.log.span("core.phase." + name):
            with super().phase(comms, name):
                yield

    def collective(self, comms, deposits, compute, finish, *, check=True):
        window = [0, 0]

        def timed_compute(stage):
            window[0] = perf_counter_ns()
            shared = compute(stage)
            window[1] = perf_counter_ns()
            return shared

        with self.log.span("mpi.collective"):
            out = super().collective(comms, deposits, timed_compute, finish,
                                     check=check)
            if window[1]:
                self.log.add("core.collective_compute", *window)
                self.log.add("mpi.epilogue", window[1], perf_counter_ns())
        return out


class TimedLaneWorld(LaneWorld):
    """``LaneWorld`` accumulating host ns per rank.

    One instance serves every rank thread of a run; slot ``acc[grank]``
    is written only by that rank's thread.  The designated-rank
    ``compute`` runs on the last arriver's thread, inside its own call
    to :meth:`collective`, so it lands in that rank's slot.
    """

    __slots__ = ("acc",)

    def __init__(self, p: int):
        self.acc: list[dict[str, int]] = [{} for _ in range(p)]

    def charge(self, comm, name: str, ns: int) -> None:
        slot = self.acc[comm.grank]
        slot[name] = slot.get(name, 0) + ns

    @contextmanager
    def phase(self, comms, name):
        t0 = perf_counter_ns()
        try:
            with super().phase(comms, name):
                yield
        finally:
            self.charge(comms[0], "core.phase_ms." + name,
                         perf_counter_ns() - t0)

    def collective(self, comms, deposits, compute, finish, *, check=True):
        comm = comms[0]

        def timed_compute(stage):
            t0 = perf_counter_ns()
            shared = compute(stage)
            self.charge(comm, "core.collective_compute_ms",
                         perf_counter_ns() - t0)
            return shared

        def timed_finish(i, c, shared):
            t0 = perf_counter_ns()
            out = finish(i, c, shared)
            self.charge(comm, "mpi.epilogue_ms", perf_counter_ns() - t0)
            return out

        return super().collective(comms, deposits, timed_compute,
                                  timed_finish, check=check)


class TracedProgram:
    """Rank program with both engine entry points, timed.

    Mirrors ``runner._SortProgram``: ``flat_run(comms)`` is the public
    whole-world contract of ``run_spmd(..., backend="flat")``; calling
    the instance with one ``Comm`` is the per-rank contract of the
    thread backend.
    """

    def __init__(self, spec: dict[str, Any], workload: Any, log: SpanLog):
        self.algo = ALGORITHMS[spec["algorithm"]]
        self.workload = workload
        self.n = spec["n_per_rank"]
        self.seed = spec["seed"]
        self.opts = dict(spec.get("algo_opts") or {})
        self.log = log
        self.lane = TimedLaneWorld(spec["p"])

    def flat_run(self, comms):
        log = self.log
        with log.span("runner.flat_run"):
            world = TimedColumnarWorld(comms[0]._world, log)
            shards = []
            for c in comms:
                t0 = perf_counter_ns()
                shard = self.workload.shard(self.n, c.size, c.rank, self.seed)
                t1 = perf_counter_ns()
                shard = tag_provenance(shard, c.rank)
                log.add("workloads.shard", t0, t1)
                log.add("records.tag", t1, perf_counter_ns())
                shards.append(shard)
            with log.span("core.driver"):
                outcomes = self.algo.invoke_world(world, comms, shards,
                                                  self.opts)
            results = [None if o is None else (shards[i], o)
                       for i, o in enumerate(outcomes)]
        return results, world.failures

    def __call__(self, comm):
        lane = self.lane
        t0 = perf_counter_ns()
        shard = self.workload.shard(self.n, comm.size, comm.rank, self.seed)
        t1 = perf_counter_ns()
        shard = tag_provenance(shard, comm.rank)
        t2 = perf_counter_ns()
        lane.charge(comm, "workloads.shard_ms", t1 - t0)
        lane.charge(comm, "records.tag_ms", t2 - t1)
        out = self.algo.invoke_world(lane, [comm], [shard], self.opts)[0]
        lane.charge(comm, PROGRAM_NS, perf_counter_ns() - t0)
        return shard, out


def direct_run_sort(spec: dict[str, Any], *, trace: bool = False) -> RunResult:
    """The untraced job: one public ``run_sort`` call from a spec dict."""
    return run_sort(
        spec["algorithm"], by_name(spec["workload"]),
        n_per_rank=spec["n_per_rank"], p=spec["p"], seed=spec["seed"],
        mem_factor=spec.get("mem_factor", MEM_FACTOR),
        algo_opts=dict(spec.get("algo_opts") or {}),
        backend=spec["backend"], trace=trace)


def traced_run_sort(spec: dict[str, Any], log: SpanLog
                    ) -> tuple[RunResult, dict[str, float]]:
    """``run_sort`` for one fault-free job, step by step under spans.

    Returns the result and the run's engine-side extras the per-layer
    metrics need (per-rank lane accumulators folded, sync waits, exact
    sim counts).
    """
    algorithm, p, n = spec["algorithm"], spec["p"], spec["n_per_rank"]
    seed = spec["seed"]
    with log.span("runner.prepare"):
        workload = by_name(spec["workload"])
        backend, why = resolve_backend(spec["backend"], algorithm)
        backend_info = {"requested": spec["backend"], "resolved": backend,
                        "reason": why,
                        "eligible": eligible_backends(algorithm)}
        probe = workload.shard(max(1, min(n, 64)), p, 0, seed)
        record_bytes = probe.record_bytes + 12
        mem_factor = spec.get("mem_factor", MEM_FACTOR)
        capacity = (None if mem_factor is None
                    else int(mem_factor * n * record_bytes))
        prog = TracedProgram(spec, workload, log)
    with log.span("mpi.run_spmd"):
        res = run_spmd(prog, p, machine=EDISON, mem_capacity=capacity,
                       check=False, backend=backend)
    if res.failure is not None:
        raise res.failure
    inputs = [r[0] for r in res.results]
    outcomes = [r[1] for r in res.results]
    outputs = [o.batch for o in outcomes]
    with log.span("metrics.check_sorted"):
        check_sorted(inputs, outputs, stable=ALGORITHMS[algorithm].stable)
    with log.span("runner.assemble"):
        traced = next((o for o in outcomes if o.active), outcomes[0])
        result = RunResult(
            algorithm=algorithm, workload=workload.name, p=p, n_per_rank=n,
            record_bytes=record_bytes, ok=True, oom=False,
            elapsed=res.elapsed, loads=[len(b) for b in outputs],
            phase_times=res.phase_breakdown(),
            extras={
                "engine": dict(res.extras), "backend": backend_info,
                "mem_peaks": res.mem_peaks,
                "decisions": traced.info.get("decisions"),
                "p_active": sum(1 for o in outcomes if o.active),
                "bytes_sent": sum(c.get("bytes.sent", 0)
                                  for c in res.counters),
                "messages": sum(c.get("p2p.send", 0) for c in res.counters),
            })
    return result, _engine_extras(res, prog.lane, result)


def _engine_extras(res: Any, lane: TimedLaneWorld, result: RunResult
                   ) -> dict[str, float]:
    """Per-job layer metrics that come from the run itself, not spans."""
    p = res.p
    extras: dict[str, float] = {
        # rank-collective participations: one finish epilogue each
        "mpi.collective_calls": sum(
            v for c in res.counters for k, v in c.items()
            if k.startswith("coll.") and k != "coll.sync_wait"),
        "mpi.sync_wait_ms": 1e3 * sum(
            c.get("coll.sync_wait", 0.0) + c.get("p2p.wait", 0.0)
            for c in res.counters) / p,
        "sim.elapsed_s": result.elapsed,
        "sim.bytes_sent": result.extras["bytes_sent"],
        "sim.messages": result.extras["messages"],
        "sim.rdfa": result.rdfa,
        "sim.max_load_over_avg": max(result.loads) / (
            sum(result.loads) / result.extras["p_active"]),
        "sim.mem_peak_max_bytes": max(res.mem_peaks),
    }
    # thread backend: fold the rank threads' accumulators.  Brackets are
    # concurrent, so a phase is reported as the mean rank's wall (what
    # the phase costs) and the slowest rank's (what the job waits for);
    # per-call layers are summed over ranks and include GIL waits.
    for name in {k for slot in lane.acc for k in slot}:
        per_rank = [slot.get(name, 0) / 1e6 for slot in lane.acc]
        if name == PROGRAM_NS:
            extras["lane.program_max_ms"] = max(per_rank)
        elif name.startswith("core.phase_ms."):
            phase = name[len("core.phase_ms."):]
            extras[name] = sum(per_rank) / p
            extras["mpi.lane_phase_max_ms." + phase] = max(per_rank)
        else:
            extras[name] = sum(per_rank)
    if any(lane.acc):
        extras["workloads.shard_calls"] = p
    return extras


def job_layers(rows: dict[str, list[float]], extras: dict[str, float]
               ) -> dict[str, float]:
    """One traced job's layer metrics: its span rows (``SpanLog.per_job``)
    overlaid with the run's own extras (:func:`traced_run_sort`)."""
    def incl(name: str) -> float:
        return rows.get(name, (0.0, 0.0, 0))[1]

    root_self, root_ms, _ = rows[ROOT]
    layers = {
        "workloads.shard_ms": incl("workloads.shard"),
        "workloads.shard_calls": rows.get("workloads.shard", (0, 0, 0))[2],
        "records.tag_ms": incl("records.tag"),
        # run_spmd wall minus the program's: SimWorld, handles, result
        "mpi.world_setup_ms": rows["mpi.run_spmd"][0],
        "mpi.epilogue_ms": incl("mpi.epilogue"),
        "core.collective_compute_ms": incl("core.collective_compute"),
        "metrics.check_sorted_ms": incl("metrics.check_sorted"),
        "service.sort_doc_us": 1e3 * incl("service.sort_doc"),
        "ledger.span_coverage": 1.0 - root_self / root_ms,
    }
    for name, row in rows.items():
        if name.startswith("core.phase."):
            layers["core.phase_ms." + name[len("core.phase."):]] = row[1]
    layers.update(extras)
    slowest = layers.pop("lane.program_max_ms", None)
    if slowest is not None:  # rank threads ran inside the run_spmd span
        layers["mpi.world_setup_ms"] = rows["mpi.run_spmd"][1] - slowest
    return layers
