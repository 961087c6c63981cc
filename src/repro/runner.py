"""One-call experiment runner shared by tests, benches, examples and CLI.

Wraps the SPMD engine: generates a workload's shards, runs the chosen
algorithm on ``p`` simulated ranks, validates the output, and reports
the quantities the paper's tables and figures are made of (virtual
time, phase breakdown, per-rank loads, RDFA, throughput, OOM status).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .baselines import (
    HykParams,
    bitonic_sort_batch_world,
    hyksort_secondary_key_world,
    hyksort_world,
    psrs_sort_world,
    radix_sort_world,
)
from .core import SdsParams, sds_sort_world
from .machine import EDISON, MachineSpec
from .metrics import check_sorted, rdfa, tb_per_min
from .mpi import (
    ENGINE_BACKENDS,
    LANE,
    ColumnarWorld,
    Comm,
    FlatAbort,
    run_spmd,
)
from .mpi.errors import RunCancelled
from .records import RecordBatch, ShardRows, rank_batches, tag_provenance
from .workloads import Workload

#: Ranks whose shards a flat run draws between two cancel polls.
_SHARD_BLOCK = 256

#: Edison headroom: 64 GB / 24 ranks = 2.67 GB per rank against the
#: paper's 400 MB input shard — a 6.7x memory-capacity-to-input ratio.
#: Functional runs scale the capacity with the same ratio so OOM
#: behaviour matches the testbed's.
MEM_FACTOR = 6.7


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered distributed-sort algorithm.

    ``world_ctor`` is the algorithm's world-form entry point
    ``(world, comms, batches, ...)`` — the one implementation every
    backend drives: the flat engine over a columnar view of the whole
    world, a rank thread over the lane view of itself.  When
    ``params_type`` is set, user options (merged over ``defaults``) are
    packed into one ``params_type(**opts)`` value and passed as the
    fourth positional argument; otherwise they are passed as keyword
    arguments.  ``stable`` declares that equal-key output order is
    guaranteed stable — the runner validates accordingly and benches /
    the CLI no longer need a separate stable-algorithm set.
    """

    name: str
    world_ctor: Callable[..., Any]
    params_type: type | None = None
    defaults: dict[str, Any] = field(default_factory=dict)
    stable: bool = False
    summary: str = ""

    def invoke(self, comm: Comm, batch: RecordBatch,
               opts: dict[str, Any] | None = None) -> Any:
        """Run the algorithm collectively on this rank (the lane view)."""
        return self.invoke_world(LANE, [comm], [batch], opts)[0]

    def invoke_world(self, world: Any, comms: list[Comm], batches: list,
                     opts: dict[str, Any] | None = None) -> list:
        """Run the algorithm's world form over every rank of ``world``."""
        merged = {**self.defaults, **(opts or {})}
        if self.params_type is not None:
            return self.world_ctor(world, comms, batches,
                                   self.params_type(**merged))
        return self.world_ctor(world, comms, batches, **merged)


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "sds", sds_sort_world, params_type=SdsParams,
            summary="SDS-Sort (the paper): skew-aware adaptive samplesort"),
        AlgorithmSpec(
            "sds-stable", sds_sort_world, params_type=SdsParams,
            defaults={"stable": True}, stable=True,
            summary="SDS-Sort with the stable partition/merge pipeline"),
        AlgorithmSpec(
            "psrs", psrs_sort_world,
            summary="classic PSRS: regular sampling, no skew handling"),
        AlgorithmSpec(
            "hyksort", hyksort_world, params_type=HykParams,
            summary="HykSort: k-way hypercube samplesort (comparator)"),
        AlgorithmSpec(
            "hyksort-sk", hyksort_secondary_key_world, params_type=HykParams,
            stable=True,
            summary="HykSort on (key, provenance): stability workaround"),
        AlgorithmSpec(
            "bitonic", bitonic_sort_batch_world,
            summary="full bitonic sort network (small-p baseline)"),
        AlgorithmSpec(
            "radix", radix_sort_world,
            summary="distributed LSD radix sort (integer keys)"),
    )
}


@dataclass
class RunResult:
    """Everything a bench needs from one distributed-sort run."""

    algorithm: str
    workload: str
    p: int
    n_per_rank: int
    record_bytes: int
    ok: bool
    oom: bool
    elapsed: float                       # simulated seconds (makespan)
    loads: list[int] = field(default_factory=list)
    phase_times: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    outputs: list[RecordBatch] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def rdfa(self) -> float:
        """max/avg load; infinity on failed runs (the paper's convention)."""
        if not self.ok:
            return math.inf
        return rdfa(self.loads)

    @property
    def total_bytes(self) -> int:
        return self.n_per_rank * self.p * self.record_bytes

    @property
    def throughput_tb_min(self) -> float:
        """Simulated sorting throughput in TB/min (0 for failed runs)."""
        if not self.ok or self.elapsed <= 0:
            return 0.0
        return tb_per_min(self.total_bytes, self.elapsed)


#: Counter prefixes aggregated into ``RunResult.extras["faults"]``.
_FAULT_COUNTER_PREFIXES = ("faults.", "retry.")


def fault_totals(counters: Any) -> dict[str, float]:
    """A world's fault counters (:class:`~repro.mpi.comm.Columns`) summed
    over the ranks that booked them, one addition at a time in rank
    order: the sort document's ``faults``."""
    totals: dict[str, float] = {}
    for name in sorted(counters):
        if name.startswith(_FAULT_COUNTER_PREFIXES):
            for v in counters.booked(name):
                totals[name] = totals.get(name, 0.0) + v
    return totals


#: Every backend name :func:`run_sort` accepts: the functional engines
#: and the ``auto`` resolver.
BACKENDS = (*ENGINE_BACKENDS, "auto")


def resolve_backend(backend: str, algorithm: str) -> tuple[str, str]:
    """Resolve ``backend`` (possibly ``"auto"``) to a concrete engine.

    Returns ``(resolved, reason)``.  ``"auto"`` picks the columnar flat
    engine for every algorithm — each is registered in world form, and
    the flat engine drives the same implementation the rank threads
    run.  Unknown names raise a ``ValueError`` listing the choices.
    """
    if backend == "auto":
        return "flat", ("world-form implementation drives the whole-world "
                        "batched path: columnar flat engine")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; options: "
            + ", ".join(repr(b) for b in BACKENDS))
    return backend, "explicitly requested"


def eligible_backends(algorithm: str) -> list[str]:
    """Concrete engines that can run ``algorithm``: all of them."""
    return list(ENGINE_BACKENDS)


@dataclass(frozen=True)
class _SortProgram:
    """The rank program of :func:`run_sort`, with both engine entry points.

    Calling it with one ``Comm`` is the thread backend's per-rank
    contract; :meth:`flat_run` over the world's handles is the flat
    backend's.  The algorithm is resolved from :data:`ALGORITHMS` by
    name at call time.
    """

    algorithm: str
    workload: Workload
    n_per_rank: int
    seed: int
    opts: dict[str, Any]

    def __call__(self, comm: Comm):
        shard = self.workload.shard(self.n_per_rank, comm.size, comm.rank,
                                    self.seed)
        shard = tag_provenance(shard, comm.rank)
        out = ALGORITHMS[self.algorithm].invoke(comm, shard, self.opts)
        return shard, out

    def _draw(self, world: ColumnarWorld, comms: list[Comm],
              rows: ShardRows) -> None:
        """Shards of one block of ranks, into ``rows``.  A generator
        that raises fails its own rank (no row) — as its thread would —
        and the world aborts at its first checked collective."""
        n, p, seed = self.n_per_rank, comms[0].size, self.seed
        mark = len(rows.shapes)
        try:
            return self.workload.draw(n, p, seed, [c.rank for c in comms],
                                      rows)
        except Exception:
            pass  # a rank raised: the ranks before it are drawn
        for c in comms[len(rows.shapes) - mark:]:
            try:
                rows.add(self.workload.shard(n, p, c.rank, seed))
            except Exception as exc:
                world.fail(c, exc)
                rows.add(None)

    def flat_run(self, comms: list[Comm]):
        """Whole-world entry point for ``backend="flat"``: the world
        drawn as one tagged table per shard shape (a rank's input names
        its table, :func:`~repro.records.table_rows`), sorted by the
        algorithm's world form over a columnar view of the world — the
        code the rank threads execute, minus the threads."""
        world = ColumnarWorld(comms[0]._world)
        p = len(comms)
        rows = ShardRows(p)
        try:
            for lo in range(0, p, _SHARD_BLOCK):
                world.poll_cancel()  # a cancel lands between blocks
                self._draw(world, comms[lo:lo + _SHARD_BLOCK], rows)
        except FlatAbort:
            return [None] * p, world.failures
        inputs = rows.entries(range(p))
        outcomes = ALGORITHMS[self.algorithm].invoke_world(
            world, comms, inputs, self.opts)
        results = [None if o is None else (inputs[i], o)
                   for i, o in enumerate(outcomes)]
        return results, world.failures


def _loads(outcomes: list) -> list[int]:
    """Every rank's output record count, a table's read off its offsets."""
    rows = {id(t): np.diff(t.offs).tolist() for t in dict.fromkeys(
        o.table for o in outcomes) if type(t) is not RecordBatch}
    return [rows[id(o.table)][o.row] if id(o.table) in rows
            else len(o.table) for o in outcomes]


def run_sort(algorithm: str, workload: Workload, *, n_per_rank: int, p: int,
             machine: MachineSpec = EDISON, seed: int = 0,
             mem_factor: float | None = MEM_FACTOR,
             keep_outputs: bool = False,
             algo_opts: dict[str, Any] | None = None,
             faults: Any = None, fault_seed: int = 0,
             trace: bool = False,
             backend: str = "auto", cancel: Any = None,
             metrics: Any = None) -> RunResult:
    """Run one distributed sort end to end on the simulated machine.

    Parameters
    ----------
    algorithm: one of :data:`ALGORITHMS`.
    workload: dataset family; each rank generates its own shard.
    n_per_rank, p: weak-scaling shape (records per rank, ranks).
    mem_factor: per-rank memory capacity as a multiple of the input
        shard's bytes (default: Edison's 6.7x).  ``None`` disables OOM.
    keep_outputs: retain per-rank output batches on the result.
    faults: optional :class:`~repro.faults.spec.FaultSpec`; compiled
        against ``(p, fault_seed)`` into the deterministic plan the
        engine injects.  ``None`` (or an empty spec) runs fault-free.
    fault_seed: seed for the fault schedule, independent of the data
        ``seed`` so the same dataset can face different fault draws.
    trace: collect a virtual-time trace of the run; the resulting
        :class:`~repro.obs.report.TraceReport` lands in
        ``extras["trace"]``.  Tracing is purely observational — the
        simulated clocks are identical with it on or off.
    backend: one of :data:`BACKENDS`.  ``"auto"`` (default) resolves
        to ``"flat"``: whole-world columnar phases with zero rank
        threads (every registered algorithm has the world-form entry
        point it drives).  ``"thread"`` hosts the ranks as threads of
        this process — the true-concurrency oracle, bit-for-bit
        identical results, several times slower on small worlds.  The
        resolution and the eligibility list are recorded in
        ``extras["backend"]``.
    cancel: optional :class:`threading.Event`; set before the world
        starts, nothing runs and the result is a ``RunCancelled``
        failure on every functional backend; firing it mid-run aborts
        the world the same way (rank threads are woken, a flat world
        polls the event at every collective and phase entry).
    metrics: optional telemetry sink (duck-typed — any object with
        ``record_run`` / ``record_world``, e.g.
        :class:`repro.service.metrics.ServiceMetrics`).  Records the
        run's algorithm/backend/outcome (``ok``, ``oom``,
        ``cancelled``, ``failed``) and its abort cause.  ``None`` — the
        default — keeps the hooks single ``is None`` checks, so direct
        runs are bit-for-bit unaffected (the tracer's contract).
    """
    requested = backend
    backend, why = resolve_backend(backend, algorithm)
    backend_info = {"requested": requested, "resolved": backend,
                    "reason": why,
                    "eligible": eligible_backends(algorithm)}
    try:
        spec = ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(f"unknown algorithm {algorithm!r}; "
                       f"options: {sorted(ALGORITHMS)}") from None
    opts = dict(algo_opts or {})
    stable = spec.stable
    fplan = (faults.compile(p, fault_seed)
             if faults is not None and not faults.empty else None)

    probe = workload.shard(max(1, min(n_per_rank, 64)), p, 0, seed)
    record_bytes = probe.record_bytes + 12  # + provenance columns
    capacity = (None if mem_factor is None
                else int(mem_factor * n_per_rank * record_bytes))

    prog = _SortProgram(algorithm, workload, n_per_rank, seed, opts)

    tracer = None
    if trace:
        from .obs import Tracer
        tracer = Tracer(p)
        tracer.meta.update({
            "algorithm": algorithm, "workload": workload.name,
            "p": p, "n_per_rank": n_per_rank, "seed": seed,
            "machine": machine.name,
            "faults": faults.as_dict() if fplan is not None else None,
        })

    res = run_spmd(prog, p, machine=machine, mem_capacity=capacity,
                   check=False, faults=fplan, tracer=tracer,
                   backend=backend, cancel=cancel, metrics=metrics)

    if res.failure is not None:
        cause = res.failure.cause
        if metrics is not None:
            metrics.record_run(
                algorithm=algorithm, backend=backend,
                outcome=("cancelled" if isinstance(cause, RunCancelled)
                         else "oom" if isinstance(cause, MemoryError)
                         else "failed"),
                cause=cause)
        return RunResult(
            algorithm=algorithm, workload=workload.name, p=p,
            n_per_rank=n_per_rank, record_bytes=record_bytes,
            ok=False, oom=isinstance(cause, MemoryError), elapsed=0.0,
            failure=f"rank {res.failure.rank}: {cause!r}",
            extras={"backend": backend_info},
        )

    if metrics is not None:
        metrics.record_run(algorithm=algorithm, backend=backend,
                           outcome="ok")

    inputs, outcomes = map(list, zip(*res.results))
    crashed_ranks = [r for r, o in enumerate(outcomes)
                     if "crashed" in o.info]
    # validation; degraded completion: a crashed rank's input left the
    # world with it — survivors must deliver *their* data sorted
    if crashed_ranks:
        crashed = set(crashed_ranks)
        inputs = [inp for r, inp in enumerate(rank_batches(inputs))
                  if r not in crashed]
    check_sorted(inputs, [o.table for o in outcomes], stable=stable)

    # the decision trace lives on active ranks (a crashed rank's trace
    # stops at the crash and lacks the recovery record)
    traced = next((o for o in outcomes if o.active), outcomes[0])

    counters = res.world.counters
    extras: dict[str, Any] = {
        "engine": dict(res.extras),
        "backend": backend_info,
        "mem_peaks": res.mem_peaks,
        "decisions": traced.info.get("decisions"),
        "p_active": len([o for o in outcomes if o.active]),
        "bytes_sent": sum(counters.booked("bytes.sent")),
        "messages": sum(counters.booked("p2p.send")),
    }
    if fplan is not None:
        extras["faults"] = fault_totals(counters)
        extras["crashed_ranks"] = crashed_ranks
        extras["fault_plan"] = fplan.describe()
    if tracer is not None:
        from .obs import TraceReport
        extras["trace"] = TraceReport.from_run(
            tracer, clocks=res.clocks, engine_counters=counters)

    return RunResult(
        algorithm=algorithm, workload=workload.name, p=p,
        n_per_rank=n_per_rank, record_bytes=record_bytes,
        ok=True, oom=False, elapsed=res.elapsed,
        loads=_loads(outcomes),
        phase_times=res.phase_breakdown(),
        outputs=[o.batch for o in outcomes] if keep_outputs else None,
        extras=extras,
    )

