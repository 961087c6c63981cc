"""Admission control: bounded queue depth + a memory-budget gate.

The engine enforces per-rank memory (`repro.machine.memory`) *inside* a
run — a single over-committed rank OOMs deterministically.  A service
hosting many concurrent worlds has a second failure mode the paper
never had: the *sum* of well-behaved jobs exhausting the host.  The
admission gate closes that hole with the same arithmetic the per-run
model uses (`repro.simfast.scaling._oom`): a job's modelled peak is

    peak_per_rank = shard_bytes + max_load * record_bytes

with ``max_load`` from the count-space load model when the workload has
one (`analytic_model_for` + `countspace_loads`) and a conservative
2x-skew assumption otherwise, clamped to the engine's enforced
capacity ``mem_factor * shard_bytes + shard_bytes`` (past that the run
OOMs before using more); where SDS may merge nodes, a node leader's
peak is modelled too.  A job is admitted only while

    committed_bytes + estimate <= budget_bytes

where ``committed_bytes`` sums the estimates of every queued + running
job; otherwise the submitter gets a typed backpressure decision
(``over-budget``) instead of the host OOM-ing mid-run.  Decisions are
deterministic in the submission order — the same stream of specs
always draws the same admit/reject sequence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from ..core.plan import DecisionPolicy
from ..machine import get_machine
from ..runner import ALGORITHMS
from ..simfast import countspace_loads
from ..simfast.scaling import analytic_model_for
from .spec import JobSpec

#: Typed decision codes (``AdmissionDecision.code``).
ADMISSION_CODES = ("admitted", "queue-full", "over-budget", "draining",
                   "invalid")

#: Default service memory budget: 4 GiB of modelled engine peak.
DEFAULT_MEM_BUDGET = 4 << 30

#: Default bound on jobs waiting in the queue (running jobs excluded).
DEFAULT_QUEUE_DEPTH = 64

#: Skew assumption for workloads without a count-space model: the
#: heaviest rank holds at most 2x the average (SDS-Sort's partition
#: bounds are far tighter; this errs on the safe side for admission).
FALLBACK_SKEW = 2.0


def estimate_job_bytes(spec: JobSpec) -> int:
    """Modelled peak engine memory of one job, summed over ranks.

    Uses the exact probe :func:`repro.runner.run_sort` uses for the
    record size (shard probe + 12 provenance bytes), the count-space
    load model for the heaviest rank, and the engine's enforced
    capacity as a ceiling.  Where SDS may merge nodes, a leader holding
    its node's shards is modelled too, and the larger model counts.
    """
    workload = spec.build_workload()
    probe = workload.shard(max(1, min(spec.n_per_rank, 64)), spec.p, 0,
                           spec.seed)
    record_bytes = probe.record_bytes + 12
    shard = spec.n_per_rank * record_bytes
    model = analytic_model_for(workload)
    # hyksort: histogram splitters, the OOM-prone one
    method = ("hyksort" if spec.algorithm.startswith("hyksort")
              else "stable" if spec.algorithm == "sds-stable" else "fast")

    def peak(ranks: int, p: int) -> int:
        """The heaviest of ``p`` ranks each holding ``ranks`` shards (and
        receiving its load), capped by those ranks' pooled capacity."""
        n = ranks * spec.n_per_rank
        if model is not None and p > 1 and n > 0:
            max_load = int(countspace_loads(model, n, p, method=method,
                                            seed=spec.seed).max())
        else:
            max_load = int(FALLBACK_SKEW * n)
        held = ranks * shard + max_load * record_bytes
        if spec.mem_factor is None:
            return held
        return min(held, shard + ranks * int(spec.mem_factor * shard))

    estimate = spec.p * peak(1, spec.p)
    if spec.algorithm not in ("sds", "sds-stable"):
        return estimate
    algo, rpn = ALGORITHMS[spec.algorithm], get_machine(spec.machine).cores_per_node
    leaders, last = -(-spec.p // rpn), spec.p % rpn or rpn
    policy = DecisionPolicy(algo.params_type(**{**algo.defaults, **spec.algo_opts}))
    cap = (None if spec.mem_factor is None
           else int(spec.mem_factor * spec.n_per_rank * record_bytes))
    # merging needs every rank's vote: each node size's, at the run's capacity
    if all(policy.node_merge(
            node_bytes=size * shard, ranks_per_node=size, comm_size=spec.p,
            nodes=leaders, capacity=cap).choice == "merge"
           for size in {last, rpn if spec.p > last else last}):
        merged = ((spec.p - leaders) * shard
                  + (leaders - 1) * peak(rpn, leaders) + peak(last, leaders))
        estimate = max(estimate, merged)
    return estimate


@dataclass(frozen=True)
class AdmissionDecision:
    """The typed outcome of one admission check (wire-safe).

    ``admitted=False`` decisions are the backpressure response: ``code``
    says which gate refused (see :data:`ADMISSION_CODES`), ``reason``
    is the human-readable sentence, and the byte fields carry the
    arithmetic so a client can decide whether to shrink the job, wait,
    or route elsewhere.  ``headroom_bytes`` is the uncommitted budget
    at decision time (``budget - committed``; ``None`` without a
    budget) — together with ``estimated_bytes`` it reconstructs the
    over-budget inequality exactly.  The decision is frozen onto the
    job, so ``status``/``result`` responses replay the full arithmetic
    long after submit — post-hoc debugging works from the daemon
    protocol alone.
    """

    admitted: bool
    code: str
    reason: str
    estimated_bytes: int
    committed_bytes: int
    budget_bytes: int | None
    queue_depth: int
    max_queue_depth: int
    headroom_bytes: int | None = None

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class AdmissionController:
    """The two gates, and the memory committed across jobs.

    :meth:`admit` checks both gates and, on success, commits the job's
    estimate; :meth:`release` returns it when the job leaves the system
    (done, failed, cancelled, or timed out).  No lock of its own: the
    service calls it under its monitor, which also supplies the queue
    depth, so depth and commitment cannot race the decision.
    """

    def __init__(self, *, max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 mem_budget_bytes: int | None = DEFAULT_MEM_BUDGET):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if mem_budget_bytes is not None and mem_budget_bytes < 1:
            raise ValueError("mem_budget_bytes must be None or >= 1")
        self.max_queue_depth = max_queue_depth
        self.mem_budget_bytes = mem_budget_bytes
        self.committed_bytes = 0
        self._in_flight = 0

    def decision(self, admitted: bool, code: str, reason: str,
                 estimate: int, queue_depth: int) -> AdmissionDecision:
        """A decision carrying the ledger as it stands."""
        return AdmissionDecision(
            admitted=admitted, code=code, reason=reason,
            estimated_bytes=estimate, committed_bytes=self.committed_bytes,
            budget_bytes=self.mem_budget_bytes, queue_depth=queue_depth,
            max_queue_depth=self.max_queue_depth,
            headroom_bytes=(None if self.mem_budget_bytes is None
                            else self.mem_budget_bytes - self.committed_bytes))

    def admit(self, spec: JobSpec, *, queue_depth: int,
              draining: bool = False) -> AdmissionDecision:
        """Decide one submission; commits the estimate when admitted."""
        return self.decide(estimate_job_bytes(spec), queue_depth=queue_depth,
                           draining=draining)

    def decide(self, estimate: int, *, queue_depth: int,
               draining: bool = False) -> AdmissionDecision:
        """:meth:`admit` for a job whose estimate is already known."""
        if draining:
            return self.decision(
                False, "draining",
                "service is draining and no longer admits jobs",
                estimate, queue_depth)
        if queue_depth >= self.max_queue_depth:
            return self.decision(
                False, "queue-full",
                f"queue depth {queue_depth} is at the bound "
                f"{self.max_queue_depth}; retry after jobs drain",
                estimate, queue_depth)
        budget = self.mem_budget_bytes
        if budget is not None and self.committed_bytes + estimate > budget:
            headroom = budget - self.committed_bytes
            return self.decision(
                False, "over-budget",
                f"job needs ~{estimate:,} B of modelled engine peak "
                f"but only {headroom:,} B of the {budget:,} B budget "
                f"is uncommitted; shrink the job or retry after "
                f"{self._in_flight} in-flight job(s) release",
                estimate, queue_depth)
        self.committed_bytes += estimate
        self._in_flight += 1
        return self.decision(
            True, "admitted",
            f"committed ~{estimate:,} B of {budget:,} B budget"
            if budget is not None else
            f"committed ~{estimate:,} B (no budget configured)",
            estimate, queue_depth)

    def release(self, decision: AdmissionDecision) -> None:
        """Return an admitted job's committed estimate to the budget."""
        if not decision.admitted:
            return
        self.committed_bytes -= decision.estimated_bytes
        self._in_flight -= 1
        if self.committed_bytes < 0 or self._in_flight < 0:
            raise RuntimeError("admission release without matching admit")

    def stats(self) -> dict[str, Any]:
        return {
            "committed_bytes": self.committed_bytes,
            "in_flight": self._in_flight,
            "budget_bytes": self.mem_budget_bytes,
            "max_queue_depth": self.max_queue_depth,
        }
