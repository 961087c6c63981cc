"""Resilience reporting: what a chaos campaign did, deterministically.

One :class:`RunRecord` captures a single faulted run against its
fault-free baseline; a :class:`ChaosReport` aggregates a whole
``sdssort chaos`` matrix.  Every quantity in a report is *virtual*
(simulated seconds, fault counters, crash sets) — never host walltime —
so the canonical-JSON sha256 of a report is reproducible across hosts
and runs, which is exactly what the CI chaos job compares.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunRecord", "ChaosReport", "canonical_hash", "render_report"]


def canonical_hash(payload: Any) -> str:
    """sha256 over canonical (sorted-key, fixed-separator) JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RunRecord:
    """One faulted run of the chaos matrix, vs its fault-free baseline.

    ``recovered`` is ``None`` when the spec's crashes never fired (a
    driver without crash barriers) and nothing else did either: the
    cell was *not injected*, so there was nothing to recover from.
    """

    spec_name: str
    algorithm: str
    workload: str
    p: int
    seed: int
    recovered: bool | None          # run completed with validated output
    elapsed: float                  # simulated seconds under faults
    baseline: float                 # simulated seconds fault-free
    fault_counters: dict[str, float] = field(default_factory=dict)
    crashed_ranks: list[int] = field(default_factory=list)
    recovery_decisions: int = 0     # fault_recovery entries in the trace
    failure: str | None = None

    @property
    def overhead(self) -> float:
        """Virtual-walltime overhead ratio vs fault-free (0.0 = none)."""
        if not self.recovered or self.baseline <= 0:
            return float("inf") if not self.recovered else 0.0
        return self.elapsed / self.baseline - 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec_name,
            "algorithm": self.algorithm,
            "workload": self.workload,
            "p": self.p,
            "seed": self.seed,
            "recovered": self.recovered,
            "elapsed": self.elapsed,
            "baseline": self.baseline,
            "overhead": None if not self.recovered else self.overhead,
            "fault_counters": dict(sorted(self.fault_counters.items())),
            "crashed_ranks": list(self.crashed_ranks),
            "recovery_decisions": self.recovery_decisions,
            "failure": self.failure,
        }


@dataclass
class ChaosReport:
    """Aggregated outcome of one seeded chaos campaign."""

    p: int
    n_per_rank: int
    workload: str
    seeds: list[int]
    records: list[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord) -> RunRecord:
        self.records.append(record)
        return record

    # ------------------------------------------------------------ summary
    def by_spec(self) -> dict[str, list[RunRecord]]:
        groups: dict[str, list[RunRecord]] = {}
        for r in self.records:
            groups.setdefault(r.spec_name, []).append(r)
        return groups

    def summary(self) -> dict[str, Any]:
        per_spec: dict[str, Any] = {}
        for name, recs in self.by_spec().items():
            ok = [r for r in recs if r.recovered]
            overheads = [r.overhead for r in ok if r.baseline > 0]
            per_spec[name] = {
                "runs": len(recs),
                "recovered": len(ok),
                "recovery_rate": _rate(len(ok), recs),
                "faults_injected": sum(
                    v for r in recs for k, v in r.fault_counters.items()
                    if k.startswith("faults.")),
                "retry_time": sum(
                    r.fault_counters.get("retry.time", 0.0) for r in recs),
                "crashes": sum(len(r.crashed_ranks) for r in recs),
                "max_overhead": max(overheads) if overheads else 0.0,
                "mean_overhead": (sum(overheads) / len(overheads)
                                  if overheads else 0.0),
            }
        recovered = sum(1 for r in self.records if r.recovered)
        return {
            "p": self.p,
            "n_per_rank": self.n_per_rank,
            "workload": self.workload,
            "seeds": list(self.seeds),
            "runs": len(self.records),
            "recovered": recovered,
            "recovery_rate": _rate(recovered, self.records),
            "specs": dict(sorted(per_spec.items())),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "summary": self.summary(),
            "records": [r.as_dict() for r in self.records],
        }

    @property
    def report_hash(self) -> str:
        """Deterministic digest of the full report (virtual-only data)."""
        return canonical_hash(self.as_dict())


def _rate(recovered: int, recs: list[RunRecord]) -> float | None:
    """Recovered share of the injected runs; ``None`` when no run was
    injected (and 0.0 for no run at all)."""
    injected = sum(1 for r in recs if r.recovered is not None)
    if injected:
        return recovered / injected
    return None if recs else 0.0


def render_report(report: ChaosReport) -> list[str]:
    """Terminal rendering of a chaos report (the CLI's output)."""
    s = report.summary()
    rate = s["recovery_rate"]
    idle = [r for r in report.records if r.recovered is None]
    lines = [
        f"chaos campaign: p={s['p']} n/rank={s['n_per_rank']} "
        f"workload={s['workload']} seeds={s['seeds']}",
        f"runs: {s['runs']}  recovered: {s['recovered']}  "
        f"recovery rate: {'n/a' if rate is None else f'{rate:.1%}'}"
        + (f"  not injected: {len(idle)}" if idle else ""),
        "",
        f"{'spec':<16} {'runs':>5} {'recov':>6} {'faults':>8} "
        f"{'crashes':>8} {'mean ovh':>9} {'max ovh':>9}",
    ]
    for name, st in s["specs"].items():
        lines.append(
            f"{name:<16} {st['runs']:>5} {st['recovered']:>6} "
            f"{st['faults_injected']:>8.0f} {st['crashes']:>8} "
            f"{st['mean_overhead']:>8.1%} {st['max_overhead']:>8.1%}")
    failures = [r for r in report.records if r.recovered is False]
    if failures:
        lines.append("")
        lines.append("failed runs:")
        for r in failures:
            lines.append(f"  {r.spec_name}/{r.algorithm} seed={r.seed}: "
                         f"{r.failure}")
    if idle:
        cells: dict[tuple[str, str], list[int]] = {}
        for r in idle:
            cells.setdefault((r.spec_name, r.algorithm), []).append(r.seed)
        lines.append("")
        lines.append("not injected (the spec's crashes never fired):")
        for (spec, algorithm), seeds in cells.items():
            lines.append(f"  {spec}/{algorithm} seeds={seeds}")
    lines.append("")
    lines.append(f"report hash: {report.report_hash}")
    return lines
