"""The chaos harness: seeded fault matrices over the sort runner.

``run_chaos`` drives the ``sdssort chaos`` CLI: for every (fault
preset, algorithm, seed) cell it runs the sort under the compiled
fault plan and compares against the fault-free baseline of the same
(algorithm, data seed), producing a :class:`~repro.faults.report.ChaosReport`
whose hash is deterministic — same matrix, same report, bit for bit.

This module imports :mod:`repro.runner` and is therefore *not*
re-exported from ``repro.faults`` (the runner imports the spec/plan
side of this package; keeping chaos out of ``__init__`` avoids the
cycle).  Import it directly: ``from repro.faults.chaos import run_chaos``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..machine import EDISON, MachineSpec
from ..runner import run_sort
from ..workloads import by_name
from .report import ChaosReport, RunRecord
from .spec import (
    CollectiveFaults,
    CrashFault,
    FaultSpec,
    MessageFaults,
    StragglerFault,
)

__all__ = ["PRESETS", "run_chaos"]

#: Named fault campaigns of the chaos CLI.  Rates are chosen so every
#: preset is survivable by design: drops stay far below the retry
#: budget, crash presets kill exactly one rank.
PRESETS: dict[str, FaultSpec] = {
    "drop": FaultSpec(messages=MessageFaults(drop_rate=0.05)),
    "delay": FaultSpec(messages=MessageFaults(delay_rate=0.2, delay=1e-3)),
    "duplicate": FaultSpec(messages=MessageFaults(duplicate_rate=0.1)),
    "straggler": FaultSpec(stragglers=(StragglerFault(count=2,
                                                      slowdown=4.0),)),
    "collective": FaultSpec(collectives=CollectiveFaults(transient_rate=0.1)),
    "crash-pivot": FaultSpec(crashes=(CrashFault(phase="pivot_select"),)),
    "crash-exchange": FaultSpec(crashes=(CrashFault(phase="exchange"),)),
    "mixed": FaultSpec(
        stragglers=(StragglerFault(count=1, slowdown=2.0),),
        messages=MessageFaults(drop_rate=0.02, delay_rate=0.1),
        collectives=CollectiveFaults(transient_rate=0.05),
    ),
}


def resolve_specs(names: Iterable[str] | None,
                  extra: Mapping[str, FaultSpec] | None = None
                  ) -> dict[str, FaultSpec]:
    """Map preset names to specs; ``None`` selects every preset."""
    table = dict(PRESETS)
    if extra:
        table.update(extra)
    if names is None:
        return dict(table)
    out: dict[str, FaultSpec] = {}
    for name in names:
        if name not in table:
            raise KeyError(f"unknown chaos preset {name!r}; "
                           f"options: {', '.join(sorted(table))}")
        out[name] = table[name]
    return out


def run_chaos(*, p: int, n_per_rank: int = 256,
              seeds: Iterable[int] = range(3),
              specs: Iterable[str] | None = None,
              algorithms: Iterable[str] = ("sds", "sds-stable"),
              workload: str = "uniform",
              machine: MachineSpec = EDISON,
              mem_factor: float | None = None,
              extra_specs: Mapping[str, FaultSpec] | None = None,
              backend: str = "thread",
              ) -> ChaosReport:
    """Run a seeded fault matrix and aggregate the resilience report.

    Every cell runs ``run_sort`` with the preset compiled against
    ``(p, seed)``; the seed doubles as data seed and fault seed, so one
    integer pins the entire cell.  Baselines (fault-free runs) are
    computed once per (algorithm, seed) and shared across presets.
    ``mem_factor=None`` disables the OOM model — chaos campaigns probe
    fault tolerance, not capacity.

    ``backend`` selects the engine backend per cell; the report hash is
    backend-invariant (the determinism contract the cross-backend tests
    pin down).
    """
    seeds = list(seeds)
    chosen = resolve_specs(specs, extra_specs)
    wl = by_name(workload)
    report = ChaosReport(p=p, n_per_rank=n_per_rank, workload=workload,
                         seeds=seeds)

    baselines: dict[tuple[str, int], float] = {}
    for algorithm in algorithms:
        for seed in seeds:
            base = run_sort(algorithm, wl, n_per_rank=n_per_rank, p=p,
                            machine=machine, seed=seed,
                            mem_factor=mem_factor, backend=backend)
            baselines[(algorithm, seed)] = base.elapsed

    for spec_name, spec in chosen.items():
        for algorithm in algorithms:
            for seed in seeds:
                try:
                    res = run_sort(algorithm, wl, n_per_rank=n_per_rank,
                                   p=p, machine=machine, seed=seed,
                                   mem_factor=mem_factor,
                                   faults=spec, fault_seed=seed,
                                   backend=backend)
                    ok = res.ok
                    failure = res.failure
                    elapsed = res.elapsed
                    counters = dict(res.extras.get("faults", {}))
                    crashed = list(res.extras.get("crashed_ranks", []))
                    decisions = res.extras.get("decisions") or []
                    recoveries = sum(1 for d in decisions
                                     if d.get("decision") == "fault_recovery")
                except Exception as exc:  # validation/engine failure
                    ok, failure, elapsed = False, repr(exc), 0.0
                    counters, crashed, recoveries = {}, [], 0
                # not injected: a crash spec none of whose crashes
                # fired (no crash barrier reached), nor any other fault
                idle = (ok and spec.crashes and not crashed
                        and not any(v for k, v in counters.items()
                                    if k.startswith("faults.")))
                report.add(RunRecord(
                    spec_name=spec_name, algorithm=algorithm,
                    workload=workload, p=p, seed=seed,
                    recovered=None if idle else ok, elapsed=elapsed,
                    baseline=baselines[(algorithm, seed)],
                    fault_counters=counters, crashed_ranks=crashed,
                    recovery_decisions=recoveries, failure=failure))
    return report


def spec_from_config(config: Mapping[str, Any] | str) -> FaultSpec:
    """Build a spec from a preset name or a ``FaultSpec.from_dict`` dict."""
    if isinstance(config, str):
        if config not in PRESETS:
            raise KeyError(f"unknown chaos preset {config!r}; "
                           f"options: {', '.join(sorted(PRESETS))}")
        return PRESETS[config]
    return FaultSpec.from_dict(config)
