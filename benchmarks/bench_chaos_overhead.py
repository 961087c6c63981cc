"""Virtual-walltime overhead of the fault/recovery paths at scale.

The resilience subsystem prices every recovery action — retransmission
timeouts, duplicate discards, collective re-synchronisation, degraded
completion after a crash — through the LogGP cost model.  This bench
tracks what those paths *cost* in simulated seconds at p in {256, 512},
relative to the fault-free baseline of the same configuration, plus
the host wall-clock of running the faulted worlds (the injection hooks
sit on the engine's per-message hot path, so a hook regression shows
up here before it shows up in the tier-1 suite).

Results land in the ``chaos`` section of
``benchmarks/out/BENCH_engine.json``; the file's other sections are the
recorded history of the host-speed benches the ledger
(``benchmarks/ledger``) replaced, and are carried over unchanged.

Run directly (``python benchmarks/bench_chaos_overhead.py``) or via
pytest.  ``REPRO_BENCH_QUICK`` drops the p=512 points.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.faults import CrashFault, FaultSpec, MessageFaults, StragglerFault
from repro.runner import run_sort
from repro.workloads import by_name

sys.path.insert(0, str(Path(__file__).parent))
from _helpers import emit, fmt_time, quick  # noqa: E402

JSON_PATH = Path(__file__).resolve().parent / "out" / "BENCH_engine.json"
SCHEMA = "bench_engine_walltime/v10"

#: (name, spec) — one scenario per recovery path.  Node merging is
#: disabled throughout so every rank stays crash-eligible and the p2p
#: hot path is exercised at full fan-out (see docs/faults.md).
SCENARIOS = [
    ("drop5", FaultSpec(messages=MessageFaults(drop_rate=0.05))),
    ("straggler4x", FaultSpec(stragglers=(StragglerFault(count=2,
                                                         slowdown=4.0),))),
    ("transient_mix", FaultSpec(
        messages=MessageFaults(drop_rate=0.02, delay_rate=0.1),
    )),
    ("crash_exchange", FaultSpec(crashes=(CrashFault(phase="exchange"),))),
]

N_PER_RANK = 500


def measure() -> dict:
    """Per (p, scenario): virtual overhead vs fault-free + host wall."""
    wl = by_name("uniform")
    opts = {"node_merge_enabled": False}
    out: dict[str, dict] = {}
    for p in (256,) if quick() else (256, 512):
        # rank threads: the engine the recorded sections were taken on
        base = run_sort("sds", wl, n_per_rank=N_PER_RANK, p=p,
                        mem_factor=None, algo_opts=opts, backend="thread")
        assert base.ok
        for name, spec in SCENARIOS:
            t0 = time.perf_counter()
            r = run_sort("sds", wl, n_per_rank=N_PER_RANK, p=p,
                         mem_factor=None, algo_opts=opts,
                         faults=spec, fault_seed=0, backend="thread")
            wall = time.perf_counter() - t0
            assert r.ok, f"{name} at p={p} failed: {r.failure}"
            counters = r.extras["faults"]
            out[f"p{p}_{name}"] = {
                "p": p,
                "n_per_rank": N_PER_RANK,
                "scenario": name,
                "spec": spec.as_dict(),
                "baseline_sim_seconds": round(base.elapsed, 6),
                "sim_seconds": round(r.elapsed, 6),
                "overhead": round(r.elapsed / base.elapsed - 1.0, 4),
                "faults_injected": round(sum(
                    v for k, v in counters.items()
                    if k.startswith("faults."))),
                "retry_time": round(counters.get("retry.time", 0.0), 6),
                "crashed_ranks": r.extras["crashed_ranks"],
                "host_wall_seconds": round(wall, 4),
            }
    return out


def write_report(chaos_runs: dict) -> list[str]:
    existing = (json.loads(JSON_PATH.read_text())
                if JSON_PATH.exists() else {})
    existing["schema"] = SCHEMA
    existing["chaos"] = {
        "machine": "EDISON cost model, uniform workload, node_merge off, "
                   "no memory limit",
        "runs": chaos_runs,
    }
    JSON_PATH.write_text(json.dumps(existing, indent=1) + "\n")

    rows = [f"{'config':>22s} {'base(s)':>9s} {'sim(s)':>9s} "
            f"{'overhead':>9s} {'faults':>7s} {'host(s)':>8s}"]
    for name, r in chaos_runs.items():
        rows.append(
            f"{name:>22s} {fmt_time(r['baseline_sim_seconds']):>9s} "
            f"{fmt_time(r['sim_seconds']):>9s} {r['overhead']:>8.1%} "
            f"{r['faults_injected']:>7d} {fmt_time(r['host_wall_seconds']):>8s}")
    return rows


def test_chaos_overhead():
    runs = measure()
    rows = write_report(runs)
    emit("chaos_overhead", rows)
    for name, r in runs.items():
        # every scenario injected something and still completed
        assert r["faults_injected"] > 0, name
        # stragglers must cost *something*; the effect is small at this
        # shape because the slowdown scales comm.charge CPU costs only
        # (local sort, partitioning) while the fused-exchange clock
        # replay — network-dominated at n/rank=500 — is not scaled
        # (docs/faults.md)
        if "straggler" in name:
            assert r["overhead"] > 0, (name, r["overhead"])
        # recovery never blows the run up by more than the retry budget
        # allows at this scale (generous ceiling; catches runaway
        # re-pricing, not model drift)
        assert r["sim_seconds"] < r["baseline_sim_seconds"] * 200, name
    if "p256_crash_exchange" in runs:
        assert len(runs["p256_crash_exchange"]["crashed_ranks"]) == 1


if __name__ == "__main__":
    test_chaos_overhead()
    print(f"wrote {JSON_PATH}")
