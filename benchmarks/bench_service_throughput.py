"""Service throughput: jobs/min and job latency on warm pools.

The service subsystem (``docs/service.md``) schedules jobs on a
``WarmPoolCache`` so a stream of same-shaped jobs pays engine start-up
(spawning the ``SpmdPool`` rank threads) once instead of per job.
This bench tracks the service's host throughput: a fixed stream of
identical-shape ``sds`` jobs is pushed through an in-process
``ServiceClient`` at worker concurrency in {1, 4, 16}, recording
throughput (jobs/min) and per-job latency percentiles (p50/p99 of the
envelope's ``timing.total_ms``, which spans submission to completion,
queueing included).

The job shape is p=128, n/rank=200: large enough rank count that pool
start-up would be a real fraction of the job (a single-job probe
measured ~43 ms on a warm pool vs ~58 ms building one on the reference
host), small enough that the whole matrix stays in seconds.  The
``c*_cold`` rows in ``BENCH_engine.json`` are history: the per-job
cold-pool baseline the cache was measured against (it never won) and
its service option are gone.  With ~20 samples per cell the p99
is effectively the max — it is recorded as a tail indicator, not a
stable quantile.

Results land in the ``service_throughput`` section of
``BENCH_engine.json`` (schema v10).  Like the other engine benches this
read-modify-writes the file, preserving every other section and the
recorded rows it no longer measures.

Run directly (``python benchmarks/bench_service_throughput.py``) or
via pytest.  ``REPRO_BENCH_QUICK`` drops the concurrency-16 cell and
shrinks the stream.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.service import ServiceClient

sys.path.insert(0, str(Path(__file__).parent))
from _helpers import emit, quick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_engine.json"
SCHEMA = "bench_engine_walltime/v10"

P = 128
N_PER_RANK = 200
CONCURRENCY = (1, 4) if quick() else (1, 4, 16)
JOBS = 8 if quick() else 20


def _spec(seed: int) -> dict:
    # node merging off, as in bench_engine_walltime.py: at this tiny
    # n/rank the 24-rank node gather would OOM the leader's simulated
    # memory, and the bench wants the full-fan-out engine path anyway
    return {"algorithm": "sds", "workload": "uniform", "backend": "thread",
            "p": P, "n_per_rank": N_PER_RANK, "seed": seed,
            "algo_opts": {"node_merge_enabled": False}}


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _run_stream(workers: int) -> dict:
    """Submit JOBS jobs, wait for all, return throughput + latency."""
    with ServiceClient(workers=workers) as client:
        # one discarded warm-up job so the cell measures steady state
        # (pool already built)
        client.run(_spec(seed=10_000))
        t0 = time.perf_counter()
        ids = [client.submit(_spec(seed=s))["job_id"] for s in range(JOBS)]
        envs = [client.result(job_id) for job_id in ids]
        wall = time.perf_counter() - t0
        pool_stats = client.stats()["pools"]
    assert all(e["status"] == "done" for e in envs), (
        [e["error"] for e in envs if e["status"] != "done"])
    lat = [e["timing"]["total_ms"] for e in envs]
    return {
        "workers": workers,
        "jobs": JOBS,
        "wall_seconds": round(wall, 4),
        "jobs_per_min": round(JOBS / wall * 60.0, 1),
        "latency_ms": {"p50": round(_percentile(lat, 0.50), 2),
                       "p99": round(_percentile(lat, 0.99), 2),
                       "mean": round(sum(lat) / len(lat), 2)},
        "pool_stats": pool_stats,
    }


def measure() -> dict:
    return {f"c{workers}_warm": _run_stream(workers)
            for workers in CONCURRENCY}


def write_report(runs: dict) -> list[str]:
    existing = (json.loads(JSON_PATH.read_text())
                if JSON_PATH.exists() else {})
    existing["schema"] = SCHEMA
    recorded = existing.get("service_throughput", {}).get("runs", {})
    existing["service_throughput"] = {
        "machine": "in-process ServiceClient, sds uniform "
                   f"p={P} n/rank={N_PER_RANK}, thread backend, "
                   f"{JOBS}-job stream per cell (1 warm-up discarded)",
        "runs": {**recorded, **runs},
    }
    JSON_PATH.write_text(json.dumps(existing, indent=1) + "\n")

    rows = [f"{'config':>10s} {'jobs/min':>9s} {'p50(ms)':>8s} "
            f"{'p99(ms)':>8s} {'pool hits':>9s}"]
    for name, r in runs.items():
        rows.append(f"{name:>10s} {r['jobs_per_min']:>9.1f} "
                    f"{r['latency_ms']['p50']:>8.2f} "
                    f"{r['latency_ms']['p99']:>8.2f} "
                    f"{r['pool_stats'].get('hits', 0):>9d}")
    return rows


def test_service_throughput():
    runs = measure()
    rows = write_report(runs)
    emit("service_throughput", rows)
    for workers in CONCURRENCY:
        warm = runs[f"c{workers}_warm"]
        # the warm cache actually served the stream from reuse
        assert warm["pool_stats"]["hits"] >= JOBS - workers, warm


if __name__ == "__main__":
    test_service_throughput()
    print(f"wrote {JSON_PATH}")
