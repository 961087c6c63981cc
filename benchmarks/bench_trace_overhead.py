"""Host cost of the observability hooks: tracing off vs on at scale.

The tracer's zero-overhead-when-off guarantee is structural (every
hook is one ``is None`` attribute check), but the *when-on* cost rides
the engine's per-message hot path, so this bench measures both sides
at p in {256, 512}: host wall-clock of identical worlds with tracing
disabled and enabled, plus the span/counter volume the enabled run
collects.  Virtual clocks must be bit-for-bit equal either way — that
is asserted here on every pair, not just in the unit tests.

Results land in the ``trace_overhead`` section of
``BENCH_engine.json`` (schema v6).  This bench,
``bench_engine_walltime.py`` and ``bench_chaos_overhead.py`` all
read-modify-write the file, each preserving the others' sections, so
the v4 baselines carry over unchanged.

Run directly (``python benchmarks/bench_trace_overhead.py``) or via
pytest.  ``REPRO_BENCH_QUICK`` drops the p=512 point.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.runner import run_sort
from repro.workloads import by_name

sys.path.insert(0, str(Path(__file__).parent))
from _helpers import emit, fmt_time, quick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_engine.json"
SCHEMA = "bench_engine_walltime/v10"

N_PER_RANK = 500
REPS = 2


def measure() -> dict:
    """Best-of-``REPS`` wall seconds per p, tracing off and on."""
    wl = by_name("uniform")
    opts = {"node_merge_enabled": False}
    out: dict[str, dict] = {}
    for p in (256,) if quick() else (256, 512):
        walls = {False: float("inf"), True: float("inf")}
        results = {}
        for trace in (False, True):
            for _ in range(REPS):
                t0 = time.perf_counter()
                r = run_sort("sds", wl, n_per_rank=N_PER_RANK, p=p,
                             mem_factor=None, algo_opts=opts, trace=trace,
                             backend="thread")  # the recorded sections' engine
                walls[trace] = min(walls[trace], time.perf_counter() - t0)
                assert r.ok, f"p={p} trace={trace} failed: {r.failure}"
                results[trace] = r
        # the guarantee under test: tracing never moves a virtual clock
        assert results[False].elapsed == results[True].elapsed, p
        report = results[True].extras["trace"]
        rec = report.reconcile()
        out[f"p{p}"] = {
            "p": p,
            "n_per_rank": N_PER_RANK,
            "sim_seconds": round(results[True].elapsed, 6),
            "wall_off_seconds": round(walls[False], 4),
            "wall_on_seconds": round(walls[True], 4),
            "overhead": round(walls[True] / walls[False] - 1.0, 4),
            "spans": sum(len(s) for s in report.spans),
            "counters": sum(len(c) for c in report.counters),
            "max_cost_gap": rec["max_cost_gap"],
            "max_phase_gap": rec["max_phase_gap"],
        }
    return out


def write_report(trace_runs: dict) -> list[str]:
    existing = (json.loads(JSON_PATH.read_text())
                if JSON_PATH.exists() else {})
    existing["schema"] = SCHEMA
    existing["trace_overhead"] = {
        "machine": "EDISON cost model, uniform workload, node_merge off, "
                   "no memory limit",
        "runs": trace_runs,
    }
    JSON_PATH.write_text(json.dumps(existing, indent=1) + "\n")

    rows = [f"{'config':>8s} {'off(s)':>8s} {'on(s)':>8s} "
            f"{'overhead':>9s} {'spans':>7s}"]
    for name, r in trace_runs.items():
        rows.append(f"{name:>8s} {fmt_time(r['wall_off_seconds']):>8s} "
                    f"{fmt_time(r['wall_on_seconds']):>8s} "
                    f"{r['overhead']:>8.1%} {r['spans']:>7d}")
    return rows


def test_trace_overhead():
    runs = measure()
    rows = write_report(runs)
    emit("trace_overhead", rows)
    for name, r in runs.items():
        # the enabled run actually observed the world...
        assert r["spans"] > 0, name
        # ...and its attribution reconciles with the clocks
        assert r["max_cost_gap"] < 1e-9, (name, r)
        # generous ceiling: tracing may not blow host cost up (the
        # hooks are tuple appends and float adds; catches an
        # accidentally quadratic hook, not timer jitter on CI hosts)
        assert r["wall_on_seconds"] < r["wall_off_seconds"] * 5 + 1.0, name


if __name__ == "__main__":
    test_trace_overhead()
    print(f"wrote {JSON_PATH}")
