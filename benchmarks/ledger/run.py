"""The host-wall ledger: five workloads, six end-to-end metrics, per-layer spans.

    python3 benchmarks/ledger/run.py --workload wide_sds --seed 0 \\
        --seconds 12 --trace 0

measures one workload and prints every metric by name with its unit; the
last line of stdout is the result as one JSON object.  Without
``--workload`` all five run in turn.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  Every job's output is
checked; any failure makes the exit code non-zero.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402
from shapes import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Fresh sorting processes per untraced run.  Set-up is paid in each and
#: reported as their median; the timed budget is split between them, so
#: one process landing in a slow regime cannot own the whole run.
ROUNDS = 3

#: Wall cap on one worker, chosen so a run of ROUNDS stuck workers still
#: ends inside the driver's 180 s.
WORKER_TIMEOUT_S = 50

#: glibc: serve big arrays from the heap and never trim it.  On the
#: reference VM a freshly mmap'd page costs a host fault, which made
#: identical jobs take 0.5 s or 1.4 s at random (README, "traps").
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 32),
                 "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}

#: Stream jobs covered by the checked-in reference digests.
REFERENCE_JOBS = {"svc_mixed": 768}
REFERENCE_JOBS_DEFAULT = 256


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_worker(workload: str, first_job: int, seconds: float, trace: int,
               *, quick: bool, spans_out: str | None = None
               ) -> dict[str, Any]:
    """One round in a fresh interpreter; its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--first-job", str(first_job), "--seconds", repr(seconds),
           "--trace", str(trace), "--t0", repr(time.time())]
    if quick:
        cmd.append("--quick")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    # own session: on a timeout the daemon grandchild dies with the worker
    env = {**os.environ,
           **(ALLOCATOR_ENV if WORKLOADS[workload].keep_heap else {})}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"ledger: {workload} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"ledger: {workload} worker exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            quick: bool = False, spans_out: str | None = None
            ) -> dict[str, Any]:
    """One run of one workload: the contract result plus the evidence."""
    rounds, first = [], seed
    n_rounds = 1 if trace or quick else ROUNDS
    for _ in range(n_rounds):
        rounds.append(run_worker(workload, first, seconds / n_rounds, trace,
                                 quick=quick, spans_out=spans_out))
        first = max(j["g"] for j in rounds[-1]["jobs"]) + 1
    jobs = [j for r in rounds for j in r["jobs"]]
    good = [j["ms"] / j["speed"] for j in jobs if not j["reason"]]
    problems = [p for r in rounds for p in r.get("problems", [])]
    if not good:
        sys.exit(f"ledger: {workload}: no job succeeded "
                 f"({jobs[0]['reason']})")
    if trace:
        layers = rounds[0]["layers"]
        unknown = set(layers) - {m["name"] for m in BENCHMARK["per_layer"]}
        if unknown:
            sys.exit(f"ledger: metrics missing from BENCHMARK.json: "
                     f"{sorted(unknown)}")
        # a layer not on this workload's path reports 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in BENCHMARK["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "job_ms_p50": statistics.median(good),
            "job_ms_p90": percentile(good, 0.9),
            "jobs_per_s": len(good) / sum(r["wall_s"] for r in rounds),
            "cpu_s_per_job": sum(r["cpu_s"] for r in rounds) / len(jobs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
    failures = [{"g": j["g"], "reason": j["reason"]}
                for j in jobs if j["reason"]]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "result": {"correct": not failures and not problems,
                   "attempted": len(jobs), "failed": len(failures),
                   "metrics": metrics},
        "samples": len(good),
        # > 1: the box was that much slower than the idle reference box
        # (1.0 where times are reported as measured: svc_mixed)
        "host_speed": (None if trace else statistics.median(
            r["host_speed"] for r in rounds)),
        "rounds": [{k: v for k, v in r.items() if k not in ("jobs", "layers")}
                   for r in rounds],
        "failures": failures, "problems": problems,
        "digests": {str(j["g"]): j["digest"] for j in jobs},
        "pinned_cpu": rounds[0]["pinned_cpu"],
    }


def show(run: dict[str, Any]) -> None:
    res = run["result"]
    print(f"{run['workload']}  seed {run['seed']}  "
          f"tracing {'on' if run['trace'] else 'off'}  "
          f"{res['attempted']} jobs, {res['failed']} failed, "
          f"{run['samples']} latency samples")
    if run["host_speed"] not in (None, 1.0):
        print(f"  host slowdown x{run['host_speed']:.3f}: time metrics are "
              "divided by it")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for f in run["failures"][:5]:
        print(f"  FAILED job {f['g']}: {f['reason']}")
    for p in run["problems"]:
        print(f"  PROBLEM: {p}")


def show_repeats(runs: list[dict[str, Any]]) -> None:
    """Per-metric min / median / max over repeats and spread over bound."""
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    print(f"\n{'workload':<12} {'metric':<16} {'min':>10} {'median':>10} "
          f"{'max':>10} {'iqr/med':>8} {'/bound':>7}")
    for workload, reps in by_workload.items():
        for name in reps[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in reps]
            noise = spread(vals)
            of_bound = (f"{noise / bounds[name]:7.2f}"
                        if name in bounds else "      -")
            print(f"{workload:<12} {name:<16} {min(vals):>10.4g} "
                  f"{statistics.median(vals):>10.4g} {max(vals):>10.4g} "
                  f"{noise:>8.3f} {of_bound}")


def environment() -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": os.getloadavg(),
            "commit": commit, "allocator_env": ALLOCATOR_ENV}


def write_expected() -> None:
    """Regenerate the reference digests from the program as it is now.

    Service jobs are run as direct ``JobSpec`` calls: the repo pins them
    bit-identical to what the daemon returns, and the first timed run
    re-checks that through the socket.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.jsondoc import sort_doc
    from repro.service.spec import JobSpec

    from shapes import sim_digest
    from spans import direct_run_sort

    digests: dict[str, list[str]] = {}
    for w in WORKLOADS.values():
        table = digests[w.name] = []
        for g in range(REFERENCE_JOBS.get(w.name, REFERENCE_JOBS_DEFAULT)):
            spec = w.spec(g)
            result = (JobSpec.from_dict(spec).run() if w.service
                      else direct_run_sort(spec))
            table.append(sim_digest(sort_doc(
                result, machine="edison", seed=g,
                fault_seed=spec.get("fault_seed", 0))))
        print(f"{w.name}: {len(table)} digests", file=sys.stderr)
    doc = {"schema": "sdssort.ledger.expected/v1",
           "note": "sim digests per workload, indexed by stream job number "
                   "g (data seed g); a run with --seed S checks jobs "
                   "S, S+1, ...",
           "digests": digests}
    (HERE / "expected_seed0.json").write_text(
        json.dumps(doc, indent=0, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all five in turn)")
    ap.add_argument("--seed", type=int, default=0,
                    help="first stream job; job i sorts data seed SEED+i")
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"],
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="K back-to-back sets; prints min/median/max and "
                         "spread over bound per metric")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write every run, digest and the host facts here "
                         "(traced: raw spans beside it)")
    ap.add_argument("--quick", action="store_true",
                    help="small shapes, one round, no reference digests "
                         "(tests)")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected_seed0.json and exit")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program to measure under {ROOT / 'src'}")
    if args.write_expected:
        write_expected()
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    env, runs = environment(), []
    for rep in range(args.repeat):
        for name in names:
            spans_out = (f"{args.out}.{name}.spans.json"
                         if args.out and args.trace else None)
            # another seed is a window the reference may not cover:
            # validation and invariants still hold, digests are recorded
            runs.append(measure(name, args.seed, args.seconds, args.trace,
                                quick=args.quick, spans_out=spans_out))
            show(runs[-1])
    if args.repeat > 1:
        show_repeats(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": "sdssort.ledger/v1", "env": env,
             "seconds": args.seconds, "quick": args.quick, "runs": runs},
            indent=1) + "\n")
    correct = all(r["result"]["correct"] for r in runs)
    if len(runs) == 1:
        print(json.dumps(runs[0]["result"]))
    else:
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["result"]["attempted"]
                                           for r in runs),
                          "failed": sum(r["result"]["failed"] for r in runs)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
