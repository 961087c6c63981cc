"""One round of one workload: the sorting side of the ledger.

``run.py`` starts this file in a fresh interpreter per round, so set-up
is paid (and measured) every time and one workload's peak RSS cannot
leak into another's.  For the engine workloads this process *is* the
sorting process; for ``svc_mixed`` it is the load generator and its only
child is the ``sdssort serve`` daemon.

Prints exactly one JSON object on stdout.  A failed *job* is a counted
outcome in that object; a broken *run* (warm-up failure, daemon that
will not start) exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"ledger: no program to measure ({SRC / 'repro'} is missing)")
sys.path[:0] = [str(SRC), str(HERE)]

from shapes import WORKLOADS, Workload, verdict  # noqa: E402

EXPECTED_FILE = HERE / "expected_seed0.json"

#: Share of a traced round's budget spent on jobs; probes get the rest.
TRACED_JOB_SHARE = 0.6


def load_expected(workload: str, path: Path = EXPECTED_FILE) -> dict[int, str]:
    """Reference sim digests ``{g: digest}`` of one workload's stream."""
    return dict(enumerate(json.loads(path.read_text())["digests"][workload]))


def pin_to_one_cpu(pid: int = 0) -> int | None:
    """Keep ``pid`` on the last CPU it may use; ``None`` where unsupported."""
    try:
        cpu = max(os.sched_getaffinity(pid))
        os.sched_setaffinity(pid, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def _job_record(g: int, t0: float, reason: str | None,
                digest: str | None) -> dict[str, Any]:
    """``ms`` is raw wall; ``speed`` (the host slowdown around the job) is
    filled in by the loop that ran it."""
    return {"g": g, "ms": (perf_counter() - t0) * 1e3, "speed": 1.0,
            "reason": reason, "digest": digest}


def _timed_summary(jobs: list[dict[str, Any]], setup_s: float,
                   setup_speed: float, wall_s: float, cpu_s: float
                   ) -> dict[str, Any]:
    """A round's numbers, raw and normalised to the idle reference box.

    Each job is divided by its own ``speed``; wall and CPU of the whole
    timed region shrink by the same share the jobs' total did.
    """
    raw_ms = sum(j["ms"] for j in jobs)
    scale = sum(j["ms"] / j["speed"] for j in jobs) / raw_ms
    return {
        "setup_s": setup_s / setup_speed, "setup_raw_s": setup_s,
        "wall_s": wall_s * scale, "wall_raw_s": wall_s,
        "cpu_s": cpu_s * scale, "cpu_raw_s": cpu_s,
        "host_speed": 1.0 / scale,
        "jobs": jobs,
    }


#: Per-layer metrics that are host time, by their declared unit
#: (``sim.elapsed_s`` is virtual time and has unit ``s``).
_HOST_TIME = {m["name"] for m in json.loads(
    (HERE.parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    if m["unit"] in ("ms", "us", "ns")}


def normalised(layers: dict[str, float], speed: float) -> dict[str, float]:
    """``layers`` with every host-time entry divided by the slowdown."""
    return {k: v / speed if k in _HOST_TIME else v
            for k, v in layers.items()}


# ----------------------------------------------------------------------
# engine workloads: this process sorts
# ----------------------------------------------------------------------

def engine_job(g: int, spec: dict[str, Any], expected: str | None,
               *, log: Any = None) -> tuple[dict[str, Any], dict[str, float]]:
    """Run and judge one direct job; with ``log``, under ledger spans."""
    from repro.service.jsondoc import sort_doc
    import spans

    t0 = perf_counter()
    doc, error, layers = None, None, {}
    try:
        if log is None:
            result = spans.direct_run_sort(spec)
            doc = sort_doc(result, machine="edison", seed=spec["seed"])
        else:
            log.job = g
            with log.span(spans.ROOT):
                result, extras = spans.traced_run_sort(spec, log)
                with log.span("service.sort_doc"):
                    doc = sort_doc(result, machine="edison",
                                   seed=spec["seed"])
            layers = extras
    except Exception as exc:  # noqa: BLE001 - a failed job is an outcome
        error = f"{type(exc).__name__}: {exc}"
    reason, digest = verdict(spec, doc, expected)
    return _job_record(g, t0, error or reason, digest), layers


def warm_up(w: Workload, first: int, quick: bool,
            expected: dict[int, str]) -> None:
    for g in w.warmup_jobs(first, quick=quick):
        rec, _ = engine_job(g, w.spec(g, quick=quick), expected.get(g))
        if rec["reason"]:
            sys.exit(f"ledger: warm-up job {g} failed: {rec['reason']}")


def engine_round(w: Workload, args: argparse.Namespace,
                 expected: dict[int, str]) -> dict[str, Any]:
    from hostspeed import HostSpeed

    warm_up(w, args.first_job, args.quick, expected)
    host = HostSpeed()
    setup_s = time.time() - args.t0
    before = setup_speed = host.sample()
    jobs, g, wall_s, cpu_s = [], args.first_job, 0.0, 0.0
    start = perf_counter()
    while len(jobs) < w.min_jobs or perf_counter() - start < args.seconds:
        cpu0 = time.process_time()
        rec, _ = engine_job(g, w.spec(g, quick=args.quick), expected.get(g))
        cpu_s += time.process_time() - cpu0
        wall_s += rec["ms"] / 1e3
        # the kernel runs between jobs, outside every job's clock
        after = host.sample()
        rec["speed"] = (before + after) / 2
        before = after
        jobs.append(rec)
        g += 1
    out = _timed_summary(jobs, setup_s, setup_speed, wall_s, cpu_s)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def engine_traced_round(w: Workload, args: argparse.Namespace,
                        expected: dict[int, str]) -> dict[str, Any]:
    """Each job three ways — plain, under ledger spans, with the repo's
    own tracer on — so both overheads compare like with like."""
    import probes
    import spans
    from hostspeed import HostSpeed

    warm_up(w, args.first_job, args.quick, expected)
    log, host = spans.SpanLog(), HostSpeed()
    jobs, per_job, plain_ms, tracer_ms = [], [], [], []
    start, g, before = perf_counter(), args.first_job, host.sample()
    while (len(plain_ms) < 2
           or perf_counter() - start < TRACED_JOB_SHARE * args.seconds):
        spec = w.spec(g, quick=args.quick)
        plain, _ = engine_job(g, spec, expected.get(g))
        traced, extras = engine_job(g, spec, expected.get(g), log=log)
        t0 = perf_counter()
        spans.direct_run_sort(spec, trace=True)
        tracer_ms.append((perf_counter() - t0) * 1e3)
        plain_ms.append(plain["ms"])
        after = host.sample()
        jobs += [plain, traced]
        if not traced["reason"]:
            per_job.append((g, extras, (before + after) / 2))
        before = after
        g += 1
    if not per_job:
        sys.exit(f"ledger: every traced job failed: {jobs[1]['reason']}")
    rows = log.per_job()
    plain_p50 = statistics.median(plain_ms)
    # the overheads are ratios of runs made side by side: left as measured
    overheads = {
        "ledger.trace_overhead_frac": statistics.median(
            rows[g][spans.ROOT][1] for g, _, _ in per_job) / plain_p50 - 1.0,
        "obs.trace_overhead_frac":
            statistics.median(tracer_ms) / plain_p50 - 1.0,
    }
    layers = _medians([normalised(spans.job_layers(rows[g], extras), speed)
                       for g, extras, speed in per_job])
    layers.update(overheads)
    probed = probes.kernel_probes(args.first_job, quick=args.quick)
    layers.update(normalised(probed, (before + host.sample()) / 2))
    first = w.spec(args.first_job, quick=args.quick)
    if first["backend"] == "flat":
        layers["engine.py_calls_per_rank"] = probes.py_calls_per_rank(first)
    if args.spans_out:
        Path(args.spans_out).write_text(json.dumps(
            {"columns": ["name", "start_ns", "end_ns", "job", "parent"],
             "spans": log.spans}))
    return {"jobs": jobs, "layers": layers}


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    names = {k for row in rows for k in row}
    return {k: statistics.median(row.get(k, 0.0) for row in rows)
            for k in names}


# ----------------------------------------------------------------------
# svc_mixed: this process generates load, the daemon sorts
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds a live process has used (``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """A ``sdssort serve`` subprocess with two connected clients."""

    def __init__(self, rundir: Path, *, telemetry: bool = True):
        from repro.service.client import SocketClient

        self.sock = os.path.relpath(rundir / "d.sock")
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--socket",
               self.sock, "--workers", "2", "--log-level", "warning"]
        if not telemetry:
            cmd.append("--no-telemetry")
        self.proc = subprocess.Popen(cmd, env=child_env())
        self.clients: list[Any] = []
        give_up = perf_counter() + 30
        while len(self.clients) < 2:
            try:
                self.clients.append(SocketClient(self.sock))
            except OSError:
                if self.proc.poll() is not None or perf_counter() > give_up:
                    self.kill()
                    sys.exit("ledger: daemon did not come up")
                time.sleep(0.005)

    def drain(self) -> list[str]:
        """Drain, wait for exit; what did not shut down cleanly."""
        final = self.clients[0].drain()
        for c in self.clients:
            c.close()
        problems = []
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["daemon still running 30 s after drain"]
        if code != 0:
            problems.append(f"daemon exited {code}")
        if os.path.exists(self.sock):
            problems.append("socket file left behind")
        counts = final["stats"]["counts"]
        if counts["submitted"] != counts["done"]:
            problems.append(f"drain scrape does not reconcile: {counts}")
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@contextmanager
def run_dir() -> Iterator[Path]:
    """Scratch directory inside the checkout, short enough for a socket."""
    path = HERE / ".run" / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def service_job(client: Any, g: int, spec: dict[str, Any],
                expected: str | None) -> dict[str, Any]:
    """submit -> result(wait) -> judged; keeps the envelope's timing."""
    from repro.service.client import ServiceError

    t0 = perf_counter()
    doc, error, timing = None, None, {}
    try:
        env = client.result(client.submit(spec)["job_id"])
        timing = env["timing"]
        if env["status"] == "done":
            doc = env["result"]
        else:
            error = f"status {env['status']}: {env.get('error')}"
    except (ServiceError, OSError, ValueError, KeyError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    reason, digest = verdict(spec, doc, expected)
    rec = _job_record(g, t0, error or reason, digest)
    rec.update(queue_ms=timing.get("queue_ms", 0.0),
               run_ms=timing.get("run_ms", 0.0), doc=doc)
    return rec


def closed_loop(daemon: Daemon, w: Workload, first: int, quick: bool,
                expected: dict[int, str], *, seconds: float | None = None,
                count: int | None = None) -> list[dict[str, Any]]:
    """Each client: claim the next stream job, submit, wait, repeat.

    Runs until ``count`` jobs are claimed, or for ``seconds``.
    """
    lock, claimed, start = threading.Lock(), [first], perf_counter()
    done: list[list[dict[str, Any]]] = [[] for _ in daemon.clients]

    def claim() -> int | None:
        with lock:
            g = claimed[0]
            if count is not None:
                if g >= first + count:
                    return None
            elif perf_counter() - start >= seconds:
                return None
            claimed[0] = g + 1
            return g

    def client_loop(i: int) -> None:
        while (g := claim()) is not None:
            done[i].append(service_job(daemon.clients[i], g,
                                       w.spec(g, quick=quick),
                                       expected.get(g)))

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(len(daemon.clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted((r for part in done for r in part), key=lambda r: r["g"])


def service_warm_up(daemon: Daemon, w: Workload, first: int, quick: bool,
                    expected: dict[int, str]) -> None:
    warm = closed_loop(daemon, w, first, quick, expected,
                       count=len(w.warmup_jobs(first, quick=quick)))
    bad = [r for r in warm if r["reason"]]
    if bad:
        daemon.kill()
        sys.exit(f"ledger: warm-up job {bad[0]['g']} failed: "
                 f"{bad[0]['reason']}")


#: The service's timed loop runs in bursts of this many seconds, with
#: the calibration kernel in the pauses: the load generator must not
#: compete with the daemon while it is timed, yet the kernel has to
#: sample the host all through the round, not only at its ends.
BURST_S = 1.0


def service_round(w: Workload, args: argparse.Namespace,
                  expected: dict[int, str]) -> dict[str, Any]:
    from hostspeed import HostSpeed

    with run_dir() as rundir:
        daemon = Daemon(rundir)
        try:
            service_warm_up(daemon, w, args.first_job, args.quick, expected)
            host, pid = HostSpeed(), daemon.proc.pid

            def slowdown() -> float:
                return (host.sample() + host.sample()) / 2

            setup_s = time.time() - args.t0
            before = setup_speed = slowdown()
            jobs, first, wall_s, cpu_s = [], args.first_job, 0.0, 0.0
            start = perf_counter()
            while (len(jobs) < w.min_jobs
                   or perf_counter() - start < args.seconds):
                cpu0, t0 = proc_cpu_s(pid), perf_counter()
                burst = closed_loop(daemon, w, first, args.quick, expected,
                                    seconds=BURST_S)
                wall_s += perf_counter() - t0
                cpu_s += proc_cpu_s(pid) - cpu0
                after = slowdown()
                for rec in burst:
                    del rec["doc"]
                    rec["speed"] = (before + after) / 2
                before = after
                jobs += burst
                first = burst[-1]["g"] + 1
            problems = daemon.drain()
        finally:
            daemon.kill()
    out = _timed_summary(jobs, setup_s, setup_speed, wall_s, cpu_s)
    # the daemon is this process's only child
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out["problems"] = problems
    return out


#: Fault counters that each stand for one resend or resync.
_RETRY_COUNTERS = ("faults.msg_dropped", "faults.coll_msg_dropped",
                   "faults.coll_transient")


def service_traced_round(w: Workload, args: argparse.Namespace,
                         expected: dict[int, str]) -> dict[str, Any]:
    """Per-layer numbers for the service path.

    The layer boundaries the client can see are in every reply already
    (``timing.queue_ms`` / ``run_ms``), so the "traced" loop is the plain
    loop keeping them; the same window is then replayed against a
    ``--no-telemetry`` daemon for the telemetry overhead.
    """
    import probes

    share = TRACED_JOB_SHARE * args.seconds / 2
    with run_dir() as rundir:
        daemon = Daemon(rundir)
        try:
            service_warm_up(daemon, w, args.first_job, args.quick, expected)
            start = perf_counter()
            jobs = closed_loop(daemon, w, args.first_job, args.quick,
                               expected, seconds=share)
            if len(jobs) < w.min_jobs:
                jobs += closed_loop(daemon, w, jobs[-1]["g"] + 1, args.quick,
                                    expected, count=w.min_jobs - len(jobs))
            rate_on = len(jobs) / (perf_counter() - start)
            scrape = []
            for _ in range(5):
                t0 = perf_counter()
                daemon.clients[0].metrics()
                scrape.append((perf_counter() - t0) * 1e3)
            stats = daemon.clients[0].stats()
            problems = daemon.drain()
        finally:
            daemon.kill()
        plain = Daemon(rundir, telemetry=False)
        try:
            service_warm_up(plain, w, args.first_job, args.quick, expected)
            start = perf_counter()
            replay = closed_loop(plain, w, args.first_job, args.quick,
                                 expected, count=len(jobs))
            rate_off = len(replay) / (perf_counter() - start)
            problems += plain.drain()
        finally:
            plain.kill()

    good = [r for r in jobs if not r["reason"]]
    client_ms = sum(r["ms"] for r in good)
    counts, pools = stats["counts"], stats["pools"]
    faulted = [r["doc"]["faults"] for r in good if r["doc"]["faults"]]
    layers = {
        "service.queue_ms_p50": statistics.median(r["queue_ms"] for r in good),
        "service.run_ms_p50": statistics.median(r["run_ms"] for r in good),
        "service.overhead_ms_p50": statistics.median(
            r["ms"] - r["queue_ms"] - r["run_ms"] for r in good),
        "service.pool_hit_ratio":
            pools["hits"] / (pools["hits"] + pools["misses"]),
        "service.admit_ratio":
            1.0 - counts["rejected"] / counts["submitted"],
        "obs.metrics_scrape_ms": statistics.median(scrape),
        "obs.telemetry_overhead_frac": 1.0 - rate_on / rate_off,
        "sim.elapsed_s": statistics.median(
            r["doc"]["elapsed"] for r in good),
        "sim.rdfa": statistics.median(r["doc"]["rdfa"] for r in good),
        "faults.retries_per_job": sum(
            f.get(k, 0.0) for f in faulted for k in _RETRY_COUNTERS)
            / len(good),
        # share of client latency the envelope attributes to a stage
        "ledger.span_coverage": sum(
            r["queue_ms"] + r["run_ms"] for r in good) / client_ms,
    }
    layers.update(probes.service_probes(
        [w.spec(args.first_job + i, quick=args.quick)
         for i in range(len(w.cycle(args.quick)))]))
    for rec in jobs + replay:
        del rec["doc"]
    return {"jobs": jobs + replay, "layers": layers, "problems": problems}


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--first-job", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="epoch seconds at which the parent spawned us")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans-out", default=None, metavar="FILE",
                    help="write the traced round's raw spans here")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    expected = {} if args.quick else load_expected(w.name)
    pinned = pin_to_one_cpu() if w.pin else None
    if w.service:
        out = (service_traced_round if args.trace else service_round)(
            w, args, expected)
    else:
        out = (engine_traced_round if args.trace else engine_round)(
            w, args, expected)
    out["pinned_cpu"] = pinned
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
