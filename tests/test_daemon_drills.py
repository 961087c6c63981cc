"""Daemon drills: a socket daemon fed bad request lines, abandoned
waits, racing cancels, deadlines and drains, and a 1,000-job soak.

Every drill ends the same way: the daemon drains, and then no memory is
committed and no job is in flight, ``counts`` reconcile (every submitted
job reached exactly one terminal state), none of the daemon's
``sort-service-*`` threads is alive and its socket file is gone.  The
daemon runs in-process — ``serve_socket`` on a thread, the function
``sdssort serve --socket`` calls — so that its threads can be counted;
one drill runs the CLI itself.
"""

import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.service import JobSpec, SocketClient, SortService, serve_socket
from repro.service.client import ServiceError
from repro.service.daemon import MAX_REQUEST_BYTES
from repro.service.queue import TERMINAL_STATES

TINY = {"p": 4, "n_per_rank": 16, "backend": "flat"}
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _service_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name.startswith("sort-service-")}


def assert_clean(stats: dict, path: str) -> None:
    """The end of every drill: the daemon's accounting is back at zero."""
    admission, counts = stats["admission"], stats["counts"]
    assert admission["committed_bytes"] == admission["in_flight"] == 0, \
        admission
    assert counts["submitted"] == sum(counts[s] for s in TERMINAL_STATES), \
        counts
    assert stats["queued"] == stats["running"] == 0, stats
    assert not os.path.exists(path)


class Daemon:
    """A two-worker socket daemon served on a thread of this process."""

    def __init__(self, path: str):
        self.path = path
        self.before = _service_threads()
        self.service = SortService(workers=2)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=serve_socket, args=(self.service, path),
            kwargs={"ready": ready.set}, daemon=True)
        self.thread.start()
        assert ready.wait(10)

    def raw(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.path)
        return sock

    def drain(self) -> dict:
        """Drain over a fresh connection; check and return the final
        stats (read in-process once the daemon has returned)."""
        with SocketClient(self.path) as c:
            report = c.drain()
        self.thread.join(10)
        assert not self.thread.is_alive()
        assert not _service_threads() - self.before
        stats = self.service.stats()
        assert_clean(report["stats"], self.path)
        assert_clean(stats, self.path)
        assert stats["state"] == "stopped"
        return stats


@pytest.fixture
def daemon():
    # a short directory: a socket path holds at most ~100 bytes
    with tempfile.TemporaryDirectory(prefix="sds-drill-") as tmp:
        d = Daemon(os.path.join(tmp, "d.sock"))
        yield d
        if d.thread.is_alive():  # a drill failed before its drain
            with SocketClient(d.path) as c:
                c.drain()
            d.thread.join(10)


def _ask(sock: socket.socket, rfile, raw: bytes) -> dict:
    sock.sendall(raw)
    return json.loads(rfile.readline())


#: Bad request lines and the start of the error each one draws.
BAD_LINES = [
    (b"{not json\n", "bad JSON: "),
    (b'{"op": "stats"\xff}\n', "bad encoding: request line is not UTF-8"),
    (b"\xc3\x28\n", "bad encoding: request line is not UTF-8"),
    (b"x" * (MAX_REQUEST_BYTES + 10) + b"\n", "request too long: "),
    (b'{"op": "submit", "spec": {"p": 4, "workload_opts": {"pad": "'
     + b"y" * MAX_REQUEST_BYTES + b'"}}}\n', "request too long: "),
    (b"[1, 2]\n", "request must be a JSON object"),
    (b"   \n", "empty request line"),
    (b'{"op": "reboot"}\n', "unknown op 'reboot'"),
]


def test_every_bad_line_is_answered_and_the_connection_serves_on(daemon):
    sock = daemon.raw()
    rfile = sock.makefile("rb")
    with SocketClient(daemon.path) as other:
        for raw, error in BAD_LINES:
            reply = _ask(sock, rfile, raw)
            assert set(reply) == {"ok", "error"} and not reply["ok"], raw[:32]
            assert reply["error"].startswith(error), (raw[:32], reply)
            # another client is served between two bad lines
            env = other.result(other.submit(TINY)["job_id"])
            assert env["status"] == "done"
        # a line of exactly the bound, newline included, is read whole
        head, tail = b'{"op": "stats", "pad": "', b'"}\n'
        line = head + b" " * (MAX_REQUEST_BYTES - len(head) - len(tail)) + tail
        assert len(line) == MAX_REQUEST_BYTES
        assert _ask(sock, rfile, line)["ok"]
    # half-written lines: what arrived before EOF is answered, then the
    # daemon ends the connection
    for raw, ok in ((b'{"op": "sta', False), (b'{"op": "stats"}', True)):
        half = daemon.raw()
        half.sendall(raw)
        half.shutdown(socket.SHUT_WR)
        hfile = half.makefile("rb")
        assert json.loads(hfile.readline())["ok"] is ok
        assert hfile.readline() == b""
        hfile.close()
        half.close()
    gone = daemon.raw()  # hangs up mid-line
    gone.sendall(b'{"op": "sub')
    gone.close()
    assert _ask(sock, rfile, b'{"op": "stats"}\n')["ok"]
    rfile.close()
    sock.close()
    stats = daemon.drain()
    assert stats["counts"]["submitted"] == stats["counts"]["done"] \
        == len(BAD_LINES)


def test_a_client_that_hangs_up_during_a_result_wait(daemon, monkeypatch):
    go, waiting = threading.Event(), threading.Event()
    run, wait = JobSpec.run, daemon.service.wait

    def gated_run(self, **kwargs):
        assert go.wait(10)
        return run(self, **kwargs)

    def spied_wait(job_id, timeout=None):
        waiting.set()
        return wait(job_id, timeout)

    monkeypatch.setattr(JobSpec, "run", gated_run)
    monkeypatch.setattr(daemon.service, "wait", spied_wait)
    ids = []
    for _ in range(2):  # two waits abandoned while their jobs are held
        sock = daemon.raw()
        rfile = sock.makefile("rb")
        job_id = _ask(sock, rfile, json.dumps(
            {"op": "submit", "spec": TINY}).encode() + b"\n")["job"]["job_id"]
        waiting.clear()
        sock.sendall(json.dumps({"op": "result", "job_id": job_id}).encode()
                     + b"\n")
        assert waiting.wait(10)
        rfile.close()
        sock.close()  # gone while the daemon blocks on the job
        ids.append(job_id)
    go.set()
    with SocketClient(daemon.path) as c:
        assert c.result(ids[0])["status"] == "done"
    stats = daemon.drain()
    assert stats["counts"]["done"] == 2


def _script(rng: random.Random, steps: int) -> list[tuple]:
    """A client's seeded requests: tiny jobs, jobs with deadlines short
    enough to expire queued or mid-run, longer jobs, cancels of its own
    jobs (by index), status and result reads."""
    out = []
    for _ in range(steps):
        kind = rng.choice(("tiny", "tiny", "deadline", "slow", "cancel",
                           "cancel", "status", "result"))
        out.append((kind, rng.choice((1e-4, 2e-3, 0.03)), rng.random()))
    return out


def _client(path: str, script: list, step, submitted: list,
            errors: list) -> None:
    """Run ``script`` over one connection until it ends or the drain
    closes the connection; count every submit the daemon answered."""
    mine: list[str] = []
    try:
        with SocketClient(path) as c:
            for kind, deadline, pick in script:
                step()
                if kind in ("tiny", "deadline", "slow"):
                    spec = ({"p": 16, "n_per_rank": 5000, "backend": "flat"}
                            if kind == "slow" else TINY)
                    env = c.submit(spec, timeout_s=(
                        deadline if kind == "deadline" else None))
                    submitted.append(env["job_id"])
                    mine.append(env["job_id"])
                elif mine and kind == "cancel":
                    c.cancel(mine[int(pick * len(mine))])
                elif mine and kind == "status":
                    c.status(mine[int(pick * len(mine))])
                elif mine:
                    c.result(mine[int(pick * len(mine))], timeout=0.01)
    except OSError:
        pass  # the drain shut this connection: a request lost there is
        # never answered, and never counted
    except ServiceError as exc:
        if "closed the connection" not in str(exc):
            errors.append(exc)


@pytest.mark.parametrize("seed", range(4))
def test_cancels_deadlines_and_a_drain_race_in_a_seeded_order(daemon, seed):
    rng = random.Random(seed)
    scripts = [_script(random.Random(seed * 10 + i), 40) for i in range(3)]
    at = rng.randrange(10, 100)  # the drain goes out after this many steps
    count, lock, reached = [0], threading.Lock(), threading.Event()

    def step():
        with lock:
            count[0] += 1
            if count[0] >= at:
                reached.set()

    submitted: list[str] = []
    errors: list[Exception] = []
    clients = [threading.Thread(target=_client, args=(
        daemon.path, s, step, submitted, errors)) for s in scripts]
    for t in clients:
        t.start()
    assert reached.wait(60)
    stats = daemon.drain()
    for t in clients:
        t.join(30)
        assert not t.is_alive()
    assert not errors
    assert stats["counts"]["submitted"] == len(submitted)
    assert stats["counts"]["submitted"] > 0


def test_a_thousand_tiny_jobs_leave_nothing_behind(daemon):
    errors = []

    def client(k):
        try:
            with SocketClient(daemon.path) as c:
                for first in range(0, 500, 25):  # 25 queued at a time
                    ids = [c.submit({**TINY, "seed": k * 500 + first + i})
                           ["job_id"] for i in range(25)]
                    assert [c.result(i)["status"] for i in ids] \
                        == ["done"] * 25
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
    for t in clients:
        t.start()
    for t in clients:
        t.join(120)
    assert not errors
    stats = daemon.drain()
    assert stats["counts"]["submitted"] == stats["counts"]["done"] == 1000
    assert stats["pools"] == {"hits": 1000, "misses": 0}


def test_the_cli_daemon_answers_bad_lines_and_exits_clean():
    with tempfile.TemporaryDirectory(prefix="sds-drill-") as tmp:
        path = os.path.join(tmp, "d.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", path,
             "--workers", "2", "--log-level", "error"],
            env={**os.environ, "PYTHONPATH": SRC})
        try:
            for _ in range(300):
                if os.path.exists(path):
                    break
                time.sleep(0.05)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            rfile = sock.makefile("rb")
            for raw, error in BAD_LINES[1:4]:
                reply = _ask(sock, rfile, raw)
                assert reply["error"].startswith(error), reply
            reply = _ask(sock, rfile, b'{"op": "drain"}\n')
            assert reply["ok"] and reply["drained"]
            assert proc.wait(30) == 0
            assert_clean(reply["stats"], path)
            rfile.close()
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_the_monitor_keeps_every_count_under_a_short_switch_interval():
    # more workers than cores, submitters and cancellers racing, and a
    # thread switch every microsecond: a lost update would show as a job
    # counted twice, never, or with its budget still committed
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        svc = SortService(workers=4)
        jobs, lock = [], threading.Lock()

        def submitter(k):
            rng = random.Random(k)
            for i in range(40):
                job = svc.submit({**TINY, "seed": i}, timeout_s=(
                    rng.choice((1e-4, 5e-3)) if i % 3 == 0 else None))
                with lock:
                    jobs.append(job)
                if i % 4 == 1:
                    svc.cancel(job.id)

        threads = [threading.Thread(target=submitter, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert svc.drain(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    stats = svc.stats()
    counts = stats["counts"]
    assert counts["submitted"] == len(jobs) == 160
    assert all(j.terminal for j in jobs)
    for state in TERMINAL_STATES:
        assert counts[state] == sum(j.status == state for j in jobs), state
    assert stats["admission"]["committed_bytes"] == 0
    assert stats["admission"]["in_flight"] == 0
    assert not any(t.is_alive() for t in svc._workers)
