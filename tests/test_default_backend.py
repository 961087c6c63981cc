"""A job that names no backend runs on the flat engine.

``JobSpec.backend``, ``run_sort(backend=)`` and the CLI default to
``auto``, which resolves to ``flat``; ``thread`` is a request.  Pinned
here at the service boundary: the default path equals the thread oracle
field for field on the service's own traffic mix, and the service counts
every job that reaches a worker — one with no rank threads to start is a
hit — so its pool hit ratio stays defined on a stream that never starts
one.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.mpi import engine
from repro.runner import run_sort
from repro.service import JobSpec, ServiceClient, SortService, serve_socket
from repro.workloads import by_name

_NO_MERGE = {"node_merge_enabled": False}

#: The six ``svc_mixed`` shapes of ``benchmarks/ledger/shapes.py``
#: (no ``backend`` field: the service default decides).
SERVICE_SHAPES = (
    {"algorithm": "sds", "workload": "uniform", "p": 16,
     "n_per_rank": 2000, "algo_opts": _NO_MERGE},
    {"algorithm": "sds", "workload": "zipf", "p": 64,
     "n_per_rank": 500, "algo_opts": _NO_MERGE},
    {"algorithm": "sds-stable", "workload": "ptf", "p": 32,
     "n_per_rank": 1000, "algo_opts": _NO_MERGE},
    {"algorithm": "psrs", "workload": "uniform", "p": 128,
     "n_per_rank": 200},
    {"algorithm": "hyksort", "workload": "uniform", "p": 16,
     "n_per_rank": 2000},
    {"algorithm": "sds", "workload": "uniform", "p": 128,
     "n_per_rank": 200, "algo_opts": _NO_MERGE},
)

#: The stream's per-job flags (one job in 12 traced, one in 12 faulted).
MODES = {"plain": {}, "trace": {"trace": True},
         "mixed-faults": {"faults": "mixed", "fault_seed": 11}}

#: What a default job's document must share with the thread oracle's.
SIM_FIELDS = ("ok", "oom", "failure", "elapsed", "rdfa", "phases",
              "decisions", "faults", "crashed_ranks", "trace")

FLAT = {"requested": "auto", "resolved": "flat"}


def _resolution(extras_backend: dict) -> dict:
    return {k: extras_backend[k] for k in ("requested", "resolved")}


@pytest.fixture(scope="module")
def client():
    with ServiceClient(workers=2) as c:
        yield c


@pytest.fixture()
def daemon(tmp_path):
    """Socket path of a fresh one-worker ``sdssort serve`` daemon."""
    path = str(tmp_path / "d.sock")
    listening = threading.Event()
    server = threading.Thread(
        target=serve_socket, args=(SortService(workers=1), path),
        kwargs={"ready": listening.set}, daemon=True)
    server.start()
    assert listening.wait(10)
    yield path
    if server.is_alive():
        assert main(["submit", "--socket", path, "--drain"]) == 0
    server.join(10)
    assert not server.is_alive()


def _run(client, spec: dict):
    """Envelope and ``RunResult`` of one job through the service.

    A finished job keeps its document, not its ``RunResult``, so the
    result is what a spy on ``JobSpec.run`` saw the worker get back.
    """
    seen = []
    run = JobSpec.run

    def spy(self, **kwargs):
        seen.append(run(self, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JobSpec, "run", spy)
        env = client.run(spec)
    (result,) = seen
    assert client.service.get(env["job_id"]).result is None
    return env, result


class TestDefaultsResolveFlat:
    # `sdssort sort` with no flag is pinned next to its `thread` twin:
    # tests/test_cli.py::test_sort_json_default_backend_is_auto
    def test_jobspec(self):
        assert JobSpec().backend == "auto"
        assert JobSpec.from_dict({}).backend == "auto"
        assert JobSpec.from_dict({"backend": "thread"}).backend == "thread"

    def test_run_sort(self):
        r = run_sort("sds", by_name("uniform"), n_per_rank=100, p=8)
        assert _resolution(r.extras["backend"]) == FLAT
        engine_doc = r.extras["engine"]
        assert (engine_doc["backend"], engine_doc["workers"],
                engine_doc["pool_threads"]) == ("flat", 0, 0)

    def test_service_envelope(self, client):
        env, result = _run(client, {"p": 8, "n_per_rank": 100})
        assert env["backend"] == "auto"
        assert env["result"]["engine"]["backend"] == "flat"
        assert _resolution(result.extras["backend"]) == FLAT

    def test_cli_submit(self, capsys, daemon):
        assert main(["submit", "--socket", daemon,
                     "--p", "8", "--n", "100"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["backend"] == "auto"
        assert _resolution(env["result"]["engine"]["resolved_backend"]) \
            == FLAT

    def test_cli_chaos(self, capsys, monkeypatch):
        from repro.faults import chaos

        seen = []
        run_chaos = chaos.run_chaos

        def spy(**kw):
            seen.append(kw["backend"])
            return run_chaos(**kw)

        monkeypatch.setattr(chaos, "run_chaos", spy)
        assert main(["chaos", "--p", "8", "--n", "64", "--seeds", "0",
                     "--specs", "drop", "--algorithms", "sds"]) == 0
        capsys.readouterr()
        assert seen == ["flat"]


class TestDefaultPathEqualsThread:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", range(len(SERVICE_SHAPES)))
    def test_service_shapes(self, client, shape, mode):
        spec = {**SERVICE_SHAPES[shape], **MODES[mode], "seed": shape + 5}
        env, result = _run(client, spec)
        oracle_env, oracle = _run(client, {**spec, "backend": "thread"})
        assert env["status"] == oracle_env["status"] == "done"
        doc, want = env["result"], oracle_env["result"]
        assert doc["engine"]["backend"] == "flat"
        assert want["engine"]["backend"] == "thread"
        for name in SIM_FIELDS:
            assert doc[name] == want[name], name
        assert (doc["trace"] is not None) == (mode == "trace")
        assert (doc["faults"] is not None) == (mode == "mixed-faults")
        assert result.extras["mem_peaks"] == oracle.extras["mem_peaks"]

    def test_leader_oom_of_the_default_run(self, client):
        # with its defaults the paper's algorithm sorts: node merge hands
        # each node's data to its leader, whose capacity is the node's
        # (it failed here while a leader could hold only its own share);
        # both backends agree on every field
        spec = {"algorithm": "sds", "p": 48, "n_per_rank": 2000}
        env, result = _run(client, spec)
        oracle_env, oracle = _run(client, {**spec, "backend": "thread"})
        assert env["status"] == oracle_env["status"] == "done"
        doc, want = env["result"], oracle_env["result"]
        assert doc["ok"] is want["ok"] is True
        for name in SIM_FIELDS:
            assert doc[name] == want[name], name
        assert result.extras["mem_peaks"] == oracle.extras["mem_peaks"]


#: The cells of a default run at p=48 x 2000 that do not sort, and what
#: they die of: ptf's duplicate wall on one rank of the baselines with
#: no skew handling (the paper's OOM), and bitonic's power-of-two p.
DEFAULT_RUN_FAILURES = {
    **{(a, "ptf"): "SimOOMError" for a in ("hyksort", "psrs", "radix")},
    **{("bitonic", w): "ValueError" for w in ("uniform", "zipf", "ptf")}}


@pytest.mark.parametrize("backend", ["flat", "thread"])
def test_every_algorithm_runs_with_its_defaults(backend):
    # no overrides: the paper's algorithm sorts every workload, and a
    # baseline fails only where the paper says it does
    from repro.runner import ALGORITHMS

    for algorithm in sorted(ALGORITHMS):
        for workload in ("uniform", "zipf", "ptf"):
            r = run_sort(algorithm, by_name(workload), p=48, n_per_rank=2000,
                         backend=backend)
            want = DEFAULT_RUN_FAILURES.get((algorithm, workload))
            got = None if r.ok else r.failure.split(": ", 1)[1].split("(")[0]
            assert got == want, (algorithm, workload, r.failure)


class TestLeaseAccounting:
    """``stats()["pools"]``: every job that reached a worker, a miss if
    the engine's pool had to start rank threads for it."""

    def test_all_flat_stream_is_all_hits(self, fresh_pool):
        with ServiceClient(workers=1) as c:
            for seed, backend in enumerate(("auto", "flat", "auto", "auto")):
                assert c.run(JobSpec(p=8, n_per_rank=100, seed=seed,
                                     backend=backend))["status"] == "done"
            assert c.stats()["pools"] == {"hits": 4, "misses": 0}
        assert engine._default_pool is None  # no rank thread started

    def test_thread_job_builds_one_pool_then_reuses_it(self, fresh_pool):
        spec = JobSpec(p=8, n_per_rank=100, backend="thread")
        with ServiceClient(workers=1) as c:
            c.run(JobSpec(p=8, n_per_rank=100))
            assert engine._default_pool is None
            c.run(spec)
            assert c.stats()["pools"] == {"hits": 1, "misses": 1}
            c.run(spec)
            assert c.stats()["pools"] == {"hits": 2, "misses": 1}
        assert engine._default_pool.size == 8

    def test_mixed_concurrent_stream_counts_every_lease(self, fresh_pool):
        threads_before = threading.active_count()
        svc = SortService(workers=2)
        try:
            jobs = [svc.submit(JobSpec(
                p=8, n_per_rank=100 + s, seed=s,
                backend="thread" if s % 3 == 0 else "auto"))
                for s in range(12)]
            assert svc.drain(timeout=60)
            assert [j.status for j in jobs] == ["done"] * 12
            stats = svc.stats()
            pools = stats["pools"]
            assert pools["hits"] + pools["misses"] == 12
            # only thread jobs start threads, and overlapping ones may
            # each see the pool grow
            assert 1 <= pools["misses"] <= 4
            assert stats["admission"]["committed_bytes"] == 0
            assert (stats["queued"], stats["running"]) == (0, 0)
        finally:
            svc.close()
        # no leak: what is left is the engine pool's rank threads
        assert threading.active_count() == \
            threads_before + engine._default_pool.size

    def test_fresh_daemon_renders_without_leases(self, capsys, daemon):
        assert main(["submit", "--socket", daemon, "--stats"]) == 0
        pools = json.loads(capsys.readouterr().out)["pools"]
        assert pools == {"hits": 0, "misses": 0}
        assert main(["top", "--socket", daemon, "--iterations", "1"]) == 0
        frame = capsys.readouterr().out
        assert "committed: 0 B of" in frame and "pools" not in frame
