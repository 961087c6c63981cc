"""Self-checks of the ledger on ``--quick`` shapes: ``pytest benchmarks/ledger``.

Not part of tier-1 (``testpaths = ["tests"]``); they guard the
instrument, not the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as ledger  # noqa: E402
import shapes  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SECONDS = 0.5


@pytest.fixture(scope="module")
def untraced():
    return {name: ledger.measure(name, 0, SECONDS, 0, quick=True)
            for name in shapes.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: ledger.measure(name, 0, SECONDS, 1, quick=True)
            for name in shapes.WORKLOADS}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(shapes.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("kind,fixture", [("end_to_end", "untraced"),
                                          ("per_layer", "traced")])
def test_every_named_metric_is_emitted_with_its_unit(kind, fixture, request):
    runs = request.getfixturevalue(fixture)
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for name, run in runs.items():
        metrics = run["result"]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == units, name
        assert run["result"]["correct"] and run["result"]["failed"] == 0
    if kind == "end_to_end":
        assert all(m["value"] > 0 for run in runs.values()
                   for m in run["result"]["metrics"].values())
    else:
        # ... and vice versa: no per-layer name is declared but never measured
        measured = {k for run in runs.values()
                    for k, m in run["result"]["metrics"].items() if m["value"]}
        assert measured == set(units)


def test_exact_counts_repeat(traced):
    again = ledger.measure("wide_sds", 0, SECONDS, 1, quick=True)
    exact = ("engine.py_calls_per_rank", "mpi.collective_calls",
             "workloads.shard_calls", "sim.elapsed_s", "sim.bytes_sent",
             "sim.messages", "sim.rdfa", "sim.max_load_over_avg",
             "sim.mem_peak_max_bytes")
    first = traced["wide_sds"]["result"]["metrics"]
    for name in exact:
        assert again["result"]["metrics"][name] == first[name], name
    assert first["engine.py_calls_per_rank"]["value"] > 0
    assert first["ledger.span_coverage"]["value"] >= 0.9


def test_digests_are_recorded_and_repeat(untraced, traced):
    for name in ("wide_sds", "deep_skew", "lane_thread"):
        a, b = untraced[name]["digests"], traced[name]["digests"]
        shared = set(a) & set(b)
        assert shared and all(a[g] == b[g] for g in shared)


def test_invalid_spec_is_one_failed_job():
    spec = {**shapes.WORKLOADS["wide_sds"].spec(0, quick=True),
            "algorithm": "bogosort"}
    rec, _ = worker.engine_job(0, spec, None)
    assert rec["reason"] and "bogosort" in rec["reason"]


def test_digest_mismatch_is_one_failed_job(monkeypatch):
    spec = shapes.WORKLOADS["deep_skew"].spec(3, quick=True)
    good, _ = worker.engine_job(3, spec, None)
    assert good["reason"] is None
    same, _ = worker.engine_job(3, spec, good["digest"])
    assert same["reason"] is None
    bad, _ = worker.engine_job(3, spec, "0" * shapes.DIGEST_HEX)
    assert "sim digest" in bad["reason"]

    def one_bad_round(*a, **k):
        return {"setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 10.0, "pinned_cpu": None, "host_speed": 1.0,
                "jobs": [good, same, bad]}

    monkeypatch.setattr(ledger, "run_worker", one_bad_round)
    run = ledger.measure("deep_skew", 3, 1.0, 0, quick=True)
    assert run["result"]["attempted"] == 3
    assert run["result"]["failed"] == 1
    assert not run["result"]["correct"]


def test_load_bound_violation_fails_the_job():
    spec = shapes.WORKLOADS["lane_thread"].spec(0)
    doc = {"ok": True, "rdfa": 4.5, "crashed_ranks": None}
    reason, _ = shapes.verdict(spec, doc, None)
    assert "load bound" in reason


def test_daemon_shuts_down_clean():
    w = shapes.WORKLOADS["svc_mixed"]
    with worker.run_dir() as rundir:
        daemon = worker.Daemon(rundir)
        try:
            jobs = worker.closed_loop(daemon, w, 0, True, {}, count=12)
            problems = daemon.drain()
        finally:
            daemon.kill()
        assert [j["g"] for j in jobs] == list(range(12))
        assert all(j["reason"] is None for j in jobs)
        assert problems == []          # exit 0, socket gone, submitted == done
        assert daemon.proc.returncode == 0
        assert not Path(daemon.sock).exists()
    assert not rundir.exists()


def test_compare_flags_digest_change(tmp_path, untraced):
    import compare

    base = {"runs": [untraced["wide_sds"]]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(base))
    assert compare.main([str(a), str(a)]) == 0
    changed = json.loads(json.dumps(base))
    g = next(iter(changed["runs"][0]["digests"]))
    changed["runs"][0]["digests"][g] = "f" * shapes.DIGEST_HEX
    b = tmp_path / "b.json"
    b.write_text(json.dumps(changed))
    assert compare.main([str(a), str(b)]) == 1
