"""The shared experiment runner."""

import math

import pytest

from repro.machine import LAPTOP
from repro.records import RecordBatch
from repro.runner import ALGORITHMS, run_sort
from repro.service import JobSpec, estimate_job_bytes
from repro.workloads import Workload, uniform, zipf


def _vector_batch(n, rng):
    return RecordBatch(rng.random(n), {"vec": rng.random((n, 3))})


def test_a_two_dimensional_column_is_sized_in_full(monkeypatch):
    # 8-byte key, a (n, 3) float64 column, 12 provenance bytes: sized at
    # 8 + 8 + 12 the shard and a receive buffer outgrew the capacity and
    # admission's estimate fell short of the engine's peak
    wl, n, p = Workload("vector", _vector_batch), 64, 16
    r = run_sort("sds", wl, n_per_rank=n, p=p, mem_factor=3.0)
    assert r.ok, r.failure
    assert r.record_bytes == 8 + 24 + 12
    monkeypatch.setattr(JobSpec, "build_workload", lambda self: wl)
    spec = JobSpec(algorithm="sds", workload="uniform", p=p, n_per_rank=n,
                   mem_factor=None)
    assert estimate_job_bytes(spec) >= sum(r.extras["mem_peaks"])


class TestRunSort:
    def test_all_algorithms_listed(self):
        assert set(ALGORITHMS) == {
            "sds", "sds-stable", "psrs", "hyksort", "hyksort-sk",
            "bitonic", "radix",
        }

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            run_sort("quantum", uniform(), n_per_rank=10, p=2)

    def test_successful_run(self):
        r = run_sort("sds", uniform(), n_per_rank=200, p=4, machine=LAPTOP,
                     algo_opts={"node_merge_enabled": False})
        assert r.ok and not r.oom
        assert sum(r.loads) == 800
        assert r.elapsed > 0
        assert r.rdfa >= 1.0
        assert r.throughput_tb_min > 0
        assert "local_sort" in r.phase_times

    def test_oom_run_reports_infinite_rdfa(self):
        r = run_sort("hyksort", zipf(2.1), n_per_rank=800, p=16,
                     machine=LAPTOP)
        assert not r.ok and r.oom
        assert math.isinf(r.rdfa)
        assert r.throughput_tb_min == 0.0
        assert "SimOOMError" in r.failure

    def test_mem_factor_none_disables_oom(self):
        r = run_sort("hyksort", zipf(1.4), n_per_rank=800, p=16,
                     machine=LAPTOP, mem_factor=None)
        assert r.ok

    def test_keep_outputs(self):
        r = run_sort("psrs", uniform(), n_per_rank=50, p=2, keep_outputs=True)
        assert r.outputs is not None and len(r.outputs) == 2

    def test_outputs_dropped_by_default(self):
        r = run_sort("psrs", uniform(), n_per_rank=50, p=2)
        assert r.outputs is None

    def test_stable_algorithm_validated(self):
        r = run_sort("sds-stable", zipf(1.4), n_per_rank=300, p=4,
                     algo_opts={"node_merge_enabled": False})
        assert r.ok

    def test_total_bytes(self):
        r = run_sort("sds", uniform(), n_per_rank=100, p=2,
                     algo_opts={"node_merge_enabled": False})
        assert r.total_bytes == 100 * 2 * r.record_bytes

    def test_seed_determinism(self):
        a = run_sort("sds", zipf(0.9), n_per_rank=200, p=4, seed=5,
                     algo_opts={"node_merge_enabled": False})
        b = run_sort("sds", zipf(0.9), n_per_rank=200, p=4, seed=5,
                     algo_opts={"node_merge_enabled": False})
        assert a.loads == b.loads
        assert a.elapsed == b.elapsed
