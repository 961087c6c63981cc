"""Observability subsystem: tracer, report, export, reconciliation.

The contract under test, in order of importance:

1. **zero interference** — tracing on/off never moves a virtual clock
   or a result;
2. **determinism** — the exported trace is byte-identical across runs
   and across thread-pool reuse (spans are virtual-time, so no host
   nondeterminism may leak in);
3. **reconciliation** — the cost-split buckets account for every
   clock advance, and the phase spans tile the SDS timeline;
4. **valid export** — the Chrome/Perfetto trace-event JSON loads and
   passes the strict validator.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.faults import FaultSpec, MessageFaults, StragglerFault
from repro.metrics import observed_input_bytes, tb_per_min_observed
from repro.obs import (
    COST_COUNTERS,
    SPAN_CATEGORIES,
    TraceReport,
    Tracer,
    diff_traces,
    load_trace,
    summarize_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import to_chrome_trace
from repro.viz import comm_heat, phase_flame, rank_timeline
from repro.runner import run_sort
from repro.workloads import by_name

STRAGGLERS = FaultSpec(stragglers=(StragglerFault(count=2, slowdown=3.0),))
DROPS = FaultSpec(messages=MessageFaults(drop_rate=0.05))


def traced(algorithm="sds", p=16, n=300, workload="uniform", seed=3,
           faults=None, fault_seed=0, backend="auto", **opts):
    wl = by_name(workload)
    return run_sort(algorithm, wl, n_per_rank=n, p=p, seed=seed,
                    mem_factor=None, algo_opts=opts or None,
                    faults=faults, fault_seed=fault_seed, trace=True,
                    backend=backend)


class TestTracerUnit:
    def test_span_and_counter_storage(self):
        tr = Tracer(3)
        tr.span(0, "phase", "x", 0.0, 1.5)
        tr.span(np.array([1, 2]), "coll", "barrier", np.array([0.5, 0.25]),
                0.75, {"k": 1, "bytes": np.array([8, 16])})
        tr.instant(0, "fault", "crash", 0.25)
        tr.add(0, "cost.compute", 1.0)
        tr.add(np.array([0, 2]), "cost.compute", np.array([0.5, 2.0]))
        tr.add(np.array([1, 2]), "cost.wait", np.array([1.0, 4.0]),
               np.array([True, False]))
        tr.add(1, "cost.wait", 9.0, False)
        tr.add(np.array([0, 1]), "cost.latency", 1.0, np.array([False] * 2))
        assert len(tr.spans) == 2                 # one record a bracket
        assert tr.counters.rows() == [{"cost.compute": 1.5},
                                      {"cost.wait": 1.0},
                                      {"cost.compute": 2.0}]
        spans = tr.rank_spans()
        assert spans[0] == [(0.0, 1.5, "phase", "x", None)]
        assert spans[2] == [(0.25, 0.75, "coll", "barrier",
                             {"k": 1, "bytes": 16})]
        assert tr.rank_instants() == [[(0.25, "fault", "crash", None)],
                                      [], []]

    def test_edge_matrix(self):
        tr = Tracer(3)
        tr.edge(0, 2, 100)
        tr.edge(0, 2, 50)
        tr.edge(1, np.arange(3), np.array([1, 2, 3]))
        tr.edge(np.array([[2], [0]]), np.array([0, 1]), np.array([5, 7]))
        m = tr.edge_matrix()
        assert m.tolist() == [[5, 7, 150], [1, 2, 3], [5, 7, 0]]
        rep = TraceReport.from_run(tr, clocks=[0.0] * 3)
        src, dst, nbytes = rep.comm_edges()
        assert np.array_equal(m[src, dst], nbytes)
        assert int((m > 0).sum()) == nbytes.size
        assert rep.comm_totals() == {"total_bytes": 180, "wire_bytes": 173,
                                     "max_edge_bytes": 150, "edges_used": 8}

    def test_taxonomy_constants(self):
        assert "cost.compute" in COST_COUNTERS
        assert "cost.fault_debt" in COST_COUNTERS
        assert set(SPAN_CATEGORIES) == {"phase", "coll", "p2p"}


def _counting(method, calls: Counter):
    def hook(self, *args, **kw):
        calls[method.__name__] += 1
        return method(self, *args, **kw)
    return hook


class TestTracerCost:
    """The tracer stores what the engine stores: its hooks are one
    statement a membership, and no (p, p) array is built unless asked."""

    @pytest.mark.parametrize("algorithm", ["psrs", "sds"])
    def test_tracer_calls_do_not_grow_with_p(self, algorithm, monkeypatch):
        calls: Counter = Counter()
        for name in ("span", "instant", "add", "collective", "overlapped",
                     "edge"):
            monkeypatch.setattr(Tracer, name,
                                _counting(getattr(Tracer, name), calls))
        seen = []
        for p in (256, 2048):
            calls.clear()
            r = run_sort(algorithm, by_name("uniform"), p=p, n_per_rank=64,
                         backend="flat", mem_factor=None, trace=True)
            assert r.ok
            seen.append(dict(calls))
        assert seen[0] and seen[0] == seen[1]

    def test_a_traced_run_holds_no_dense_matrix(self):
        p = 4096

        def peak(trace: bool) -> int:
            tracemalloc.start()
            try:
                r = run_sort("psrs", by_name("uniform"), p=p, n_per_rank=16,
                             backend="flat", mem_factor=None, trace=trace)
                assert r.ok
                if trace:
                    assert r.extras["trace"].summary()["comm"]["total_bytes"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_sort("psrs", by_name("uniform"), p=64, n_per_rank=16,
                 backend="flat", mem_factor=None, trace=True)  # warm caches
        plain = peak(False)
        assert peak(True) < plain + p * p * 8 // 4


class TestZeroInterference:
    @pytest.mark.parametrize("algorithm", ["sds", "sds-stable", "psrs",
                                           "hyksort", "bitonic", "radix"])
    def test_clocks_identical_on_off(self, algorithm):
        wl = by_name("zipf")
        for backend in ("flat", "thread"):  # one id: the floor compares ids
            kw = dict(n_per_rank=250, p=8, seed=5, mem_factor=None,
                      backend=backend)
            off = run_sort(algorithm, wl, **kw)
            on = run_sort(algorithm, wl, **kw, trace=True)
            assert off.elapsed == on.elapsed, backend
            assert off.phase_times == on.phase_times, backend
            assert off.loads == on.loads, backend

    def test_clocks_identical_under_faults(self):
        wl = by_name("uniform")
        kw = dict(n_per_rank=250, p=16, seed=2, mem_factor=None,
                  faults=DROPS, fault_seed=4)
        off = run_sort("sds", wl, **kw)
        on = run_sort("sds", wl, **kw, trace=True)
        assert off.elapsed == on.elapsed
        assert off.extras["faults"] == on.extras["faults"]


class TestDeterminism:
    def _export(self, tmp_path, name, **kw):
        r = traced(**kw)
        path = tmp_path / name
        write_chrome_trace(r.extras["trace"], path)
        return path.read_bytes()

    def test_identical_across_runs(self, tmp_path):
        a = self._export(tmp_path, "a.json")
        b = self._export(tmp_path, "b.json")
        assert a == b

    def test_identical_across_pool_reuse(self, tmp_path):
        a = self._export(tmp_path, "a.json", p=16, backend="thread")
        # interleave differently-shaped worlds so the exported run
        # re-uses pool threads warmed by other programs
        traced(algorithm="psrs", p=32, n=100, backend="thread")
        traced(algorithm="sds-stable", p=8, n=200, backend="thread")
        b = self._export(tmp_path, "b.json", p=16, backend="thread")
        assert a == b

    def test_identical_under_chaos(self, tmp_path):
        kw = dict(faults=DROPS, fault_seed=4, p=16)
        a = self._export(tmp_path, "a.json", **kw)
        b = self._export(tmp_path, "b.json", **kw)
        assert a == b

    @pytest.mark.parametrize("algorithm", ["sds", "psrs"])
    def test_as_dict_of_thread_runs_hashes_equal(self, algorithm):
        # rank threads book host seconds waited (HOST_COUNTERS) into the
        # engine counters: the dump must leave them out
        def digest():
            rep = traced(algorithm=algorithm, p=16, backend="thread")
            assert any(c.get("coll.sync_wait")
                       for c in rep.extras["trace"].engine_counters)
            blob = json.dumps(rep.extras["trace"].as_dict(), sort_keys=True)
            return hashlib.sha256(blob.encode()).hexdigest()

        assert digest() == digest()


class TestReconciliation:
    @pytest.mark.parametrize("algorithm", ["sds", "sds-stable", "psrs",
                                           "radix"])
    def test_cost_and_phase_tile_the_clock(self, algorithm):
        rep = traced(algorithm=algorithm).extras["trace"]
        rec = rep.reconcile()
        assert rec["max_cost_gap"] < 1e-9
        assert rec["max_phase_gap"] < 1e-9

    @pytest.mark.parametrize("algorithm", ["hyksort", "bitonic"])
    def test_cost_reconciles_even_without_phase_tiling(self, algorithm):
        rep = traced(algorithm=algorithm).extras["trace"]
        # the cost buckets must always account for every clock advance;
        # phase coverage < 1 is allowed for non-SDS pipelines
        assert rep.reconcile()["max_cost_gap"] < 1e-9

    def test_cost_reconciles_under_faults(self):
        rep = traced(faults=STRAGGLERS, fault_seed=1).extras["trace"]
        rec = rep.reconcile()
        assert rec["max_cost_gap"] < 1e-9
        split = rep.cost_split()
        assert split["cost.fault_debt"] > 0.0   # stragglers left debt

    def test_phase_breakdown_matches_engine(self):
        r = traced()
        bd = r.extras["trace"].phase_breakdown()
        assert set(bd) == set(r.phase_times)
        for name, t in bd.items():
            assert abs(t - r.phase_times[name]) < 1e-12

    def test_critical_path_covers_sds_makespan(self):
        cp = traced().extras["trace"].critical_path()
        assert abs(cp["coverage"] - 1.0) < 1e-6
        assert sum(s["share"] for s in cp["steps"]) == pytest.approx(1.0)


class TestExport:
    def test_p64_chrome_trace_is_valid(self, tmp_path):
        r = traced(p=64, n=200)
        path = tmp_path / "p64.json"
        write_chrome_trace(r.extras["trace"], path)
        obj = load_trace(path)
        assert validate_chrome_trace(obj) == []
        events = obj["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == set(range(64))
        # every phase produced at least one complete event
        names = {e["name"] for e in events
                 if e["ph"] == "X" and e["tid"] == 0}
        assert names == set(r.phase_times)

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        assert validate_chrome_trace([42])

    def test_summarize_and_diff(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(traced(p=8).extras["trace"], a)
        write_chrome_trace(traced(p=8, workload="zipf").extras["trace"], b)
        assert any("phases" in line for line in summarize_trace(a))
        assert any("elapsed" in line or "sim" in line
                   for line in diff_traces(a, b))

    def test_sdssort_digest_embedded(self, tmp_path):
        rep = traced(p=8).extras["trace"]
        obj = to_chrome_trace(rep)
        assert obj["sdssort"]["p"] == 8
        assert obj["sdssort"]["reconciliation"]["max_cost_gap"] < 1e-9


class TestFaultAnnotations:
    def test_straggler_markers(self):
        rep = traced(faults=STRAGGLERS, fault_seed=1).extras["trace"]
        markers = rep.fault_markers()
        assert len(markers) == 2
        assert all(m["name"] == "straggler" for m in markers)
        assert all(m["args"]["slowdown"] == 3.0 for m in markers)

    def test_drop_markers_in_export(self, tmp_path):
        r = traced(faults=DROPS, fault_seed=4, p=16,
                   node_merge_enabled=False)
        rep = r.extras["trace"]
        assert rep.fault_markers(), "drop config injected nothing"
        obj = to_chrome_trace(rep)
        instants = [e for e in obj["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(rep.fault_markers())


class TestThroughputCrossCheck:
    @pytest.mark.parametrize("workload", ["uniform", "graysort"])
    def test_observed_equals_estimated(self, workload):
        r = traced(workload=workload, p=8)
        rep = r.extras["trace"]
        assert observed_input_bytes(rep) == r.total_bytes
        assert tb_per_min_observed(rep) == pytest.approx(
            r.throughput_tb_min, rel=1e-12)

    def test_observed_requires_counters(self):
        empty = TraceReport.from_run(Tracer(2), clocks=[1.0, 1.0])
        with pytest.raises(ValueError):
            observed_input_bytes(empty)


class TestViz:
    def test_renderings_smoke(self):
        rep = traced().extras["trace"]
        flame = phase_flame(rep)
        assert "exchange" in flame and "critical" in flame
        heat = comm_heat(rep)
        assert "bytes sent" in heat
        assert rank_timeline(rep)

    def test_comm_heat_tiles_large_worlds(self):
        rep = traced(p=64, n=100).extras["trace"]
        assert "64 ranks" in comm_heat(rep)


class TestRunnerSurface:
    def test_extras_trace_present_only_when_asked(self):
        wl = by_name("uniform")
        r = run_sort("sds", wl, n_per_rank=200, p=4, mem_factor=None)
        assert "trace" not in r.extras
        r = run_sort("sds", wl, n_per_rank=200, p=4, mem_factor=None,
                     trace=True)
        rep = r.extras["trace"]
        assert isinstance(rep, TraceReport)
        assert rep.meta["algorithm"] == "sds"
        assert rep.meta["p"] == 4

    def test_as_dict_round_trips_through_json(self):
        rep = traced(p=4, n=100).extras["trace"]
        dumped = json.dumps(rep.as_dict(), sort_keys=True)
        assert json.loads(dumped)["summary"]["p"] == 4
