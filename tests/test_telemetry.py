"""The telemetry layer: registry, rollup, scrape, and determinism.

Three contracts under test:

* the registry's primitives behave (counters only go up, label
  domains are enforced, histograms bucket and interpolate correctly)
  and its snapshot / Prometheus serialisations are deterministic;
* the service's metrics reconcile exactly with job outcomes
  (``submitted == done + failed + cancelled + timeout + rejected``)
  and two identical job streams produce identical asserted snapshot
  fields — counters, gauges, rollup, histogram *counts* (sums are
  wall clock and never asserted);
* telemetry is observational only: with it off the service produces
  bit-identical result documents and ``metrics`` scrapes fail typed.
"""

import json
import math
import threading
from io import StringIO
from types import SimpleNamespace

import pytest

from repro.cli import top_lines
from repro.obs import (
    CostRollup,
    MetricError,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.tracer import COST_COUNTERS
from repro.service import (
    JobSpec,
    ServiceClient,
    SortService,
    comparable,
    estimate_job_bytes,
    metrics_doc,
)
from repro.service.daemon import handle_request
from repro.service.slog import configure_logging, log_event, service_logger

# ----------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------


class TestCounter:
    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_refused(self):
        c = MetricsRegistry().counter("c_total", "help")
        with pytest.raises(MetricError, match="only go up"):
            c.inc(-1)

    def test_label_children_are_independent(self):
        c = MetricsRegistry().counter("c_total", "help", labels=("k",))
        c.labels(k="a").inc()
        c.labels(k="a").inc()
        c.labels(k="b").inc()
        assert c.labels(k="a").value == 2
        assert c.labels(k="b").value == 1

    def test_labelled_metric_refuses_bare_use(self):
        c = MetricsRegistry().counter("c_total", "help", labels=("k",))
        with pytest.raises(MetricError, match="requires labels"):
            c.inc()

    def test_wrong_label_names_refused(self):
        c = MetricsRegistry().counter("c_total", "help", labels=("k",))
        with pytest.raises(MetricError, match="expected labels"):
            c.labels(wrong="x")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g", "help")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_bucketing_and_count(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(1.0, 5.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        child = h._default_child()
        assert child.bucket_counts == [2, 1, 1]  # <=1, <=5, +Inf
        assert child.count == 4
        assert child.sum == pytest.approx(104.5)

    def test_quantile_interpolates(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(10.0, 20.0))
        for _ in range(4):
            h.observe(5.0)     # all land in the (0, 10] bucket
        # target = 0.5 * 4 = 2 of 4 observations -> halfway into bucket
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_quantile_inf_winner_clamps_to_top_edge(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(10.0,))
        h.observe(999.0)
        assert h.quantile(0.99) == 10.0

    def test_quantile_empty_is_zero(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(10.0,))
        assert h.quantile(0.5) == 0.0

    def test_quantile_out_of_range_refused(self):
        h = MetricsRegistry().histogram("h", "help", buckets=(10.0,))
        with pytest.raises(MetricError, match="outside"):
            h.quantile(1.5)

    @pytest.mark.parametrize("bad", [(), (3.0, 1.0), (1.0, 1.0),
                                     (float("inf"),)])
    def test_bad_buckets_refused(self, bad):
        with pytest.raises(MetricError, match="buckets"):
            MetricsRegistry().histogram("h", "help", buckets=bad)


class TestRegistry:
    def test_register_is_get_or_create(self):
        r = MetricsRegistry()
        a = r.counter("c_total", "help", labels=("k",))
        b = r.counter("c_total", "help", labels=("k",))
        assert a is b

    def test_kind_conflict_refused(self):
        r = MetricsRegistry()
        r.counter("m", "help")
        with pytest.raises(MetricError, match="already registered"):
            r.gauge("m", "help")

    def test_label_conflict_refused(self):
        r = MetricsRegistry()
        r.counter("m", "help", labels=("a",))
        with pytest.raises(MetricError, match="already registered"):
            r.counter("m", "help", labels=("b",))

    @pytest.mark.parametrize("bad", ["1abc", "with-dash", "", "sp ace"])
    def test_bad_names_refused(self, bad):
        with pytest.raises(MetricError, match="invalid"):
            MetricsRegistry().counter(bad, "help")

    def test_bad_label_name_refused(self):
        with pytest.raises(MetricError, match="invalid label"):
            MetricsRegistry().counter("m", "help", labels=("le-gal",))

    def test_duplicate_label_names_refused(self):
        with pytest.raises(MetricError, match="duplicate"):
            MetricsRegistry().counter("m", "help", labels=("a", "a"))

    def test_get(self):
        r = MetricsRegistry()
        c = r.counter("m", "help")
        assert r.get("m") is c
        assert r.get("absent") is None


def _build_registry(event_order):
    """One registry with a fixed catalog; events applied in order."""
    r = MetricsRegistry()
    c = r.counter("jobs_total", "jobs", labels=("state",))
    g = r.gauge("depth", "queue depth")
    h = r.histogram("wait_ms", "wait", buckets=(1.0, 10.0))
    for kind, arg in event_order:
        if kind == "job":
            c.labels(state=arg).inc()
        elif kind == "depth":
            g.set(arg)
        else:
            h.observe(arg)
    return r


class TestSnapshot:
    EVENTS = [("job", "done"), ("job", "failed"), ("job", "done"),
              ("depth", 3), ("wait", 0.5), ("wait", 7.0), ("depth", 1)]

    def test_snapshot_is_order_independent(self):
        a = _build_registry(self.EVENTS)
        # a different interleaving of the same event multiset (the
        # gauge keeps its last write, so preserve relative depth order)
        shuffled = [self.EVENTS[i] for i in (4, 1, 3, 0, 5, 2, 6)]
        b = _build_registry(shuffled)
        assert a.snapshot() == b.snapshot()

    def test_snapshot_rows_are_sorted(self):
        r = _build_registry(self.EVENTS)
        names = [(row["name"], tuple(row["labels"].values()))
                 for row in r.snapshot()["counters"]]
        assert names == sorted(names)

    def test_snapshot_is_json_clean_with_int_rendering(self):
        snap = _build_registry(self.EVENTS).snapshot()
        text = json.dumps(snap, sort_keys=True)
        assert json.loads(text) == snap
        done = next(row for row in snap["counters"]
                    if row["labels"] == {"state": "done"})
        assert done["value"] == 2 and isinstance(done["value"], int)

    def test_histogram_snapshot_shape(self):
        snap = _build_registry(self.EVENTS).snapshot()
        (h,) = snap["histograms"]
        assert h["name"] == "wait_ms"
        assert [b["le"] for b in h["buckets"]] == [1.0, 10.0, "+Inf"]
        assert [b["count"] for b in h["buckets"]] == [1, 1, 0]
        assert h["count"] == 2


# ----------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------


class TestPrometheus:
    def test_render_families_and_samples(self):
        r = _build_registry(TestSnapshot.EVENTS)
        text = render_prometheus(r)
        assert "# HELP jobs_total jobs\n# TYPE jobs_total counter" in text
        assert 'jobs_total{state="done"} 2' in text
        assert "depth 3" not in text and "depth 1" in text
        # histogram buckets are cumulative and carry sum/count series
        assert 'wait_ms_bucket{le="1"} 1' in text
        assert 'wait_ms_bucket{le="10"} 2' in text
        assert 'wait_ms_bucket{le="+Inf"} 2' in text
        assert "wait_ms_sum 7.5" in text
        assert "wait_ms_count 2" in text

    def test_escaping(self):
        r = MetricsRegistry()
        r.counter("m_total", 'line\nbreak \\ slash',
                  labels=("k",)).labels(k='a"b\\c\nd').inc()
        text = render_prometheus(r)
        assert r"# HELP m_total line\nbreak \\ slash" in text
        assert r'm_total{k="a\"b\\c\nd"} 1' in text
        fams = parse_prometheus(text)
        assert fams["m_total"]["help"] == 'line\nbreak \\ slash'
        (_, labels, value) = fams["m_total"]["samples"][0]
        assert labels == {"k": 'a"b\\c\nd'} and value == 1

    def test_parse_round_trip_matches_snapshot(self):
        r = _build_registry(TestSnapshot.EVENTS)
        fams = parse_prometheus(render_prometheus(r))
        snap = r.snapshot()
        for row in snap["counters"]:
            assert (row["name"], row["labels"], float(row["value"])) \
                in fams[row["name"]]["samples"]
        assert fams["depth"]["type"] == "gauge"
        assert fams["depth"]["samples"] == [("depth", {}, 1.0)]
        # histogram series fold into their family
        wait = fams["wait_ms"]
        assert wait["type"] == "histogram"
        got = {(n, lab.get("le")): v for n, lab, v in wait["samples"]}
        assert got[("wait_ms_bucket", "1")] == 1
        assert got[("wait_ms_bucket", "+Inf")] == 2
        assert got[("wait_ms_count", None)] == 2

    def test_unparseable_line_refused(self):
        with pytest.raises(MetricError, match="unparseable"):
            parse_prometheus("!! not exposition format")


# ----------------------------------------------------------------
# cross-job cost rollup
# ----------------------------------------------------------------


def _fake_report(elapsed, compute, wait, phases):
    """A TraceReport stand-in: fold() only touches these members."""
    split = {k: 0.0 for k in COST_COUNTERS}
    split["cost.compute"] = compute
    split["cost.wait"] = wait
    return SimpleNamespace(
        elapsed=elapsed,
        cost_split=lambda: dict(split),
        phase_stats=lambda: [
            SimpleNamespace(name=name, total_seconds=tot, max_seconds=mx)
            for name, tot, mx in phases])


def _fold(rollup, jobs):
    for spec_kw, report in jobs:
        rollup.fold(report=report, **spec_kw)


_ROLLUP_JOBS = [
    ({"algorithm": "sds", "workload": "uniform", "backend": "thread",
      "p": 8, "n_per_rank": 100, "seed": s, "fault_seed": 0},
     _fake_report(1.0 + 0.1 * s, 0.7, 0.3,
                  [("local_sort", 0.6, 0.2), ("exchange", 0.4, 0.15)]))
    for s in range(3)
] + [
    ({"algorithm": "psrs", "workload": "zipf", "backend": "flat",
      "p": 16, "n_per_rank": 200, "seed": 0, "fault_seed": 7},
     _fake_report(2.5, 1.5, 1.0, [("exchange", 2.0, 0.9)])),
]


class TestCostRollup:
    def test_fold_order_is_irrelevant(self):
        a, b = CostRollup(), CostRollup()
        _fold(a, _ROLLUP_JOBS)
        _fold(b, list(reversed(_ROLLUP_JOBS)))
        assert a.snapshot() == b.snapshot()

    def test_totals_are_exact_fsums(self):
        rollup = CostRollup()
        _fold(rollup, _ROLLUP_JOBS)
        snap = rollup.snapshot()
        assert snap["traced_jobs"] == 4 and snap["dropped"] == 0
        assert snap["totals"]["elapsed"] == math.fsum(
            rep.elapsed for _, rep in _ROLLUP_JOBS)
        for k in COST_COUNTERS:
            assert snap["totals"]["cost"][k] == math.fsum(
                rep.cost_split()[k] for _, rep in _ROLLUP_JOBS)

    def test_groups_and_shares(self):
        rollup = CostRollup()
        _fold(rollup, _ROLLUP_JOBS)
        snap = rollup.snapshot()
        assert [(g["algorithm"], g["workload"], g["jobs"])
                for g in snap["groups"]] == \
            [("psrs", "zipf", 1), ("sds", "uniform", 3)]
        for g in snap["groups"]:
            assert math.fsum(ph["share"] for ph in g["phases"]) == \
                pytest.approx(1.0)

    def test_overflow_counts_dropped(self):
        rollup = CostRollup(max_jobs=2)
        _fold(rollup, _ROLLUP_JOBS)
        snap = rollup.snapshot()
        assert snap["traced_jobs"] == 4 and snap["dropped"] == 2
        assert sum(g["jobs"] for g in snap["groups"]) == 2


# ----------------------------------------------------------------
# service integration
# ----------------------------------------------------------------


def _counter_sum(doc, name, **labels):
    """Sum of a counter's samples matching a label subset."""
    want = {k: str(v) for k, v in labels.items()}
    return sum(row["value"] for row in doc["counters"]
               if row["name"] == name
               and all(row["labels"].get(k) == v for k, v in want.items()))


def _hist_counts(doc):
    """The deterministic histogram fields: observation totals only.

    Bucket distribution and ``sum`` are wall clock (a job lands in
    whichever latency bucket this run happened to take) — never
    asserted; the observation *count* is one per lifecycle event.
    """
    return [(h["name"], tuple(sorted(h["labels"].items())), h["count"])
            for h in doc["histograms"]]


def _big_spec():
    """A spec whose estimate alone exceeds the default memory budget."""
    from repro.service.admission import DEFAULT_MEM_BUDGET

    spec = JobSpec(p=128, n_per_rank=1_000_000)
    assert estimate_job_bytes(spec) > DEFAULT_MEM_BUDGET
    return spec


class TestCounterReconciliation:
    """submitted == done + failed + cancelled + timeout + rejected,
    outcome by outcome, after a stream exercising every terminal state
    the scheduler can reach without races."""

    @pytest.fixture(scope="class")
    def doc(self):
        svc = SortService(workers=1)
        try:
            # occupies the single worker long enough to time out:
            # this shape runs for seconds, the deadline fires at 0.5
            svc.submit(JobSpec(p=16, n_per_rank=600_000), timeout_s=0.5)
            done = svc.submit(JobSpec(p=8, n_per_rank=200, seed=1))
            victim = svc.submit(JobSpec(p=8, n_per_rank=200, seed=2))
            svc.cancel(victim.id)
            svc.submit({"algorithm": "nope"})           # invalid
            svc.submit(_big_spec())                     # over-budget
            traced = svc.submit(JobSpec(p=8, n_per_rank=300, seed=3,
                                        trace=True))
            assert svc.drain(timeout=120)
            assert done.status == "done" and traced.status == "done"
            return metrics_doc(svc)
        finally:
            svc.close()

    def test_submissions_reconcile_with_terminal_states(self, doc):
        submitted = _counter_sum(doc, "sdssort_jobs_submitted_total")
        assert submitted == 6
        assert _counter_sum(doc, "sdssort_jobs_total") == submitted
        by_state = {s: _counter_sum(doc, "sdssort_jobs_total", state=s)
                    for s in ("done", "failed", "rejected", "cancelled",
                              "timeout")}
        assert by_state == {"done": 2, "failed": 0, "rejected": 2,
                            "cancelled": 1, "timeout": 1}

    def test_admission_decisions_reconcile(self, doc):
        assert _counter_sum(doc, "sdssort_admission_decisions_total",
                            code="admitted") == 4
        assert _counter_sum(doc, "sdssort_admission_decisions_total",
                            code="invalid") == 1
        assert _counter_sum(doc, "sdssort_admission_decisions_total",
                            code="over-budget") == 1
        assert _counter_sum(doc, "sdssort_admission_decisions_total") == 6

    def test_runs_reconcile_with_outcomes(self, doc):
        assert _counter_sum(doc, "sdssort_runs_total", outcome="ok") == 2
        assert _counter_sum(doc, "sdssort_runs_total",
                            outcome="cancelled") == 1
        assert _counter_sum(doc, "sdssort_run_aborts_total",
                            cause="RunCancelled") == 1
        assert _counter_sum(doc, "sdssort_engine_cancels_total") == 1

    def test_gauges_zero_after_drain(self, doc):
        assert doc["state"] == "stopped"
        for row in doc["gauges"]:
            assert row["value"] == 0, row

    def test_histogram_counts_match_lifecycle(self, doc):
        by_name = {(h["name"], h["labels"]["priority"]): h["count"]
                   for h in doc["histograms"]}
        # three jobs started (timeout job started, then was cancelled
        # mid-run, so it has both a queue wait and a run latency)
        assert by_name[("sdssort_queue_wait_ms", "batch")] == 3
        assert by_name[("sdssort_run_ms", "batch")] == 3

    def test_rollup_folded_the_traced_job(self, doc):
        rollup = doc["rollup"]
        assert rollup["traced_jobs"] == 1
        (group,) = rollup["groups"]
        assert (group["algorithm"], group["workload"]) == \
            ("sds", "uniform")
        assert rollup["totals"]["elapsed"] > 0


def _det_stream():
    """Always-admitted mixed jobs with no cancels — the asserted
    snapshot fields must not depend on completion order."""
    stream = [JobSpec(algorithm=alg, backend=backend, p=8,
                      n_per_rank=150 + 50 * seed, seed=seed)
              for alg in ("sds", "psrs")
              for backend in ("thread", "flat")
              for seed in range(2)]
    stream.append(JobSpec(p=8, n_per_rank=250, seed=5, trace=True))
    stream.append(JobSpec(algorithm="sds-stable", workload="zipf",
                          workload_opts={"alpha": 1.1}, p=8,
                          n_per_rank=200, seed=6, trace=True))
    return stream


def _drained_doc(workers):
    svc = SortService(workers=workers)
    try:
        for spec in _det_stream():
            svc.submit(spec)
        assert svc.drain(timeout=120)
        return metrics_doc(svc)
    finally:
        svc.close()


class TestDeterminism:
    def test_identical_streams_identical_snapshots(self):
        a, b = _drained_doc(workers=1), _drained_doc(workers=1)
        assert a["counters"] == b["counters"]
        assert a["gauges"] == b["gauges"]
        assert a["rollup"] == b["rollup"]
        assert _hist_counts(a) == _hist_counts(b)

    def test_concurrency_does_not_move_asserted_fields(self):
        a, b = _drained_doc(workers=1), _drained_doc(workers=4)
        assert a["counters"] == b["counters"]
        assert a["gauges"] == b["gauges"]
        assert a["rollup"] == b["rollup"]
        assert _hist_counts(a) == _hist_counts(b)


class TestEngineBoundary:
    def test_worlds_and_runs_by_backend(self):
        with ServiceClient(workers=1) as c:
            assert c.run(JobSpec(p=8, n_per_rank=200, backend="thread",
                                 seed=1))["status"] == "done"
            assert c.run(JobSpec(p=8, n_per_rank=200, backend="flat",
                                 seed=2))["status"] == "done"
            doc = metrics_doc(c.service)
        assert _counter_sum(doc, "sdssort_engine_worlds_total",
                            backend="thread") == 1
        assert _counter_sum(doc, "sdssort_engine_worlds_total",
                            backend="flat") == 1
        assert _counter_sum(doc, "sdssort_runs_total", backend="thread",
                            outcome="ok") == 1
        assert _counter_sum(doc, "sdssort_runs_total", backend="flat",
                            outcome="ok") == 1

    def test_oom_outcome_and_cause(self):
        with ServiceClient(workers=1) as c:
            env = c.run(JobSpec(algorithm="hyksort", workload="zipf",
                                workload_opts={"alpha": 2.1},
                                p=16, n_per_rank=800))
            assert env["status"] == "failed" and env["result"]["oom"]
            doc = metrics_doc(c.service)
        assert _counter_sum(doc, "sdssort_runs_total", outcome="oom") == 1
        assert _counter_sum(doc, "sdssort_jobs_total", state="failed") == 1


class TestRollupIntegration:
    def test_rollup_sums_equal_traced_totals(self):
        specs = [JobSpec(p=8, n_per_rank=200 + 50 * s, seed=s, trace=True)
                 for s in range(3)]
        reports = [spec.run().extras["trace"] for spec in specs]
        with ServiceClient(workers=2) as c:
            for spec in specs:
                assert c.run(spec)["status"] == "done"
            rollup = metrics_doc(c.service)["rollup"]
        assert rollup["traced_jobs"] == len(specs)
        assert rollup["totals"]["elapsed"] == math.fsum(
            r.elapsed for r in reports)
        for k in COST_COUNTERS:
            assert rollup["totals"]["cost"][k] == math.fsum(
                r.cost_split()[k] for r in reports)


class TestTelemetryOff:
    def test_results_identical_with_and_without_telemetry(self):
        stream = _det_stream()
        with ServiceClient(workers=2) as on, \
                ServiceClient(workers=2, telemetry=False) as off:
            docs_on = [comparable(on.run(s)["result"]) for s in stream]
            docs_off = [comparable(off.run(s)["result"]) for s in stream]
        assert docs_on == docs_off

    def test_disabled_service_reports_it(self):
        with ServiceClient(telemetry=False) as c:
            c.run(JobSpec(p=4, n_per_rank=100))
            st = c.stats()
            assert st["telemetry"] is False and st["latency"] is None
            with pytest.raises(ValueError, match="telemetry is disabled"):
                metrics_doc(c.service)

    def test_enabled_stats_carry_latency_percentiles(self):
        with ServiceClient() as c:
            c.run(JobSpec(p=4, n_per_rank=100), priority="interactive")
            st = c.stats()
            assert st["telemetry"] is True
            lat = st["latency"]["interactive"]
            assert lat["queue_ms"]["count"] == 1
            assert lat["run_ms"]["count"] == 1
            assert lat["run_ms"]["p50"] <= lat["run_ms"]["p99"]


class TestRejectionPostHoc:
    """Satellite 2: a rejected job's envelope carries the full
    admission arithmetic — debuggable from the protocol alone."""

    def test_over_budget_arithmetic_in_status_and_result(self):
        svc = SortService(workers=1)
        try:
            job = svc.submit(_big_spec())
            for op in ("status", "result"):
                resp, _ = handle_request(svc, {"op": op,
                                               "job_id": job.id})
                adm = resp["job"]["admission"]
                assert adm["code"] == "over-budget"
                assert adm["admitted"] is False
                assert adm["estimated_bytes"] > adm["budget_bytes"]
                assert adm["committed_bytes"] == 0
                assert adm["headroom_bytes"] == adm["budget_bytes"]
                assert adm["queue_depth"] == 0
                assert "budget" in adm["reason"]
        finally:
            svc.close()

    def test_admitted_jobs_report_headroom(self):
        with ServiceClient(workers=1) as c:
            env = c.run(JobSpec(p=8, n_per_rank=200))
            adm = env["admission"]
            assert adm["code"] == "admitted"
            # an admitted decision snapshots the post-commit ledger
            assert adm["committed_bytes"] >= adm["estimated_bytes"]
            assert adm["headroom_bytes"] == \
                adm["budget_bytes"] - adm["committed_bytes"]


# ----------------------------------------------------------------
# protocol: the metrics op and the drain scrape
# ----------------------------------------------------------------


class TestMetricsProtocol:
    def test_metrics_op_json(self):
        with ServiceClient() as c:
            c.run(JobSpec(p=8, n_per_rank=200))
            resp, exit_ = handle_request(c.service, {"op": "metrics"})
        assert resp["ok"] and not exit_
        doc = resp["metrics"]
        assert doc["schema"] == "sdssort.metrics/v1"
        assert doc["state"] == "accepting"
        assert _counter_sum(doc, "sdssort_jobs_total", state="done") == 1

    def test_metrics_op_prometheus(self):
        with ServiceClient() as c:
            c.run(JobSpec(p=8, n_per_rank=200))
            resp, _ = handle_request(c.service, {"op": "metrics",
                                                 "format": "prometheus"})
        assert resp["ok"]
        assert resp["content_type"] == "text/plain; version=0.0.4"
        fams = parse_prometheus(resp["text"])
        assert fams["sdssort_jobs_total"]["type"] == "counter"
        assert fams["sdssort_queue_wait_ms"]["type"] == "histogram"
        assert any(n == "sdssort_queue_wait_ms_bucket"
                   for n, _, _ in
                   fams["sdssort_queue_wait_ms"]["samples"])

    def test_metrics_op_unknown_format(self):
        with ServiceClient() as c:
            resp, _ = handle_request(c.service, {"op": "metrics",
                                                 "format": "xml"})
        assert not resp["ok"] and "unknown metrics format" in resp["error"]

    def test_metrics_op_disabled_is_typed_error(self):
        with ServiceClient(telemetry=False) as c:
            resp, _ = handle_request(c.service, {"op": "metrics"})
        assert not resp["ok"] and "telemetry is disabled" in resp["error"]

    def test_drain_response_is_the_final_scrape(self):
        with ServiceClient(workers=2) as c:
            for s in range(3):
                c.run(JobSpec(p=8, n_per_rank=150, seed=s))
            resp, exit_ = handle_request(c.service, {"op": "drain"})
        assert resp["ok"] and resp["drained"] and exit_
        doc = resp["metrics"]
        assert doc["state"] == "stopped"
        assert _counter_sum(doc, "sdssort_jobs_submitted_total") == \
            _counter_sum(doc, "sdssort_jobs_total") == 3


# ----------------------------------------------------------------
# the `sdssort top` renderer
# ----------------------------------------------------------------


class TestTopRenderer:
    def test_frame_renders_all_sections(self):
        with ServiceClient(workers=1) as c:
            c.run(JobSpec(p=8, n_per_rank=250, seed=1, trace=True))
            c.submit(_big_spec())
            frame = "\n".join(top_lines(c.stats(),
                                        metrics_doc(c.service)))
        assert "sdssort top — state=accepting" in frame
        assert "submitted=2" in frame and "rejected=1" in frame
        for priority in ("interactive", "batch", "bulk"):
            assert priority in frame
        assert "sds/flat" in frame and "ok" in frame
        assert "over-budget=1" in frame
        assert "fleet cost rollup (1 traced job(s)" in frame
        assert "sds/uniform: 1 job(s)" in frame

    def test_frame_without_telemetry_sections(self):
        with ServiceClient(workers=1) as c:
            st = c.stats()
            frame = "\n".join(top_lines(st, metrics_doc(c.service)))
        assert "fleet cost rollup" not in frame
        assert not any(line.startswith("runs")
                       for line in frame.splitlines())


# ----------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------


@pytest.fixture()
def clean_sdssort_logger():
    import logging

    logger = logging.getLogger("sdssort")
    yield logger
    for h in [h for h in logger.handlers
              if getattr(h, "sdssort_handler", False)]:
        logger.removeHandler(h)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


class TestStructuredLogging:
    def test_json_lines_records(self, clean_sdssort_logger):
        buf = StringIO()
        configure_logging("debug", json_lines=True, stream=buf)
        log_event(service_logger("service.test"), "job_queued",
                  job_id="j-000001", priority="batch")
        (line,) = buf.getvalue().splitlines()
        rec = json.loads(line)
        assert rec["event"] == "job_queued"
        assert rec["level"] == "info"
        assert rec["logger"] == "sdssort.service.test"
        assert rec["job_id"] == "j-000001"
        assert rec["priority"] == "batch"
        assert isinstance(rec["ts"], float)

    def test_text_records_are_key_value(self, clean_sdssort_logger):
        buf = StringIO()
        configure_logging("info", stream=buf)
        log_event(service_logger("service.test"), "job_rejected",
                  code="over-budget", job_id="j-000002")
        line = buf.getvalue().strip()
        assert "job_rejected" in line
        assert "code=over-budget" in line and "job_id=j-000002" in line

    def test_level_gates_events(self, clean_sdssort_logger):
        import logging

        buf = StringIO()
        configure_logging("warning", stream=buf)
        log_event(service_logger("service.test"), "chatty")
        log_event(service_logger("service.test"), "problem",
                  level=logging.WARNING)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1 and "problem" in lines[0]

    def test_reconfigure_is_idempotent(self, clean_sdssort_logger):
        buf = StringIO()
        configure_logging("info", stream=buf)
        configure_logging("info", stream=buf)
        log_event(service_logger("service.test"), "once")
        assert buf.getvalue().count("once") == 1

    def test_unknown_level_refused(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_library_use_is_silent(self, clean_sdssort_logger):
        import logging

        assert any(isinstance(h, logging.NullHandler)
                   for h in clean_sdssort_logger.handlers)

    def test_service_stream_is_quiet_without_configuration(
            self, clean_sdssort_logger, capsys):
        with ServiceClient(workers=1) as c:
            c.run(JobSpec(p=4, n_per_rank=100))
            c.submit(_big_spec())      # triggers a WARNING-level event
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""


class TestThreadSafety:
    def test_concurrent_updates_do_not_lose_counts(self):
        r = MetricsRegistry()
        c = r.counter("c_total", "help", labels=("k",))
        h = r.histogram("h_ms", "help", buckets=(1.0, 10.0))

        def hammer(k):
            for i in range(500):
                c.labels(k=k).inc()
                h.observe(float(i % 20))

        threads = [threading.Thread(target=hammer, args=(str(t % 2),))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.labels(k="0").value == 1000
        assert c.labels(k="1").value == 1000
        child = h._default_child()
        assert child.count == 2000
        assert sum(child.bucket_counts) == 2000
