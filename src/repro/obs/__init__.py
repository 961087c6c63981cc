"""Observability: virtual-time tracing, cost attribution and export.

The subsystem has three stages, one module each:

* :mod:`repro.obs.tracer` — :class:`Tracer`, the recorder the engine
  writes into (counter columns, bracket records, COO edges; zero
  overhead when absent);
* :mod:`repro.obs.report` — :class:`TraceReport`, the frozen aggregate
  (phase stats, critical path, LogGP cost split, comm totals);
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON; the
  terminal renderings live in :mod:`repro.viz` and are re-exported
  here.

Two service-facing modules ride on the same contracts:

* :mod:`repro.obs.telemetry` — :class:`MetricsRegistry`
  (counters/gauges/histograms with label sets, deterministic
  snapshots, Prometheus text exposition);
* :mod:`repro.obs.rollup` — :class:`CostRollup`, the cross-job fold
  of per-job LogGP cost splits into fleet-level attribution.

See ``docs/observability.md`` for the span model and the counter
taxonomy, and ``tests/test_obs.py`` for the contracts (determinism,
reconciliation, off-path bit-equality).
"""

from .export import (
    diff_traces,
    load_trace,
    summarize_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .report import PhaseStat, TraceReport
from .rollup import CostRollup
from .telemetry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricError,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from .tracer import COST_COUNTERS, SPAN_CATEGORIES, Tracer
from ..viz import comm_heat, phase_flame, rank_timeline

__all__ = [
    "Tracer",
    "COST_COUNTERS",
    "SPAN_CATEGORIES",
    "TraceReport",
    "PhaseStat",
    "MetricsRegistry",
    "MetricError",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "render_prometheus",
    "parse_prometheus",
    "CostRollup",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_trace",
    "validate_chrome_trace",
    "summarize_trace",
    "diff_traces",
    "phase_flame",
    "comm_heat",
    "rank_timeline",
]
