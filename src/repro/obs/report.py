"""Trace aggregation: from raw per-rank spans to the paper's breakdowns.

A :class:`TraceReport` freezes one run's :class:`~repro.obs.tracer.Tracer`
together with the engine's clocks and counters and answers the
questions the paper's figures ask:

* **phase breakdown** (Fig 5a-c, Fig 6, Fig 9/10): per-phase virtual
  time, per rank and max-over-ranks;
* **critical path**: which rank pays for each phase, and how much of
  the end-to-end makespan each phase's slowest rank explains;
* **cost split** (the LogGP attribution): compute / wait / latency /
  bandwidth / fault-debt totals that reconcile with the clocks;
* **communication volume**: the per-edge byte matrix behind the
  comm-volume heat map.

Everything here is a pure function of virtual quantities, so reports
(and their canonical hashes) are reproducible across hosts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any

import numpy as np

from ..mpi.comm import Columns
from .tracer import COST_COUNTERS, Tracer, expand

__all__ = ["PhaseStat", "TraceReport"]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays into canonical JSON-safe values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class PhaseStat:
    """Aggregate of one phase across ranks."""

    name: str
    start: float          # earliest span start over all ranks
    max_seconds: float    # slowest rank's total time in the phase
    critical_rank: int    # the rank paying max_seconds
    mean_seconds: float   # average over ranks *that entered the phase*
    total_seconds: float  # sum over ranks
    ranks: int            # ranks that entered the phase

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "max_seconds": self.max_seconds,
            "critical_rank": self.critical_rank,
            "mean_seconds": self.mean_seconds,
            "total_seconds": self.total_seconds,
            "ranks": self.ranks,
        }


class TraceReport:
    """One run's trace, aggregated and ready for export/analysis.

    It reads the run's :class:`~repro.obs.tracer.Tracer` in place: phase
    stats, the cost split and the comm totals come straight off its
    records, counter columns and COO edges.  The per-rank ``spans``
    (``(t0, t1, cat, name, args)``), ``instants`` (``(t, cat, name,
    args)``) and ``counters`` lists are expanded on first read, and only
    :meth:`comm_matrix` (and :meth:`as_dict`, which embeds it) builds a
    ``(p, p)`` array.
    """

    def __init__(self, tracer: Tracer, *, clocks: list[float],
                 engine_counters: Columns | list[dict[str, float]]
                 | None = None, meta: dict[str, Any] | None = None):
        """Freeze a finished run's tracer into a report (the engine's
        counters as its ``Columns`` or as per-rank dicts)."""
        self.tracer = tracer
        self.p = tracer.p
        self.clocks = list(clocks)                # final per-rank clocks
        self.elapsed = max(self.clocks) if self.clocks else 0.0
        self._engine = engine_counters or []
        self.meta = {**tracer.meta, **(meta or {})}

    #: the constructor, under the name the engine's callers use
    from_run = classmethod(lambda cls, tracer, **kw: cls(tracer, **kw))

    spans = cached_property(lambda self: self.tracer.rank_spans())
    instants = cached_property(lambda self: self.tracer.rank_instants())
    counters = cached_property(lambda self: self.tracer.counters.rows())
    engine_counters = cached_property(lambda self: (
        self._engine.rows() if isinstance(self._engine, Columns)
        else [dict(c) for c in self._engine]))

    # ------------------------------------------------------------------
    # phase analysis
    # ------------------------------------------------------------------
    def phase_stats(self) -> list[PhaseStat]:
        """Per-phase aggregates, ordered by earliest start (run order)."""
        per_phase: dict[str, list] = {}     # name -> [seconds, entered, start]
        for at, t0, t1, cat, name, _args in self.tracer.spans:
            if cat != "phase":
                continue
            col = per_phase.setdefault(name, [
                np.zeros(self.p), np.zeros(self.p, dtype=bool), np.inf])
            col[0][at] += t1 - t0
            col[1][at] = True
            col[2] = min(col[2], float(np.min(t0)))
        out = []
        for name, (seconds, entered, start) in per_phase.items():
            ranks = np.flatnonzero(entered)
            crit = int(ranks[np.argmax(seconds[ranks])])
            total = sum(seconds[ranks].tolist())
            out.append(PhaseStat(
                name=name, start=start,
                max_seconds=float(seconds[crit]), critical_rank=crit,
                mean_seconds=total / ranks.size, total_seconds=total,
                ranks=ranks.size))
        out.sort(key=lambda s: (s.start, s.name))
        return out

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks seconds per phase (the stacked-bar columns)."""
        return {s.name: s.max_seconds for s in self.phase_stats()}

    def critical_path(self) -> dict[str, Any]:
        """Phase-level critical-path decomposition of the makespan.

        Collectives synchronise the ranks at (nearly) every phase
        boundary, so the makespan decomposes as the sum over phases of
        the slowest rank's time in that phase.  ``coverage`` reports
        how much of ``elapsed`` the decomposition explains (1.0 for the
        SDS pipeline, whose phases tile each rank's timeline; lower
        when an algorithm advances clocks outside any phase).
        """
        stats = self.phase_stats()
        total = sum(s.max_seconds for s in stats)
        return {
            "elapsed": self.elapsed,
            "explained": total,
            "coverage": (total / self.elapsed) if self.elapsed > 0 else 1.0,
            "steps": [
                {"phase": s.name, "rank": s.critical_rank,
                 "seconds": s.max_seconds,
                 "share": (s.max_seconds / total) if total > 0 else 0.0}
                for s in stats
            ],
        }

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counter_totals(self, prefix: str = "") -> dict[str, float]:
        """Sum tracer counters over ranks, optionally filtered by prefix
        (in rank order, one addition a rank)."""
        agg: dict[str, float] = {}
        for name in sorted(self.tracer.counters):
            vals, seen = self.tracer.counters[name]
            if name.startswith(prefix) and seen.any():
                agg[name] = reduce(operator.add, vals[seen].tolist(), 0.0)
        return agg

    def cost_split(self) -> dict[str, float]:
        """Run-wide LogGP attribution (sum over ranks, all buckets)."""
        totals = self.counter_totals("cost.")
        return {name: totals.get(name, 0.0) for name in COST_COUNTERS}

    def reconcile(self) -> dict[str, float]:
        """How well the trace explains the clocks (both should be ~0).

        * ``max_cost_gap``: worst per-rank ``|sum(cost.*) - clock|`` —
          the cost-split buckets must account for every clock advance;
        * ``max_phase_gap``: worst per-rank ``|sum(phase spans) - clock|``
          — for pipelines whose phases tile the timeline (SDS-Sort),
          the phase spans must cover the whole run.
        """
        counters = self.tracer.counters
        zero = np.zeros(self.p)
        cost = zip(*(counters.get(k, (zero,))[0].tolist()
                     for k in COST_COUNTERS))
        phase: list[list[float]] = [[] for _ in range(self.p)]
        for g, t0, t1, *_ in expand(s for s in self.tracer.spans
                                    if s[3] == "phase"):
            phase[g].append(t1 - t0)
        max_cost = 0.0
        max_phase = 0.0
        for clock, c, ph in zip(self.clocks, cost, phase):
            max_cost = max(max_cost, abs(sum(c) - clock))
            max_phase = max(max_phase, abs(sum(ph) - clock))
        return {"max_cost_gap": max_cost, "max_phase_gap": max_phase}

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def comm_matrix(self) -> np.ndarray:
        """The ``(p, p)`` bytes-sent matrix (``[src, dst]``), built on
        request."""
        return self.tracer.edge_matrix()

    def comm_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, bytes)`` of every edge charged, each ``(src,
        dst)`` once, ascending: the tracer's COO edges summed."""
        src, dst, nbytes = self.tracer.edges()
        key, inv = np.unique(src * self.p + dst, return_inverse=True)
        sums = np.zeros(key.size, dtype=np.int64)
        np.add.at(sums, inv, nbytes)
        return *np.divmod(key, self.p), sums

    def comm_totals(self) -> dict[str, int]:
        src, dst, nbytes = self.comm_edges()
        return {
            "total_bytes": int(nbytes.sum()),
            "wire_bytes": int(nbytes[src != dst].sum()),  # not rank-to-self
            "max_edge_bytes": int(nbytes.max()) if nbytes.size else 0,
            "edges_used": int((nbytes > 0).sum()),
        }

    def fault_markers(self) -> list[dict[str, Any]]:
        """All injected-event markers, ordered by (time, rank)."""
        out = [{"t": t, "rank": g, "name": name,
                "args": _jsonable(args) if args else None}
               for g, t, _t, _c, name, args in expand(
                   i for i in self.tracer.instants if i[3] == "fault")]
        out.sort(key=lambda e: (e["t"], e["rank"], e["name"]))
        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Compact JSON-safe digest (what ``--json`` and exports embed)."""
        return _jsonable({
            "p": self.p,
            "elapsed": self.elapsed,
            "spans": sum(np.size(s[0]) for s in self.tracer.spans),
            "phases": [s.as_dict() for s in self.phase_stats()],
            "critical_path": self.critical_path(),
            "cost_split": self.cost_split(),
            "comm": self.comm_totals(),
            "kernels": self.counter_totals("kernel."),
            "fault_markers": len(self.fault_markers()),
            "reconciliation": self.reconcile(),
            "meta": self.meta,
        })

    def as_dict(self) -> dict[str, Any]:
        """Full JSON-safe dump (spans, instants, counters, edges)."""
        return _jsonable({
            "summary": self.summary(),
            "clocks": list(self.clocks),
            "spans": [[list(s) for s in spans] for spans in self.spans],
            "instants": [[list(i) for i in ins] for ins in self.instants],
            "counters": [dict(sorted(c.items())) for c in self.counters],
            "engine_counters": [dict(sorted(c.items()))
                                for c in self.engine_counters],
            "edges": self.comm_matrix(),
        })
