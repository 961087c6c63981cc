"""Virtual-time tracing: the recording side of the observability layer.

A :class:`Tracer` collects, per rank, everything the engine reports
while it runs: **spans** (phases and communication operations, as
``[start, end)`` intervals in *virtual* seconds), **instants**
(zero-width markers — injected faults, crash verdicts), **counters**
(typed accumulators: the LogGP cost split, kernel attribution, byte
volumes) and the **per-edge byte matrix** of all point-to-point and
all-to-all traffic.

Design constraints, in order:

1. **Zero overhead when off.**  Every hook in the engine is guarded by
   a single ``if tracer is None`` attribute check; with no tracer the
   instruction stream of :mod:`repro.mpi.comm` is unchanged and the
   virtual clocks are bit-for-bit those of an untraced engine.  (They
   are bit-for-bit identical with tracing *on* too — the tracer only
   observes — but the guarantee the golden suite pins is the off case.)
2. **No locking.**  Storage is sharded by rank exactly like the
   engine's own clocks and counters: slot ``r`` is touched only by
   rank ``r``'s thread, so appends need no synchronisation.
3. **Virtual quantities only.**  Nothing host-dependent (wall time,
   thread ids, memory addresses) is recorded, so two runs of the same
   ``(algorithm, p, seed, spec)`` produce identical traces — the
   determinism contract ``tests/test_obs.py`` pins.

Span/instant records are plain tuples (not dataclasses) because the
hooks sit on the engine's hot path; :class:`~repro.obs.report.TraceReport`
gives them structure after the run.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["Tracer", "COST_COUNTERS", "SPAN_CATEGORIES"]

#: The LogGP cost-split counter names (see docs/observability.md).
#: Per rank, their sum reconciles with the rank's final virtual clock:
#: every clock advance in the engine is attributed to exactly one.
COST_COUNTERS = (
    "cost.compute",     # comm.charge: modelled CPU work
    "cost.wait",        # blocked on slower peers (barrier skew, p2p waits)
    "cost.latency",     # zero-byte cost of communication operations
    "cost.bandwidth",   # byte-proportional remainder of communication
    "cost.fault_debt",  # straggler scaling, retransmission, resync debt
)

#: Span categories a tracer may hold.
SPAN_CATEGORIES = ("phase", "coll", "p2p")


class Tracer:
    """Per-rank recorder of one simulated run's virtual-time events.

    Create one per run and hand it to :func:`repro.mpi.engine.run_spmd`
    (or ``run_sort(..., trace=True)``); after the run, wrap it in a
    :class:`~repro.obs.report.TraceReport` for analysis and export.
    """

    __slots__ = ("p", "spans", "instants", "counters", "_edges", "meta")

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        #: per-rank ``(t0, t1, category, name, args|None)`` span tuples
        self.spans: list[list[tuple]] = [[] for _ in range(p)]
        #: per-rank ``(t, category, name, args|None)`` marker tuples
        self.instants: list[list[tuple]] = [[] for _ in range(p)]
        #: per-rank typed accumulators (``cost.*``, ``kernel.*``, ...)
        self.counters: list[dict[str, float]] = [dict() for _ in range(p)]
        #: per-sender byte rows (lazily allocated ``int64[p]``)
        self._edges: list[np.ndarray | None] = [None] * p
        #: free-form run metadata, set by the driver (runner/CLI)
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # recording (called from rank threads; slot `rank` only)
    # ------------------------------------------------------------------
    def span(self, rank: int, cat: str, name: str, t0: float, t1: float,
             args: dict | None = None) -> None:
        """Record a ``[t0, t1)`` interval on ``rank``'s timeline."""
        self.spans[rank].append((t0, t1, cat, name, args))

    def instant(self, rank: int, cat: str, name: str, t: float,
                args: dict | None = None) -> None:
        """Record a zero-width marker (fault injections, crash events)."""
        self.instants[rank].append((t, cat, name, args))

    def add(self, rank: int, name: str, value: float) -> None:
        """Accumulate a typed counter on ``rank``."""
        c = self.counters[rank]
        c[name] = c.get(name, 0.0) + value

    def collective(self, rank: int, name: str, c0: float, c1: float,
                   t: float, dt: float, lat: float, debt: float) -> None:
        """Span and LogGP split of one collective's clock advance.

        ``rank`` went from ``c0`` to ``c1 = (t + dt) + debt``: skipping
        forward to the barrier release ``t`` is **wait**, ``lat`` (the
        cost function at zero bytes) **latency**, the rest of ``dt``
        **bandwidth**, the collective fault debt it carried
        **fault_debt**.
        """
        self.span(rank, "coll", name, c0, c1)
        wait = t - c0
        if wait > 0.0:
            self.add(rank, "cost.wait", wait)
        self.add(rank, "cost.latency", lat)
        if dt > lat:
            self.add(rank, "cost.bandwidth", dt - lat)
        if debt:
            self.add(rank, "cost.fault_debt", debt)

    def overlapped(self, rank: int, c0: float, c1: float, start: float,
                   progress: float, debt: float, args: dict) -> None:
        """Span and split of the overlapped exchange's one fused advance.

        It covers barrier skew (up to ``start``: **wait**), the async
        progress CPU (``progress``: **latency**) and the network/merge
        interleave, whose remainder is attributed to **bandwidth** (the
        merge CPU it hides is reported through ``kernel.merge.*``).
        """
        self.span(rank, "coll", "alltoallv_async+merge", c0, c1, args)
        adv = c1 - c0
        if adv > 0.0:
            wait = max(0.0, min(adv, start - c0))
            lat = min(adv - wait, progress)
            self.add(rank, "cost.wait", wait)
            self.add(rank, "cost.latency", lat)
            rest = adv - wait - lat - debt
            if rest > 0.0:
                self.add(rank, "cost.bandwidth", rest)
            if debt:
                self.add(rank, "cost.fault_debt", debt)

    def edge(self, src: int, dst: int, nbytes: int) -> None:
        """Charge ``nbytes`` to the directed edge ``src -> dst``."""
        row = self._edges[src]
        if row is None:
            row = self._edges[src] = np.zeros(self.p, dtype=np.int64)
        row[dst] += nbytes

    def edge_row(self, src: int, row_bytes: np.ndarray) -> None:
        """Charge a whole destination row at once (fused exchanges)."""
        row = self._edges[src]
        if row is None:
            row = self._edges[src] = np.zeros(self.p, dtype=np.int64)
        row += np.asarray(row_bytes, dtype=np.int64)

    # ------------------------------------------------------------------
    # post-run access
    # ------------------------------------------------------------------
    def edge_matrix(self) -> np.ndarray:
        """The ``(p, p)`` bytes-sent matrix (``[src, dst]``)."""
        out = np.zeros((self.p, self.p), dtype=np.int64)
        for r, row in enumerate(self._edges):
            if row is not None:
                out[r] = row
        return out

    def span_count(self) -> int:
        return sum(len(s) for s in self.spans)
