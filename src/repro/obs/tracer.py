"""Virtual-time tracing: the recording side of the observability layer.

A :class:`Tracer` keeps what the engine reports in the engine's own
ledger forms: **counters** (the LogGP cost split, kernel attribution,
byte volumes) in a :class:`~repro.mpi.comm.Columns`, like
``SimWorld.counters``; **spans** (phases and communication operations,
``[t0, t1)`` in *virtual* seconds) and **instants** (zero-width markers
— injected faults, crash verdicts) as one ``(at, t0, t1, cat, name,
args)`` record per bracket over a membership, like ``SimWorld.traces``
(``at`` is an int on a lane, an index array of global ranks for a
membership; ``t0``, ``t1`` and any numpy value of ``args`` are columns
aligned with it; an instant's ``t1`` is its ``t0``); and **edges** as
COO ``(src, dst, bytes)`` global-rank chunks from what each exchange
already holds (its non-empty cells, its partner pairs, one triple a
p2p send).

Design constraints, in order:

1. **Zero overhead when off.**  Every hook in the engine is guarded by
   a single ``if tracer is None`` attribute check; with no tracer the
   instruction stream of :mod:`repro.mpi.comm` is unchanged and the
   virtual clocks are bit-for-bit those of an untraced engine.  (They
   are bit-for-bit identical with tracing *on* too — the tracer only
   observes — but the guarantee the golden suite pins is the off case.)
2. **The engine's cost, not p².**  A hook is one statement per
   membership and the tracer holds O(records + cells); only the dense
   export :meth:`Tracer.edge_matrix` is ``(p, p)``.  Rank threads need
   no lock: they append whole records and book only their own entry of
   a counter column.  Per-rank lists are expanded on read.
3. **Virtual quantities only.**  Nothing host-dependent (wall time,
   thread ids, memory addresses) is recorded, so two runs of the same
   ``(algorithm, p, seed, spec)`` produce identical traces — the
   determinism contract ``tests/test_obs.py`` pins.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from ..mpi.comm import Columns

__all__ = ["Tracer", "COST_COUNTERS", "SPAN_CATEGORIES", "expand"]

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


def expand(records: Iterable[tuple]) -> Iterator[tuple]:
    """Every member of ``records``, in record order: one ``(rank, t0,
    t1, cat, name, args)`` a rank booked, with Python values and the
    ``args`` columns taken at that rank."""
    for at, t0, t1, cat, name, args in records:
        cols = [k for k, v in args.items()
                if isinstance(v, (np.ndarray, np.generic))] if args else []
        vals = np.broadcast_arrays(at, t0, t1, *(args[k] for k in cols))
        for g, a, b, *v in zip(*(np.atleast_1d(c).tolist() for c in vals)):
            yield g, a, b, cat, name, (
                {**args, **dict(zip(cols, v))} if cols else args)


class Tracer:
    """Recorder of one simulated run's virtual-time events.

    Create one per run and hand it to :func:`repro.mpi.engine.run_spmd`
    (or ``run_sort(..., trace=True)``); after the run, wrap it in a
    :class:`~repro.obs.report.TraceReport` for analysis and export.
    Every hook takes the ranks it books as ``at`` (``src`` / ``dst`` for
    edges): one global rank's int, or an index array with the values as
    columns aligned with it.
    """

    __slots__ = ("p", "counters", "spans", "instants", "_edges", "meta")

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        #: typed accumulators (``cost.*``, ``kernel.*``, ...) per rank
        self.counters = Columns(p)
        #: ``(at, t0, t1, category, name, args|None)`` span records
        self.spans: list[tuple] = []
        #: ``(at, t, t, category, name, args|None)`` marker records
        self.instants: list[tuple] = []
        #: ``(src, dst, bytes)`` COO chunks
        self._edges: list[tuple] = []
        #: free-form run metadata, set by the driver (runner/CLI)
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, at: Any, cat: str, name: str, t0: Any, t1: Any,
             args: dict | None = None) -> None:
        """Record a ``[t0, t1)`` interval on the timelines of ``at``."""
        self.spans.append((at, t0, t1, cat, name, args))

    def instant(self, at: Any, cat: str, name: str, t: Any,
                args: dict | None = None) -> None:
        """Record a zero-width marker (fault injections, crash events)."""
        self.instants.append((at, t, t, cat, name, args))

    def add(self, at: Any, name: str, value: Any, where: Any = True) -> None:
        """Accumulate a typed counter on the ranks ``at`` — on those of
        them ``where`` holds for (one bool, or a mask aligned with
        ``at``)."""
        if np.ndim(where):
            at, value = at[where], value[where] if np.ndim(value) else value
        elif not where:
            return
        self.counters.add(at, name, value)

    def collective(self, at: Any, name: str, c0: Any, c1: Any,
                   t: Any, dt: Any, lat: Any, debt: Any) -> None:
        """Span and LogGP split of one collective's clock advance.

        Each rank went from ``c0`` to ``c1 = (t + dt) + debt``: skipping
        forward to the barrier release ``t`` is **wait**, ``lat`` (the
        cost function at zero bytes) **latency**, the rest of ``dt``
        **bandwidth**, the collective fault debt it carried
        **fault_debt**.
        """
        self.span(at, "coll", name, c0, c1)
        wait = t - c0
        self.add(at, "cost.wait", wait, wait > 0.0)
        self.add(at, "cost.latency", lat)
        self.add(at, "cost.bandwidth", dt - lat, dt > lat)
        self.add(at, "cost.fault_debt", debt, debt != 0)

    def overlapped(self, at: Any, c0: Any, c1: Any, start: float,
                   progress: float, debt: Any, args: dict) -> None:
        """Span and split of the overlapped exchange's one fused advance.

        It covers barrier skew (up to ``start``: **wait**), the async
        progress CPU (``progress``: **latency**) and the network/merge
        interleave, whose remainder is attributed to **bandwidth** (the
        merge CPU it hides is reported through ``kernel.merge.*``).
        """
        self.span(at, "coll", "alltoallv_async+merge", c0, c1, args)
        adv = c1 - c0
        moved = adv > 0.0
        wait = np.maximum(0.0, np.minimum(adv, start - c0))
        lat = np.minimum(adv - wait, progress)
        rest = adv - wait - lat - debt
        self.add(at, "cost.wait", wait, moved)
        self.add(at, "cost.latency", lat, moved)
        self.add(at, "cost.bandwidth", rest, moved & (rest > 0.0))
        self.add(at, "cost.fault_debt", debt, moved & (debt != 0))

    def edge(self, src: Any, dst: Any, nbytes: Any) -> None:
        """Charge ``nbytes`` to the directed edges ``src -> dst`` (ints,
        or arrays that broadcast together)."""
        self._edges.append((src, dst, nbytes))

    # ------------------------------------------------------------------
    # post-run access
    # ------------------------------------------------------------------
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every charged ``(src, dst, bytes)``, as three int64 columns
        (an edge charged twice appears twice)."""
        chunks = [np.broadcast_arrays(*e) for e in self._edges] or [[[]] * 3]
        return tuple(np.concatenate([np.ravel(c[i]) for c in chunks]).astype(
            np.int64) for i in range(3))  # type: ignore[return-value]

    def edge_matrix(self) -> np.ndarray:
        """The ``(p, p)`` bytes-sent matrix (``[src, dst]``): the one
        dense export, built on request."""
        out = np.zeros((self.p, self.p), dtype=np.int64)
        src, dst, nbytes = self.edges()
        np.add.at(out, (src, dst), nbytes)
        return out

    def rank_spans(self) -> list[list[tuple]]:
        """Every rank's ``(t0, t1, category, name, args)`` spans, in the
        order it booked them."""
        return self._rows(self.spans, 0)

    def rank_instants(self) -> list[list[tuple]]:
        """Every rank's ``(t, category, name, args)`` markers, in order."""
        return self._rows(self.instants, 1)

    def _rows(self, records: list[tuple], skip: int) -> list[list[tuple]]:
        rows: list[list[tuple]] = [[] for _ in range(self.p)]
        for g, *rec in expand(records):
            rows[g].append(tuple(rec[skip:]))
        return rows
