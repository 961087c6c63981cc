"""Skew-aware data partitioning (paper Sections 2.5, Figures 2-4).

Given a rank's *sorted* local data and the ``p-1`` global pivots, a
partitioner produces ``p+1`` displacements ``d`` such that records
``A[d[j]:d[j+1]]`` are sent to rank ``j``; the exchange receives them
as :class:`~repro.mpi.cells.Cuts`, the non-empty buckets only.  The classic rule
(``d[j+1] = upper_bound(A, Pg[j])``, Li et al. '93) assigns *all*
records equal to a duplicated pivot to one rank, which is exactly how
skew becomes load imbalance.  SDS-Sort's partitioners detect runs of
equal global pivots (:func:`find_replicated_runs`, the paper's
SdssReplicated) and split the duplicate mass:

* **fast** (non-stable): every rank splits its own duplicates of the
  pivot value evenly across the ranks of the run;
* **stable**: the duplicates of all ranks form one global sequence
  ordered by (source rank, position); it is cut into ``rs`` contiguous
  groups, one per run member, so the synchronous all-to-all preserves
  the original order of equal keys.

Deviation from the paper's Figure 2 pseudocode (documented in
DESIGN.md): the pseudocode splits ``[upper_bound(ppv), upper_bound(v))``,
which also scatters values *strictly between* the previous pivot and
the duplicated value and can break global order.  We split only the
exact duplicates ``[lower_bound(v), upper_bound(v))``; values in
``(ppv, v)`` go to the first rank of the run.  Theorem 1's O(4N/p)
bound is preserved (tested in ``tests/test_workload_bound.py``).

One kernel cuts a ``(g, n)`` stack of same-shape ranks in every
variant, as one table (:func:`partition_cuts`); the per-rank
displacement functions are its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..kernels import bounded_upper_bound
from ..mpi.cells import Cuts, world_table


@dataclass(frozen=True)
class ReplicatedRun:
    """One maximal run of equal global pivots (SdssReplicated's output).

    Attributes
    ----------
    start: index ``i0`` of the first pivot of the run within ``Pg``.
    length: ``rs``, the number of equal pivots.
    value: the duplicated pivot value.
    """

    start: int
    length: int
    value: object


def _replicated_run_bounds(pg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the replicated (length >= 2) pivot runs."""
    differ = pg[1:] != pg[:-1]
    if differ.all():
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    bounds = np.concatenate(([0], np.flatnonzero(differ) + 1, [pg.size]))
    lengths = np.diff(bounds)
    rep = lengths >= 2
    return bounds[:-1][rep], lengths[rep]


def find_replicated_runs(pg: np.ndarray) -> list[ReplicatedRun]:
    """Detect maximal runs of equal values in the sorted global pivots.

    Equivalent to running the paper's SdssReplicated (Figure 3) for
    every pivot, but in one vectorised pass.
    """
    pg = np.asarray(pg)
    starts, lengths = _replicated_run_bounds(pg)
    return [ReplicatedRun(start=int(b), length=int(n), value=pg[b])
            for b, n in zip(starts, lengths)]


def _checked(sorted_keys: np.ndarray, pg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(sorted_keys)
    pg = np.asarray(pg)
    if a.ndim != 1 or pg.ndim != 1:
        raise ValueError("keys and pivots must be one-dimensional")
    return a, pg


def partition_classic(sorted_keys: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """Upper-bound partitioning without skew handling (Li et al. '93).

    The PSRS baseline rule; duplicated pivots collapse their whole
    duplicate mass onto single ranks.
    """
    a, pg = _checked(sorted_keys, pg)
    inner = np.searchsorted(a, pg, side="right").astype(np.int64)
    return np.concatenate(([0], inner, [a.size]))


def cuts_all_valid(cuts: Sequence[Cuts], p: int, lens: Sequence[int]
                   ) -> bool:
    """Whether every rank's cuts pass ``check(p, lens[r])``, judged in
    one pass over the table of their rows.

    ``cuts`` holds what each rank deposits (:func:`~repro.mpi.cells.
    world_table`: one table of every rank's row, or each its own).  The
    pass also wants what the partitioners give by construction and the
    exchange relies on: one closing offset per rank, buckets inside
    ``[0, p)`` and ascending within a rank.  ``False`` is a verdict on
    no rank — the caller then asks each rank's own :meth:`Cuts.check`,
    which names the offender.
    """
    if None in cuts or {c.p for c in cuts} != {p}:     # None: never cut
        return False
    cuts = world_table(cuts)
    if len(cuts) != len(lens):                         # a row a rank
        return False
    sizes = cuts.sizes()
    dst, offs = cuts.dst, cuts.offs
    if offs.size != dst.size + sizes.size:
        return False
    closer = np.cumsum(sizes + 1) - 1                  # per rank, in offs
    steps = np.diff(offs)
    steps[closer[:-1]] = 0                             # on to the next rank
    if (np.any(offs[closer - sizes] != 0) or np.any(offs[closer] != lens)
            or np.any(steps < 0)):
        return False
    if dst.size == 0:
        return True
    rises = np.diff(dst) > 0
    first = np.cumsum(sizes[:-1])                      # later ranks', in dst
    rises[first[(first > 0) & (first < dst.size)] - 1] = True
    return bool(dst.min() >= 0 and dst.max() < p and rises.all())


def partition_fast(sorted_keys: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """SDS-Sort's fast (non-stable) skew-aware partition.

    Each source rank splits its duplicates of every replicated pivot
    value evenly across the run's ranks — implicitly appending the
    run-rank ``rr`` as a virtual secondary key (Figure 4, left).  The
    one-row case of :func:`partition_cuts`.
    """
    a, pg = _checked(sorted_keys, pg)
    return _displs(a[None], pg, "fast")[0]


def run_dup_counts(sorted_keys: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """Local duplicate count of each replicated run's value (one int64 a
    run, :func:`find_replicated_runs` order): the one-row case of
    :func:`dup_counts`."""
    a, pg = _checked(sorted_keys, pg)
    return dup_counts(a[None], pg)[0]


def partition_stable_arrays(sorted_keys: np.ndarray, pg: np.ndarray,
                            my_prefix: np.ndarray,
                            totals: np.ndarray) -> np.ndarray:
    """The stable skew-aware partition of one rank (``my_prefix`` /
    ``totals`` by run ordinal): the one-row case of :func:`partition_cuts`,
    equal to the seed's per-group loop (``tests/oracles_partition.py``)."""
    a, pg = _checked(sorted_keys, pg)
    return _displs(a[None], pg, "stable",
                   (np.asarray(my_prefix)[None], np.asarray(totals)))[0]


def dup_counts(rows: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """``(g, runs)``: each row's duplicates of each replicated run's value."""
    vals = pg[_replicated_run_bounds(pg)[0]]
    out = np.empty((len(rows), vals.size), dtype=np.int64)
    for r, row in enumerate(rows):
        out[r] = (np.searchsorted(row, vals, side="right")
                  - np.searchsorted(row, vals, side="left"))
    return out


def _displs(rows: np.ndarray, pg: np.ndarray, variant: str,
            layout: tuple | None = None) -> np.ndarray:
    """The ``(g, p+1)`` displacements of a sorted stack: the classic upper
    bounds, a run's ``k``-th of ``rs`` cuts re-set to ``lo + clip(total *
    k // rs - sb, 0, dups)``."""
    g, n = rows.shape
    d = np.empty((g, pg.size + 2), dtype=np.int64)
    d[:, 0], d[:, -1] = 0, n
    starts, rs = _replicated_run_bounds(pg[:0] if variant == "classic" else pg)
    # every (run, k) pair, k = 1..rs: its run and the run's first pivot
    run = np.repeat(np.arange(rs.size), rs) if rs.size else rs
    first = starts[run]
    vals, lo = pg[first], np.empty((g, run.size), dtype=np.int64)
    for r, row in enumerate(rows):
        d[r, 1:-1] = np.searchsorted(row, pg, side="right")
        if run.size:
            lo[r] = np.searchsorted(row, vals, side="left")
    if run.size:
        k = np.arange(1, run.size + 1) - (np.cumsum(rs) - rs)[run]
        dups, rs = d[:, first + 1] - lo, rs[run]       # upper_bound(v) - lo
        if layout is None:                             # sb = 0, total = dups
            cut = dups * k // rs
        else:
            cut = np.minimum(np.maximum(layout[1][run] * k // rs
                                        - layout[0][:, run], 0), dups)
        d[:, first + k] = lo + cut
    return d


def partition_cuts(rows: np.ndarray, pg: np.ndarray, variant: str = "classic",
                   layout: tuple | None = None) -> Cuts:
    """The cuts of every row of a ``(g, n)`` stack of sorted keys, one
    table: row ``r`` is :meth:`Cuts.from_displs` of ``rows[r]``'s
    displacements in ``variant`` (``stable``: ``layout`` is the rows'
    ``(g, runs)`` prefixes and the ``(runs,)`` totals).

    The shorter side are the needles: from ``n >= p`` the pivots, into
    each row (a ``(g, p+1)`` matrix is no larger than the keys); below,
    the keys, a key's bucket the number of pivots below it, duplicate
    ``j`` of a row's run (start ``s``, ``rs`` pivots) at global position
    ``sb + j`` of ``total`` (``fast``: ``0`` of the row's own) going to
    ``s + ceil((sb + j + 1) * rs / total) - 1``; the breaks of the
    bucket ids are every row's non-empty buckets.
    """
    pg = np.asarray(pg)
    g, n = rows.shape
    p = pg.size + 1
    if n >= p:
        return Cuts.from_displs(_displs(rows, pg, variant, layout))
    keys = rows.ravel()
    bucket = np.searchsorted(pg, keys, side="left")
    starts, rs = _replicated_run_bounds(pg[:0] if variant == "classic" else pg)
    if starts.size:
        run_of = np.full(p, -1, dtype=np.int64)
        run_of[starts] = np.arange(starts.size)
        at = np.flatnonzero(run_of[bucket] >= 0)
        at = at[keys[at] == pg[bucket[at]]]            # duplicates of a run
        rid, row = run_of[bucket[at]], at // n
        # a row's duplicates of one run are consecutive
        first = np.flatnonzero(np.diff(row * p + rid, prepend=-1))
        dups = np.diff(first, append=at.size)
        j = np.arange(at.size) - np.repeat(first, dups)
        dups = np.repeat(dups, dups)
        sb, total = ((0, dups) if layout is None
                     else (layout[0][row, rid], layout[1][rid]))
        bucket[at] = starts[rid] - 1 + ((sb + j + 1) * rs[rid] + total - 1) // total
    bucket = bucket.reshape(g, n)
    brk = np.ones((g, n), dtype=bool)                  # bucket starts
    brk[:, 1:] = bucket[:, 1:] != bucket[:, :-1]
    cell = np.flatnonzero(brk.ravel())
    row = cell // n
    # every row's first-record offsets, each closed by its own ``n``
    offs = np.full(cell.size + g, n, dtype=np.int64)
    offs[np.arange(cell.size) + row] = cell - row * n
    return Cuts(p, bucket.ravel()[cell], offs, np.searchsorted(row, np.arange(g + 1)))


def partition_local_pivots(sorted_keys: np.ndarray, pl: np.ndarray,
                           pg: np.ndarray) -> np.ndarray:
    """Local-pivot accelerated partition (paper Section 2.5.1).

    Ranks each global pivot among the ``p-1`` local pivots first, then
    searches only the ``O(n/p)`` slice between the bracketing local
    pivots — the two nested ``std::upper_bound`` calls of Figure 2
    lines 2-3.  Produces identical displacements to
    :func:`partition_classic`; exists to make the partition-cost
    comparison of Figure 6b honest (the work really is two short
    binary searches instead of one over all of ``A``).
    """
    a, pg = _checked(sorted_keys, pg)
    pl = np.asarray(pl)
    n = a.size
    p = pg.size + 1
    stride = max(1, n // p)
    inner = np.empty(pg.size, dtype=np.int64)
    for i, pivot in enumerate(pg):
        pi = int(np.searchsorted(pl, pivot, side="right"))
        lo = min(n, pi * stride)
        hi = min(n, (pi + 1) * stride)
        # the bracketing is a heuristic speedup; widen when the true
        # boundary falls outside [lo, hi] (pivot outside the local
        # value range, or a duplicate run crossing the bracket)
        if lo > 0 and a[lo - 1] > pivot:
            lo = 0
        if hi < n and a[hi] <= pivot:
            hi = n
        inner[i] = bounded_upper_bound(a, lo, hi, pivot)
    return np.concatenate(([0], inner, [n]))


def partition_full_scan(sorted_keys: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """O(n) streaming partition (the 'Sequential Scan' of Figure 6b).

    Buckets every record against the pivot list in one pass over the
    data (``digitize`` + ``bincount``), the strawman whose cost the
    local-pivot method avoids.
    """
    a, pg = _checked(sorted_keys, pg)
    p = pg.size + 1
    if a.size == 0:
        return np.zeros(p + 1, dtype=np.int64)  # all-empty displacements
    bucket = np.digitize(a, pg, right=True)
    counts = np.bincount(bucket, minlength=p)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def loads_from_displs(all_displs: list[np.ndarray]) -> np.ndarray:
    """Per-destination record counts given every source's displacements."""
    if not all_displs:
        return np.zeros(0, dtype=np.int64)
    mat = np.stack([np.diff(np.asarray(d)) for d in all_displs])
    return mat.sum(axis=0).astype(np.int64)
