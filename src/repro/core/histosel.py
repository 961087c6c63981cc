"""Histogram-based splitter/pivot selection (paper Section 2.4, option 1).

The paper discusses two ways to pick global pivots without gathering
all ``p*(p-1)`` local pivots on one rank: *histogram sorting* (Solomonik
& Kale — evaluate candidate values' global ranks with reductions and
refine toward the target quantiles) and *parallel bitonic sort* of the
local pivots.  SDS-Sort chooses bitonic because histogramming "might
need secondary sorting keys to distinguish the same values" on skewed
data; this module implements the histogram option so that claim can be
tested rather than taken on faith (``tests/test_histosel.py``).

The same refinement loop is HykSort's splitter selection — the
baseline imports it from here (with its own fan-out and tolerance).

The refinement loop is lockstep: every control decision (candidate
set, bracket bounds, termination) derives from collective results that
are identical on all ranks, so the world form below runs the shared
arithmetic once per communicator and replays only the per-rank
``searchsorted`` inputs, collective epilogues and cost charges.
"""

from __future__ import annotations

import numpy as np

from ..mpi import LANE, Comm, World


def _segment_samples(sorted_keys: np.ndarray, lo_val, hi_val,
                     samples_per_rank: int) -> np.ndarray:
    """Evenly spaced samples of ``sorted_keys`` within ``(lo_val, hi_val)``."""
    if lo_val is None and hi_val is None:
        seg = sorted_keys
    else:
        lo_i = 0 if lo_val is None else int(
            np.searchsorted(sorted_keys, lo_val, "right"))
        hi_i = sorted_keys.size if hi_val is None else int(
            np.searchsorted(sorted_keys, hi_val, "left"))
        seg = sorted_keys[lo_i:hi_i]
    if seg.size == 0:
        return seg
    idx = np.linspace(0, seg.size - 1, min(samples_per_rank, seg.size))
    return seg[idx.astype(np.int64)]


class _Counts:
    """One rank's ``searchsorted(keys, cands, "right")``, counted only
    when the allreduce folds it in: the host holds one running sum, not
    a candidate-long vector per rank.  ``nbytes`` is that vector's wire
    size, which is what the allreduce charges."""

    __array_ufunc__ = None  # ``ndarray + _Counts`` defers to ``__radd__``

    def __init__(self, keys: np.ndarray, cands: np.ndarray):
        self.keys, self.cands, self.nbytes = keys, cands, 8 * cands.size

    def __array__(self, dtype=None, copy=None):
        return np.searchsorted(self.keys, self.cands,
                               side="right").astype(np.int64)

    def __add__(self, other):
        return np.asarray(self) + other

    __radd__ = __add__


def histogram_refine_world(world: World, comms: list[Comm],
                           keys_list: list, nsplit: int, *,
                           tolerance: float = 0.10, max_iters: int = 8,
                           samples_per_rank: int = 8) -> list:
    """Select ``nsplit`` splitters by parallel histogram refinement.

    Every round: evaluate the global rank of all candidate values with
    one reduction, keep the best candidate per target quantile, and
    resample new candidates inside the still-unsatisfied brackets.
    Per-rank results (``None`` for failed ranks) in ``comms`` order;
    each is a non-decreasing splitter array whose repeated entries mean
    the refinement hit a duplicate run it cannot cut (rank jumps by the
    value's multiplicity — the mechanism behind HykSort's skew failures
    and the reason SDS-Sort prefers sampling + bitonic selection).
    """
    arrs = [np.asarray(k) for k in keys_list]
    agg = world.allreduce(comms, [int(a.size) for a in arrs])
    n_total = int(world.first_live(comms, agg))
    dtype = arrs[0].dtype
    if nsplit <= 0:
        return [np.zeros(0, dtype=dtype) if world.alive(c) else None
                for c in comms]
    if n_total == 0:
        # a fully drained communicator still needs a well-formed vector
        return [np.zeros(nsplit, dtype=dtype) if world.alive(c) else None
                for c in comms]
    targets = (np.arange(1, nsplit + 1, dtype=np.int64) * n_total) // (nsplit + 1)
    tol = max(1, int(tolerance * n_total / (nsplit + 1)))

    # one concatenation for the whole membership, not a p-long list per rank
    cands = np.unique(world.first_live(comms, world.allgather_staged(
        comms, [_segment_samples(a, None, None, samples_per_rank)
                for a in arrs], np.concatenate)))
    best_val = np.empty(nsplit, dtype=dtype)
    best_err = np.full(nsplit, np.iinfo(np.int64).max, dtype=np.int64)
    best_rank = np.zeros(nsplit, dtype=np.int64)

    for _ in range(max_iters):
        if cands.size == 0:
            break
        # a lone rank's deposit comes back from the fold uncounted
        global_ranks = np.asarray(world.first_live(comms, world.allreduce(
            comms, [_Counts(a, cands) for a in arrs])))
        for i, c in enumerate(comms):
            if world.alive(c):
                c.charge(c.cost.binary_search_time(arrs[i].size, cands.size))
        for t in range(nsplit):
            err = np.abs(global_ranks - targets[t])
            j = int(err.argmin())
            if err[j] < best_err[t]:
                best_err[t] = int(err[j])
                best_val[t] = cands[j]
                best_rank[t] = int(global_ranks[j])
        if bool(np.all(best_err <= tol)):
            break
        news = []
        for i, c in enumerate(comms):
            new = []
            for t in range(nsplit):
                if best_err[t] <= tol:
                    continue
                if best_rank[t] >= targets[t]:
                    lo, hi = None, best_val[t]
                else:
                    lo, hi = best_val[t], None
                new.append(_segment_samples(arrs[i], lo, hi, samples_per_rank))
            news.append(np.concatenate(new) if new
                        else np.zeros(0, dtype=dtype))
        fresh = np.unique(world.first_live(comms, world.allgather_staged(
            comms, news, np.concatenate)))
        fresh = np.setdiff1d(fresh, cands, assume_unique=False)
        if fresh.size == 0:
            break  # duplicate wall: no values left between brackets
        cands = fresh
    pg = np.sort(best_val)
    return [pg if world.alive(c) else None for c in comms]


def histogram_refine(comm: Comm, sorted_keys: np.ndarray, nsplit: int, *,
                     tolerance: float = 0.10, max_iters: int = 8,
                     samples_per_rank: int = 8) -> np.ndarray:
    """Per-rank entry point of :func:`histogram_refine_world`."""
    return histogram_refine_world(
        LANE, [comm], [sorted_keys], nsplit, tolerance=tolerance,
        max_iters=max_iters, samples_per_rank=samples_per_rank)[0]


def select_pivots_histogram_world(world: World, comms: list[Comm],
                                  keys_list: list, *,
                                  tolerance: float = 0.05,
                                  max_iters: int = 10,
                                  samples_per_rank: int = 8) -> list:
    """Choose ``p-1`` global pivots by histogram refinement.

    On data without heavy duplication this matches regular sampling's
    pivot quality with less data movement; on skewed data the returned
    vector contains duplicated pivots wherever a value's multiplicity
    exceeds the bucket size — which classic partitioning cannot
    exploit, but SDS-Sort's skew-aware partitioner can.  Wired into the
    driver via ``SdsParams(pivot_method="histogram")``.
    """
    return histogram_refine_world(
        world, comms, keys_list, comms[0].size - 1, tolerance=tolerance,
        max_iters=max_iters, samples_per_rank=samples_per_rank)


def select_pivots_histogram(comm: Comm, sorted_keys: np.ndarray, *,
                            tolerance: float = 0.05,
                            max_iters: int = 10,
                            samples_per_rank: int = 8) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_histogram_world`."""
    return select_pivots_histogram_world(
        LANE, [comm], [sorted_keys], tolerance=tolerance,
        max_iters=max_iters, samples_per_rank=samples_per_rank)[0]
