"""Thread-free exact load evaluation (moderate p, real keys).

Runs the *same* partition arithmetic as the SPMD engine — regular
sampling, stride-p pivot selection, classic/fast/stable partitioning,
idealised HykSort value-space cuts — as plain vectorised loops over
per-rank key arrays.  No threads, no communicators: practical to
``p ~ 4096`` on one host, which covers Figure 6c and the functional
halves of the scaling studies.  Results agree with the engine (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.partition import (
    partition_classic,
    partition_fast,
    partition_stable_arrays,
    run_dup_counts,
)
from ..core.sampling import local_sample_runs, pooled_pivots
from ..kernels import stable_prefix_layout
from ..metrics import rdfa
from ..workloads import Workload


@dataclass(frozen=True)
class LoadReport:
    """Per-destination loads of one partitioning strategy."""

    algorithm: str
    p: int
    n_per_rank: int
    loads: np.ndarray

    @property
    def rdfa(self) -> float:
        return rdfa(self.loads)

    @property
    def max_over_avg(self) -> float:
        """max(m_i)/(N/p) — the Theorem 1 quantity (bounded by ~4)."""
        return float(self.loads.max() / self.n_per_rank)


def generate_sorted_shards(workload: Workload, n_per_rank: int, p: int,
                           seed: int = 0) -> list[np.ndarray]:
    """Per-rank sorted key arrays (matching the engine's shard layout)."""
    return [
        np.sort(workload.shard(n_per_rank, p, r, seed).keys)
        for r in range(p)
    ]


def sds_global_pivots(shards: list[np.ndarray]) -> np.ndarray:
    """Regular sampling + stride-p selection over the pooled local pivots,
    by the engine's own host selection (``pooled_pivots``): the pivots
    its bitonic and gather selectors return.
    """
    p = len(shards)
    if p <= 1:
        return np.zeros(0)
    return pooled_pivots([local_sample_runs(s, p) for s in shards], p)[0]


def partition_loads(shards: list[np.ndarray], pg: np.ndarray,
                    method: str = "fast") -> np.ndarray:
    """Per-destination loads for ``method`` in {classic, fast, stable}."""
    p = len(shards)
    loads = np.zeros(p, dtype=np.int64)
    if method == "classic":
        displs = [partition_classic(s, pg) for s in shards]
    elif method == "fast":
        displs = [partition_fast(s, pg) for s in shards]
    elif method == "stable":
        counts = [run_dup_counts(s, pg) for s in shards]
        prefix, totals = stable_prefix_layout(counts)
        displs = [partition_stable_arrays(s, pg, prefix[r], totals)
                  for r, s in enumerate(shards)]
    else:
        raise ValueError(f"unknown method {method!r}")
    for d in displs:
        loads += np.diff(d)
    return loads


def hyksort_value_space_loads(shards: list[np.ndarray], p: int | None = None
                              ) -> np.ndarray:
    """Idealised HykSort loads: best value-space cuts toward quantiles.

    Models the *limit* of histogram splitter refinement: for each
    target rank ``t_j = (j+1)N/p`` the splitter is the key-value
    boundary whose global rank is closest to ``t_j`` — the best any
    key-only histogramming can do.  Duplicate spikes larger than
    ``N/p`` cannot be cut and land on one destination, which is
    HykSort's failure mode.  (The staged k-way recursion changes the
    route, not the final owner of each value range.)
    """
    p = len(shards) if p is None else p
    allkeys = np.sort(np.concatenate(shards))
    n_total = allkeys.size
    values, counts = np.unique(allkeys, return_counts=True)
    cum = np.cumsum(counts)  # global rank of each value boundary
    targets = (np.arange(1, p, dtype=np.int64) * n_total) // p
    # nearest boundary (in rank space) to each target
    idx = np.searchsorted(cum, targets, side="left")
    idx = np.minimum(idx, cum.size - 1)
    prev_ok = idx > 0
    pick_prev = prev_ok & (
        np.abs(cum[np.maximum(idx - 1, 0)] - targets) <= np.abs(cum[idx] - targets)
    )
    idx = np.where(pick_prev, idx - 1, idx)
    bounds = np.concatenate(([0], np.sort(cum[idx]), [n_total]))
    return np.diff(bounds).astype(np.int64)


def _best_value_cuts(sorted_keys: np.ndarray, parts: int) -> np.ndarray:
    """Rank-space cut positions: nearest value boundary to each quantile."""
    n = sorted_keys.size
    values, counts = np.unique(sorted_keys, return_counts=True)
    cum = np.cumsum(counts)
    targets = (np.arange(1, parts, dtype=np.int64) * n) // parts
    idx = np.minimum(np.searchsorted(cum, targets, side="left"), cum.size - 1)
    pick_prev = (idx > 0) & (
        np.abs(cum[np.maximum(idx - 1, 0)] - targets) <= np.abs(cum[idx] - targets)
    )
    idx = np.where(pick_prev, idx - 1, idx)
    return np.sort(cum[idx])


def hyksort_recursive_loads(shards: list[np.ndarray], *, k: int = 128
                            ) -> np.ndarray:
    """Exact multi-level HykSort load evaluation.

    Unlike :func:`hyksort_value_space_loads` (the one-shot idealisation
    that cuts the global multiset directly at the p-1 final quantiles),
    this follows the real recursion: at each level the *group's* pooled
    data is cut at kk per-group quantiles, so an off-target cut at an
    outer level shifts the inner levels' targets — the second-order
    effect the one-shot model ignores.  Used to validate that the
    one-shot model's max load matches (tests) and as the reference for
    the HykSort scaling model.
    """
    def recurse(pooled: np.ndarray, p: int) -> list[int]:
        if p == 1:
            return [int(pooled.size)]
        kk = 1
        for d in range(2, min(k, p) + 1):
            if p % d == 0:
                kk = d
        if kk == 1:
            kk = p  # prime p larger than k: one flat level
        cuts = _best_value_cuts(pooled, kk)
        bounds = np.concatenate(([0], cuts, [pooled.size])).astype(np.int64)
        out: list[int] = []
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            out.extend(recurse(pooled[b0:b1], p // kk))
        return out

    pooled = np.sort(np.concatenate(shards))
    return np.asarray(recurse(pooled, len(shards)), dtype=np.int64)


def evaluate_loads(workload: Workload, n_per_rank: int, p: int, *,
                   method: str = "fast", seed: int = 0) -> LoadReport:
    """End-to-end exact load evaluation for one (workload, p, method).

    ``method`` additionally accepts ``"hyksort"``.
    """
    shards = generate_sorted_shards(workload, n_per_rank, p, seed)
    if method == "hyksort":
        loads = hyksort_value_space_loads(shards)
    else:
        pg = sds_global_pivots(shards)
        loads = partition_loads(shards, pg, method)
    return LoadReport(method, p, n_per_rank, loads)
