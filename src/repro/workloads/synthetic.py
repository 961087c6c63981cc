"""Synthetic workloads: Uniform, Zipf, partially ordered.

The paper's synthetic evaluation (Section 4.1) uses two families:

* **Uniform** — standard uniform floats, the classic parallel-sorting
  benchmark input.
* **Zipf** — ``p(i) = C / i^alpha`` over a universe of ``K`` distinct
  values.  The paper's Table 2 maps the Zipf exponent to the *maximum
  replication ratio* ``delta = d/N`` (``d`` = multiplicity of the most
  frequent key); matching its numbers (alpha 0.4..0.9 -> delta 0.2%..
  6.4%, and Table 1's alpha 1.4 -> 32%, 2.1 -> 63%) pins the universe
  at ``K ~= 10,000`` distinct values, which is what we use by default.

Partially ordered inputs (Section 2.7 motivation) come in two shapes:
``k`` concatenated sorted runs (what a rank holds right after the
exchange) and "nearly sorted" data with a fraction of random
perturbations.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from ..records import RecordBatch
from .base import OneUniformPerKey, Workload

#: Universe size that reproduces the paper's alpha -> delta table.
ZIPF_UNIVERSE = 10_000


def uniform_keys(u: np.ndarray) -> np.ndarray:
    """The uniform workload's keys are its uniforms."""
    return u


#: ``uniform_batch(n, rng)``: ``n`` uniform float64 keys in [0, 1), no
#: payload.
uniform_batch = OneUniformPerKey(uniform_keys)


def zipf_pmf(alpha: float, universe: int = ZIPF_UNIVERSE) -> np.ndarray:
    """Normalised Zipf probabilities ``C / i^alpha`` for ``i = 1..universe``."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


@lru_cache(maxsize=32)
def _zipf_cdf(alpha: float, universe: int) -> np.ndarray:
    """Read-only normalised CDF of :func:`zipf_pmf`, built the way
    ``Generator.choice(p=pmf)`` builds its own on every call."""
    cdf = zipf_pmf(alpha, universe).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def zipf_delta(alpha: float, universe: int = ZIPF_UNIVERSE) -> float:
    """Expected max replication ratio of a Zipf(alpha) workload.

    This is the analytic counterpart of the paper's Table 2: the most
    frequent value is rank 1, whose probability is the normalisation
    constant ``C = 1 / H_universe(alpha)``.
    """
    return float(zipf_pmf(alpha, universe)[0])


def zipf_keys(u: np.ndarray, *, alpha: float = 0.7,
              universe: int = ZIPF_UNIVERSE) -> np.ndarray:
    """Zipf keys of uniforms ``u`` (any shape), elementwise.

    Keys are the value's rank index (popular values cluster toward the
    low end of the distribution, as the paper describes for skewed
    science data), jittered by nothing — duplicates are exact, which is
    the property that breaks sample-based partitioners.

    One uniform per key, inverted through the CDF: what
    ``rng.choice(universe, size=n, p=zipf_pmf(...))`` does with
    ``rng.random(n)``, with the 10 000-entry pmf, its validation and its
    ``cumsum`` paid once per ``(alpha, universe)`` instead of once per
    shard.
    """
    # ``universe`` is a client's number: memoised up to the default (32 x
    # 80 KB at most), built per call and dropped above it, as ``choice`` does
    build = _zipf_cdf if universe <= ZIPF_UNIVERSE else _zipf_cdf.__wrapped__
    idx = build(alpha, universe).searchsorted(u, side="right")
    return idx.astype(np.float64)


def zipf_batch(n: int, rng: np.random.Generator, *, alpha: float = 0.7,
               universe: int = ZIPF_UNIVERSE) -> RecordBatch:
    """``n`` Zipf-distributed float64 keys (:func:`zipf_keys`)."""
    return RecordBatch(zipf_keys(rng.random(n), alpha=alpha,
                                 universe=universe))


def runs_batch(n: int, rng: np.random.Generator, *, runs: int = 16) -> RecordBatch:
    """``n`` keys forming ``runs`` concatenated sorted runs.

    Models the post-exchange state of a rank: ``p`` sorted chunks back
    to back.
    """
    runs = max(1, min(runs, n)) if n else 1
    bounds = np.linspace(0, n, runs + 1).astype(np.int64)
    keys = rng.random(n)
    for i in range(runs):
        keys[bounds[i]:bounds[i + 1]].sort()
    return RecordBatch(keys)


def nearly_sorted_batch(n: int, rng: np.random.Generator, *,
                        disorder: float = 0.01) -> RecordBatch:
    """Sorted keys with a ``disorder`` fraction of random transpositions."""
    if not 0.0 <= disorder <= 1.0:
        raise ValueError("disorder must be in [0, 1]")
    keys = np.sort(rng.random(n))
    swaps = int(n * disorder / 2)
    if swaps:
        i = rng.integers(0, n, size=swaps)
        j = rng.integers(0, n, size=swaps)
        keys[i], keys[j] = keys[j].copy(), keys[i].copy()
    return RecordBatch(keys)


def uniform_payload_batch(n: int, rng: np.random.Generator, *,
                          payload_floats: int) -> RecordBatch:
    """Uniform keys plus ``payload_floats`` random float64 columns."""
    keys = rng.random(n)
    return RecordBatch(
        keys, {f"v{i}": rng.random(n) for i in range(payload_floats)})


# Workload generators are module-level callables bound with ``partial``
# (not closures) so a Workload, and a rank program holding one, pickles.

def uniform(payload_floats: int = 0) -> Workload:
    """Uniform workload, optionally with ``payload_floats`` float64 columns."""
    if payload_floats == 0:
        return Workload("uniform", uniform_batch)
    return Workload("uniform",
                    partial(uniform_payload_batch,
                            payload_floats=payload_floats),
                    {"payload_floats": payload_floats})


def zipf(alpha: float = 0.7, universe: int = ZIPF_UNIVERSE) -> Workload:
    """Zipf workload with the paper's universe calibration."""
    return Workload(
        f"zipf-{alpha:g}",
        OneUniformPerKey(partial(zipf_keys, alpha=alpha, universe=universe)),
        {"alpha": alpha, "universe": universe, "delta": zipf_delta(alpha, universe)},
    )


def partially_ordered(runs: int = 16) -> Workload:
    """Concatenated-sorted-runs workload."""
    return Workload(f"runs-{runs}", partial(runs_batch, runs=runs),
                    {"runs": runs})


def nearly_sorted(disorder: float = 0.01) -> Workload:
    """Nearly-sorted workload."""
    return Workload(f"nearly-sorted-{disorder:g}",
                    partial(nearly_sorted_batch, disorder=disorder),
                    {"disorder": disorder})
