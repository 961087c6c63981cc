"""Science-data workloads: PTF-like and cosmology-like generators.

The paper's real-data evaluation (Section 4.2) uses two datasets we
cannot redistribute; these generators reproduce the *sort-relevant*
statistics the paper reports, which is all the experiments exercise:

* **Palomar Transient Factory (PTF)** — 1e9 records keyed by the
  real/bogus classifier score, whose replication ratio is
  ``delta = 28.02%``: a large point mass of identical scores (bogus
  detections pinned at a default score) plus a continuous tail.
* **Cosmology (GADGET-2 / BD-CATS)** — 68e9 particles keyed by cluster
  ID with ``delta = 0.73%`` (the largest friends-of-friends cluster),
  cluster sizes following a steep power law, and a 6-float payload
  (position x/y/z, velocity vx/vy/vz).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..records import RecordBatch
from .base import Workload

#: Replication ratio of the PTF real-bogus score column (paper, §4.2).
PTF_DELTA = 0.2802
#: Replication ratio of the cosmology cluster-ID column (paper, §4.2).
COSMO_DELTA = 0.0073


def ptf_batch(n: int, rng: np.random.Generator, *, delta: float = PTF_DELTA) -> RecordBatch:
    """``n`` PTF-like records: real-bogus ``score`` key + detection payload.

    A ``delta`` fraction of detections share one exact score (the
    pipeline's default/bogus value, placed at the low end so popular
    values cluster toward one end of the distribution, as the paper
    describes); the rest follow a Beta(2, 5) — a plausible unimodal
    classifier-score shape.  The payload mimics catalogue columns:
    sky position (ra, dec) and observation time (mjd).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    dup = rng.random(n) < delta
    scores = rng.beta(2.0, 5.0, size=n)
    scores[dup] = 0.0
    payload = {
        "ra": rng.uniform(0.0, 360.0, n).astype(np.float32),
        "dec": rng.uniform(-90.0, 90.0, n).astype(np.float32),
        "mjd": rng.uniform(55000.0, 57000.0, n),
    }
    return RecordBatch(scores, payload)


def _powerlaw_cluster_sizes(n: int, delta: float, rng: np.random.Generator,
                            exponent: float = 2.2) -> np.ndarray:
    """Cluster sizes summing to ``n`` whose largest is ``~delta * n``.

    Friends-of-friends cluster mass functions are steep power laws; we
    draw Pareto-distributed sizes, then rescale the largest cluster to
    hit the paper's replication ratio exactly.  An empty shard has one
    cluster of size zero.
    """
    largest = min(n, max(1, int(round(delta * n))))
    sizes = [largest]
    remaining = n - largest
    while remaining > 0:
        # Pareto tail capped at the largest cluster
        s = int(min(largest, max(1, rng.pareto(exponent - 1.0) * 3.0 + 1.0)))
        s = min(s, remaining)
        sizes.append(s)
        remaining -= s
    return np.asarray(sizes, dtype=np.int64)


def cosmology_batch(n: int, rng: np.random.Generator, *,
                    delta: float = COSMO_DELTA) -> RecordBatch:
    """``n`` cosmology-like particles: ``cluster_id`` key + phase-space payload.

    Particles carry an integer cluster ID (the BD-CATS sort key); the
    largest cluster holds ``delta * n`` particles.  Payload is the
    paper's: position (x, y, z) and velocity (vx, vy, vz) as float32.
    """
    sizes = _powerlaw_cluster_sizes(n, delta, rng)
    ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    # scatter particles of each cluster across the input (they arrive
    # interleaved from the simulation's spatial decomposition)
    rng.shuffle(ids)
    keys = ids.astype(np.float64)
    payload = {
        "x": rng.random(n, dtype=np.float32),
        "y": rng.random(n, dtype=np.float32),
        "z": rng.random(n, dtype=np.float32),
        "vx": rng.standard_normal(n).astype(np.float32),
        "vy": rng.standard_normal(n).astype(np.float32),
        "vz": rng.standard_normal(n).astype(np.float32),
    }
    return RecordBatch(keys, payload)


def ptf(delta: float = PTF_DELTA) -> Workload:
    """PTF-like workload (see :func:`ptf_batch`).

    The generator is a ``partial`` of the module-level batch function —
    not a closure — so the Workload pickles.
    """
    return Workload("ptf", partial(ptf_batch, delta=delta), {"delta": delta})


def cosmology(delta: float = COSMO_DELTA) -> Workload:
    """Cosmology-like workload (see :func:`cosmology_batch`)."""
    return Workload("cosmology", partial(cosmology_batch, delta=delta),
                    {"delta": delta})
