"""Additional workloads beyond the paper's four.

The paper's future work plans "more tests with well-known sorting
benchmarks and scientific data sets"; these generators cover that
ground:

* **graysort** — sort-benchmark.org style records: 10-byte keys with a
  90-byte opaque payload (modelled as a uint64 key + 11 float64 words,
  96 bytes/record), uniform random keys;
* **staggered** — rank ``r`` holds only values in its own disjoint
  sub-range, in *reverse* rank order: an adversarial non-i.i.d. layout
  where nearly 100% of records must travel in the exchange and naive
  global sampling (without per-rank local sorting first) would pick
  terrible pivots;
* **gaussian / exponential** — smooth but non-uniform continuous
  distributions: no duplicates, yet equal-width partitioners (radix)
  go unbalanced while sampling-based ones stay flat;
* **reverse** — globally reverse-sorted input, the classic worst case
  for adaptive sorts (every adjacent pair out of order).
"""

from __future__ import annotations

from functools import partial

import numpy as np
# See base.py: avoid numpy's lazy ``np.random`` __getattr__ (it takes
# the import lock per access) on per-rank call paths.
from numpy.random import SeedSequence, default_rng

from ..records import RecordBatch
from .base import Workload, check_seed

#: GraySort record layout: 10-byte key + 90-byte payload, modelled as
#: one uint64 key column plus 11 opaque float64 words = 96 bytes.
GRAYSORT_PAYLOAD_WORDS = 11


def graysort_batch(n: int, rng: np.random.Generator) -> RecordBatch:
    """``n`` sort-benchmark style records with uniform uint64 keys."""
    keys = rng.integers(0, np.iinfo(np.int64).max, n, dtype=np.int64)
    payload = {
        f"w{i}": rng.random(n) for i in range(GRAYSORT_PAYLOAD_WORDS)
    }
    return RecordBatch(keys, payload)


def graysort() -> Workload:
    return Workload("graysort", graysort_batch,
                    {"record_bytes": 8 * (1 + GRAYSORT_PAYLOAD_WORDS)})


def gaussian_batch(n: int, rng: np.random.Generator, *, mu: float,
                   sigma: float) -> RecordBatch:
    return RecordBatch(rng.normal(mu, sigma, n))


def exponential_batch(n: int, rng: np.random.Generator, *,
                      scale: float) -> RecordBatch:
    return RecordBatch(rng.exponential(scale, n))


def reverse_sorted_batch(n: int, rng: np.random.Generator) -> RecordBatch:
    return RecordBatch(np.sort(rng.random(n))[::-1].copy())


# module-level generators bound with ``partial`` keep Workloads
# picklable

def gaussian(mu: float = 0.0, sigma: float = 1.0) -> Workload:
    return Workload("gaussian", partial(gaussian_batch, mu=mu, sigma=sigma),
                    {"mu": mu, "sigma": sigma})


def exponential(scale: float = 1.0) -> Workload:
    return Workload("exponential", partial(exponential_batch, scale=scale),
                    {"scale": scale})


def reverse_sorted() -> Workload:
    return Workload("reverse", reverse_sorted_batch)


def _staggered_fallback_batch(n: int, rng: np.random.Generator) -> RecordBatch:
    """Plain-uniform stand-in for ``Workload.fn`` (shard() is overridden);
    module-level so a staggered Workload still pickles."""
    return RecordBatch(rng.random(n))


class StaggeredWorkload(Workload):
    """Non-i.i.d. shards: rank ``r`` of ``p`` holds only the value range
    belonging to rank ``p-1-r`` — everything must move, and the global
    key distribution is invisible to any single shard.

    Workload.shard is overridden because the generator needs to know
    ``(rank, p)``, unlike the i.i.d. families.
    """

    def __init__(self) -> None:
        super().__init__("staggered", _staggered_fallback_batch)

    def shard(self, n: int, p: int, rank: int, seed: int = 0) -> RecordBatch:
        check_seed(seed)
        if not 0 <= rank < p:
            raise ValueError(f"rank {rank} out of range for p={p}")
        # O(1) equivalent of SeedSequence(seed).spawn(p)[rank] (see base.py)
        child = SeedSequence(seed, spawn_key=(rank,))
        rng = default_rng(child)
        src = p - 1 - rank  # my values belong at the opposite end
        lo, hi = src / p, (src + 1) / p
        return RecordBatch(rng.uniform(lo, hi, n))


def staggered() -> Workload:
    return StaggeredWorkload()
