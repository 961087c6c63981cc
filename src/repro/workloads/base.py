"""Workload abstraction: named, seeded, shardable dataset generators.

Experiments need the *same* global dataset regardless of how many
simulated ranks consume it, so generators are exposed through
:class:`Workload`, which derives per-rank substreams from one root seed
(``numpy.random.SeedSequence.spawn``) — rank ``r``'s shard is a pure
function of ``(seed, N, p, r)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol

import numpy as np
# Bound once at import: ``np.random`` goes through numpy's module-level
# ``__getattr__``, which re-runs the submodule import (and takes the
# interpreter's per-module import lock) on EVERY attribute access —
# with a thousand rank threads calling ``shard`` that lock becomes the
# simulator's hottest serialisation point.
from numpy.random import SeedSequence, default_rng

from ..records import RecordBatch


class GeneratorFn(Protocol):
    """Signature of the raw per-shard generators in this package."""

    def __call__(self, n: int, rng: np.random.Generator) -> RecordBatch: ...


@dataclass(frozen=True)
class Workload:
    """A named dataset family.

    Attributes
    ----------
    name: identifier used by benches and the CLI.
    fn: per-shard generator (records are i.i.d. across shards).
    meta: free-form properties (e.g. the Zipf ``alpha``), recorded by
        EXPERIMENTS.md entries.
    """

    name: str
    fn: GeneratorFn
    meta: dict[str, Any] = field(default_factory=dict)

    def shard(self, n: int, p: int, rank: int, seed: int = 0) -> RecordBatch:
        """Generate rank ``rank``'s ``n`` records of a ``p``-rank dataset."""
        if not 0 <= rank < p:
            raise ValueError(f"rank {rank} out of range for p={p}")
        # equivalent to SeedSequence(seed).spawn(p)[rank] — same
        # entropy, same spawn_key=(rank,), hence the identical stream —
        # but O(1) instead of materialising all p children on each of
        # the p ranks (an O(p^2) term that dominated large exact runs)
        child = SeedSequence(seed, spawn_key=(rank,))
        return self.fn(n, default_rng(child))

    def shards(self, n: int, p: int, seed: int = 0,
               ranks: Iterable[int] | None = None) -> list[RecordBatch]:
        """The shards of ``ranks`` (default: all ``p``) in one call.

        Equals ``[self.shard(n, p, r, seed) for r in ranks]`` by
        definition — it dispatches through :meth:`shard`, so a subclass
        that overrides the per-rank generator is honoured.  The flat
        engine draws a world through this seam.
        """
        shard = self.shard
        return [shard(n, p, r, seed)
                for r in (range(p) if ranks is None else ranks)]

    def generate(self, n: int, seed: int = 0) -> RecordBatch:
        """Generate ``n`` records as a single shard (for local studies)."""
        return self.shard(n, 1, 0, seed)

    def global_batch(self, n_per_rank: int, p: int, seed: int = 0) -> RecordBatch:
        """All ``p`` shards concatenated (what the whole machine sorts)."""
        return RecordBatch.concat(self.shards(n_per_rank, p, seed))
