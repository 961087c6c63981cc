"""Workload abstraction: named, seeded, shardable dataset generators.

Experiments need the *same* global dataset regardless of how many
simulated ranks consume it, so generators are exposed through
:class:`Workload`, which derives per-rank substreams from one root seed
(``numpy.random.SeedSequence.spawn``) — rank ``r``'s shard is a pure
function of ``(seed, N, p, r)``.

Three routes lead to the same bytes.  :meth:`Workload.shard` is the
definition: numpy's own ``SeedSequence(seed, spawn_key=(rank,))`` +
``default_rng`` per rank — what rank threads run and what every test
compares against.  :meth:`Workload.draw`, the seam the flat engine
draws a world through, computes the same PCG64 streams for a block of
ranks in one pass (:mod:`.seeding`) and writes them into one
:class:`~repro.records.ShardTable` per shard shape: a short shard of a
generator that declares one uniform per key (:class:`OneUniformPerKey`)
is drawn as one ``(ranks, n)`` array, any other shard by one generator
re-seated on each rank's start state.  It takes those routes only where
they are provably the definition (see its docstring) and goes rank by
rank through ``shard`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol, Sequence

import numpy as np
# Bound once at import: ``np.random`` goes through numpy's module-level
# ``__getattr__``, which re-runs the submodule import (and takes the
# interpreter's per-module import lock) on EVERY attribute access —
# with a thousand rank threads calling ``shard`` that lock becomes the
# simulator's hottest serialisation point.
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from ..records import RecordBatch, ShardRows, ShardTable, rank_batches
from .seeding import child_states, child_uniforms, matches_numpy

#: Longest shard :meth:`Workload.draw` draws in lockstep: ≈ 0.3 ms of
#: seeding a block plus ≈ 40 uint64 array passes a key, against ≈ 5 µs
#: a rank for a re-seated generator; uniform keys cross between 96 and
#: 128 (the timing table is in CHANGELOG.md).
_LOCKSTEP_MAX_KEYS = 96


class GeneratorFn(Protocol):
    """Signature of the raw per-shard generators in this package.

    ``rng`` arrives in the state ``default_rng(SeedSequence(seed,
    spawn_key=(rank,)))`` starts in, and the shard is whatever the
    function draws from it: that stream is the contract.  The object is
    not — ``Workload.shards`` hands one ``Generator`` to a whole block
    of ranks, re-seated before each call — so a generator function must
    not keep ``rng`` beyond its return, and ``rng.bit_generator.seed_seq``
    is not the rank's ``SeedSequence``.  A generator whose keys are an
    elementwise function of one uniform each says so by being a
    :class:`OneUniformPerKey`; ``shards`` may then call no generator at
    all and compute the stream (:func:`.seeding.child_uniforms`).
    """

    def __call__(self, n: int, rng: np.random.Generator) -> RecordBatch: ...


@dataclass(frozen=True)
class OneUniformPerKey:
    """A :class:`GeneratorFn` that declares its stream: the shard is
    ``RecordBatch(keys_of(rng.random(n)))``, one uniform per key.

    ``keys_of`` must be elementwise — a key depends on its own uniform
    only, and a 2-D array maps row by row to what each row alone maps
    to, dtype included — because :meth:`Workload.shards` may hand it a
    whole block's ``(ranks, n)`` uniforms at once and cut the rows.
    """

    keys_of: Callable[[np.ndarray], np.ndarray]

    def __call__(self, n: int, rng: np.random.Generator) -> RecordBatch:
        return RecordBatch(self.keys_of(rng.random(n)))


def check_seed(seed: Any) -> None:
    """Reject anything but a non-negative integer, before any rank is
    drawn — numpy would word it three different ways, and take ``None``
    for fresh OS entropy."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(
            f"seed must be a non-negative integer, got {seed!r}")


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
        check_seed(seed)
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
        """The shards of ``ranks`` (default: all ``p``) in one call:
        ``[self.shard(n, p, r, seed) for r in ranks]`` byte for byte,
        the rows of what :meth:`draw` writes."""
        ranks = range(p) if ranks is None else list(ranks)
        rows = ShardRows(len(ranks))
        self.draw(n, p, seed, ranks, rows)
        return rank_batches(rows.entries())

    def draw(self, n: int, p: int, seed: int, ranks: Sequence[int],
             rows: ShardRows) -> None:
        """Write the shards of ``ranks`` into ``rows`` in order (a rank
        that raises leaves those before it written): lockstep uniforms
        through ``keys_of`` when ``fn`` is a :class:`OneUniformPerKey`
        and ``n`` an ``int`` in ``[0, _LOCKSTEP_MAX_KEYS]``, else one
        ``Generator`` re-seated on each rank's start state (``has_uint32``
        / ``uinteger`` reset: a float32 or uint32 draw buffers a
        half-word).  Only where that is the definition — ``shard`` not
        overridden or patched, an ``int`` seed, ranks in ``[0, min(p,
        2**32))``, :func:`.seeding.matches_numpy` — else rank by rank
        through :meth:`shard`, which words an out-of-range rank's error.
        """
        check_seed(seed)
        if not ranks:
            return
        shard = self.shard
        if not (getattr(shard, "__func__", None) is _SHARD
                and isinstance(seed, int)
                and min(ranks) >= 0 and max(ranks) < min(p, 1 << 32)
                and matches_numpy()):
            for r in ranks:
                rows.add(shard(n, p, r, seed))
            return
        fn = self.fn
        if (isinstance(fn, OneUniformPerKey) and type(n) is int
                and 0 <= n <= _LOCKSTEP_MAX_KEYS):
            keys = fn.keys_of(child_uniforms(int(seed), ranks, n))
            rows.add(ShardTable(keys, {}))
            return
        bit_generator = PCG64(0)
        rng = Generator(bit_generator)
        for state, inc in child_states(int(seed), ranks):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            rows.add(fn(n, rng))

    def generate(self, n: int, seed: int = 0) -> RecordBatch:
        """Generate ``n`` records as a single shard (for local studies)."""
        return self.shard(n, 1, 0, seed)

    def global_batch(self, n_per_rank: int, p: int, seed: int = 0) -> RecordBatch:
        """All ``p`` shards concatenated (what the whole machine sorts)."""
        return RecordBatch.concat(self.shards(n_per_rank, p, seed))


#: ``Workload.shard`` as defined above: ``shards`` batches only while
#: this function is still what ``self.shard`` resolves to.
_SHARD = Workload.shard
