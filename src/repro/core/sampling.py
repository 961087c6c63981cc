"""Regular sampling and global pivot selection (paper Section 2.4).

Both pivot levels use *regular sampling* (equal-stride selection from
sorted data, Li et al.'s terminology):

* each rank picks ``p-1`` **local pivots** at stride ``floor(n/p)``
  from its sorted data — because the data is sorted first, each local
  pivot represents at most ``2N/p^2`` records;
* the ``p*(p-1)`` local pivots are sorted *in parallel with bitonic
  sort* (never gathered onto one rank) and the ``p-1`` **global
  pivots** are read off at stride ``p`` — each represents at most
  ``2N/p`` records, which is the lever behind Theorem 1.

A gather-based selection (sort all local pivots on rank 0, the classic
PSRS approach) is provided both as a fallback for non-power-of-two
communicators and for comparison.

Samples travel **run-length encoded** (:class:`SampleRuns`): a rank's
``p-1`` regular samples are ``keys[floor(k*n/p)]``, so they are fully
described by the distinct sampled positions and how often each is hit,
and that layout depends only on ``(n, p)`` — at most ``min(n, p-1)``
entries per rank instead of ``p-1``.  The gather selector works on the
runs directly (O(E log E) with ``E <= min(N, p*(p-1))`` entries), so the
host never holds ``p*(p-1)`` samples; only the bitonic selector, which
really distributes them, expands the runs.  The *modelled* volume is
unchanged: a deposit's wire size is still ``(p-1) * itemsize`` and the
root's sort charge still counts every sample.

Selectors are written once in world form (``*_world`` over a
:class:`~repro.mpi.world.World` view): shared computations — the
pooled sample sort, the pivot stride — run once per communicator, and
every rank replays only its own collective epilogues and cost charges.
The per-rank entry points below each run the world form over a
:class:`~repro.mpi.world.LaneWorld` singleton.
"""

from __future__ import annotations

import numpy as np
# Bound once at import: ``np.random.X`` re-enters the interpreter's
# import lock on every access (numpy lazy-loads the submodule via
# module __getattr__), which serialises rank threads at scale.
from numpy.random import SeedSequence, default_rng

from ..mpi import LANE, Comm, World
from ..mpi.comm import stores_size
from .bitonic import bitonic_sort_world, is_power_of_two


def _checked_shard(sorted_keys: np.ndarray, p: int) -> np.ndarray:
    a = np.asarray(sorted_keys)
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > 1 and a.size == 0:
        raise ValueError("cannot sample pivots from an empty shard")
    return a


def _sample_index(n: int, p: int) -> np.ndarray:
    """Positions ``min(floor(k*n/p), n-1)``, ``k = 1..p-1``, in ``n`` keys."""
    idx = (np.arange(1, p, dtype=np.int64) * n) // p
    return np.minimum(idx, n - 1)


def local_pivots(sorted_keys: np.ndarray, p: int) -> np.ndarray:
    """``p-1`` regular samples of a rank's sorted data (Figure 1 line 8).

    Sample positions are the fractional stride ``floor(k*n/p)`` for
    ``k = 1..p-1`` rather than the paper's literal ``k*floor(n/p)``:
    when ``p`` does not divide ``n`` the literal stride leaves an
    unsampled tail of up to ``p * (n mod p)`` records that all land on
    the last rank (at the paper's own 128K-core scale this would be a
    162x overload, far above their reported RDFA of 1.05, so their
    implementation cannot be using the literal stride either).
    Degrades gracefully for ``n < p`` by repeating boundary values.
    """
    a = _checked_shard(sorted_keys, p)
    return a[_sample_index(a.size, p)]


@stores_size
class SampleRuns:
    """Regular samples, run-length encoded: one rank's, or the stack of a
    group of ranks whose shards have one length.

    ``values[..., j]`` was sampled ``counts[j]`` times — one row of
    ``values`` a rank, ``counts`` shared (the layout depends only on the
    shard length, :func:`sample_layout`); ``total`` is the number of
    samples a rank represents (``p-1``, or 0 for a rank that has none).
    ``nbytes`` is the wire size of a rank's *expanded* vector, which is
    what :func:`~repro.mpi.comm.payload_nbytes` charges, stored when
    the runs are built.  Every rank of a stack deposits the stack
    itself: the ``k``-th of them in communicator rank order holds row
    ``k`` (:func:`_rank_rows`).
    """

    __slots__ = ("values", "counts", "total", "nbytes")

    def __init__(self, values: np.ndarray, counts: np.ndarray, total: int):
        self.values = values
        self.counts = counts
        self.total = total
        self.nbytes = total * values.dtype.itemsize

    @classmethod
    def empty(cls, rows: int, dtype) -> "SampleRuns":
        """A stack of ``rows`` ranks that have no samples."""
        return cls(np.empty((rows, 0), dtype), np.zeros(0, np.int64), 0)

    @classmethod
    def of(cls, samples) -> "SampleRuns":
        """Pass runs through; wrap a plain sample vector as unit runs."""
        if isinstance(samples, cls):
            return samples
        a = np.asarray(samples)
        return cls(a, np.ones(a.size, dtype=np.int64), a.size)

    def expand(self) -> np.ndarray:
        return np.repeat(self.values, self.counts, axis=-1)


def sample_layout(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions and multiplicities of :func:`local_pivots`.

    A function of ``(n, p)`` only, so same-length shards share it; at
    most ``min(n, p-1)`` entries.
    """
    idx = _sample_index(n, p)
    if idx.size == 0:
        return idx, idx
    first = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    return idx[first], np.diff(np.concatenate((first, [idx.size])))


def sample_stack(rows: np.ndarray, p: int) -> SampleRuns:
    """:func:`local_pivots` of every row of a ``(g, n)`` matrix of sorted
    shards as one :class:`SampleRuns` stack, a row a shard (same errors).
    The rows share one :func:`sample_layout`: while ``n < p`` every
    position (the stack is the matrix itself), from ``n >= p`` ``p-1``
    positions, taken as one column selection.
    """
    a = _checked_shard(rows[0], p)
    if p == 1:
        return SampleRuns.empty(len(rows), a.dtype)
    pos, counts = sample_layout(a.size, p)
    return SampleRuns(rows if pos.size == a.size else rows[:, pos], counts,
                      p - 1)


def local_sample_runs(sorted_keys: np.ndarray, p: int) -> SampleRuns:
    """:func:`local_pivots` of one shard as :class:`SampleRuns` (same
    errors): its row of :func:`sample_stack`."""
    stack = sample_stack(np.asarray(sorted_keys)[None], p)
    return SampleRuns(stack.values[0], stack.counts, stack.total)


def _rank_rows(pls: list) -> list[tuple[SampleRuns, int | None]]:
    """``(runs, row)`` of every rank of ``pls`` (communicator rank
    order): a stack's ``k``-th depositor holds its row ``k``; a rank's
    own one-dimensional runs have row ``None``."""
    out: list = [None] * len(pls)
    seen: dict[SampleRuns, int] = {}
    for i, pl in enumerate(pls):
        runs = pl if type(pl) is SampleRuns else SampleRuns.of(pl)
        k = None
        if runs.values.ndim == 2:
            k = seen[runs] = seen.get(runs, -1) + 1
        out[i] = (runs, k)
    return out


def _pooled(runs: list) -> tuple[np.ndarray, np.ndarray, int]:
    """Every rank's sample runs concatenated in rank order: ``(values,
    counts, total)``.  One stack holding every rank is read as it is."""
    first = runs[0]
    if (first.values.ndim == 2 and first.values.shape[0] == len(runs)
            and runs.count(first) == len(runs)):
        return (first.values.ravel(), np.tile(first.counts, len(runs)),
                first.total * len(runs))
    rows = _rank_rows(runs)
    return (np.concatenate([r.values if k is None else r.values[k]
                            for r, k in rows]),
            np.concatenate([r.counts for r, _ in rows]),
            sum(r.total for r, _ in rows))


def _expanded(pls: list) -> list[np.ndarray]:
    """Every rank's expanded sample vector, each stack expanded once."""
    stacks: dict[SampleRuns, np.ndarray] = {}
    out = []
    for runs, k in _rank_rows(pls):
        if k is None:
            out.append(runs.expand())
            continue
        full = stacks.get(runs)
        if full is None:
            full = stacks[runs] = runs.expand()
        out.append(full[k])
    return out


def _pivot_positions(p: int) -> np.ndarray:
    """Global positions of the ``p-1`` pivots within the sorted samples.

    Stride ``p`` through the ``p*(p-1)`` sorted local pivots:
    position ``(k+1)*p - 1`` for ``k = 0..p-2``.
    """
    return (np.arange(1, p, dtype=np.int64) * p) - 1


def select_pivots_gather_world(world: World, comms: list[Comm],
                               pls: list) -> list:
    """Classic PSRS selection: gather samples on rank 0, sort, broadcast.

    ``pls`` holds each rank's samples, as :class:`SampleRuns` (a stack
    deposited by each of its ranks) or as the plain vector.  The root
    never expands them: pivot ``k`` is the
    smallest value whose cumulative multiplicity over the value-sorted
    runs exceeds position ``(k+1)*p - 1`` — the value
    ``np.sort(concatenate(samples))`` holds there — and the root is
    charged for sorting every sample represented.  The selection runs
    once; every other rank only replays its gather/bcast epilogues.
    Per-rank results (``None`` for failed ranks) in ``comms`` order.
    """
    p = comms[0].size
    gathered_out = world.gather(comms, [SampleRuns.of(pl) for pl in pls],
                                root=0)
    pgs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if gathered_out[i] is None or not world.alive(c):
            continue
        values, counts, total = _pooled(gathered_out[i])
        c.charge(c.cost.sort_time(total))
        if total == 0:
            pgs[i] = values[:0]  # degenerate: no samples anywhere
        else:
            order = np.argsort(values)
            cum = np.cumsum(counts[order])
            pos = np.minimum(_pivot_positions(p), total - 1)
            pgs[i] = values[order[np.searchsorted(cum, pos, side="right")]]
    return world.bcast(comms, pgs, root=0)


def select_pivots_gather(comm: Comm, pl: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_gather_world`."""
    return select_pivots_gather_world(LANE, [comm], [pl])[0]


def select_pivots_oversample_world(world: World, comms: list[Comm],
                                   keys_list: list, *,
                                   oversample: int = 32,
                                   seed: int = 0) -> list:
    """Random-oversampling pivot selection (Frazer & McKellar, 1970).

    The original samplesort recipe, the paper's citation [15]: each
    rank contributes ``oversample`` *random* samples (rather than
    regular quantile samples); the pooled ``oversample * p`` samples
    are sorted and the ``p-1`` equally spaced elements become pivots.
    Pivot quality improves like ``1/sqrt(oversample)``; regular
    sampling of locally *sorted* data achieves better quality at the
    same budget because each sample is already a local quantile —
    ``bench_ext_oversampling.py`` measures the gap.

    The per-rank RNG draws use ``SeedSequence([seed, rank])`` streams;
    the pooled sort and stride selection run once — every rank's pooled
    vector is identical — and each live rank charges its own
    ``sort_time`` replay.
    """
    p = comms[0].size
    arrs = [np.asarray(k) for k in keys_list]
    if p == 1:
        return [a[:0] for a in arrs]

    def draw(i: int, c: Comm) -> np.ndarray:
        a = arrs[i]
        if a.size == 0:
            raise ValueError("cannot sample pivots from an empty shard")
        rng = default_rng(SeedSequence([seed, c.rank]))
        take = min(max(1, oversample), a.size)
        return a[rng.integers(0, a.size, size=take)]

    all_samples = world.allgather(comms, world.each(comms, draw))
    pooled = pg = None
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        if pooled is None:
            pooled = np.sort(np.concatenate(all_samples[i]))
            pos = (np.arange(1, p, dtype=np.int64) * pooled.size) // p
            pg = pooled[np.minimum(pos, pooled.size - 1)]
        c.charge(c.cost.sort_time(pooled.size))
        outs[i] = pg
    return outs


def select_pivots_oversample(comm: Comm, sorted_keys: np.ndarray, *,
                             oversample: int = 32,
                             seed: int = 0) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_oversample_world`."""
    return select_pivots_oversample_world(
        LANE, [comm], [sorted_keys], oversample=oversample, seed=seed)[0]


def _assemble_pivots(chunks: list) -> np.ndarray:
    """The pivot vector from every block's ``(position, value)`` pairs."""
    pairs = sorted(pair for chunk in chunks for pair in chunk)
    return np.asarray([v for _, v in pairs])


def select_pivots_bitonic_world(world: World, comms: list[Comm],
                                pls: list) -> list:
    """SdssSelectPivots: sort samples with parallel bitonic, pick stride p.

    After the bitonic sort, rank ``r`` holds global sample positions
    ``[r*(p-1), (r+1)*(p-1))``; each rank contributes the pivot
    positions ``j*p - 1`` that landed in its block (``j`` from
    ``ceil((lo+1)/p)`` to ``floor(hi/p)``: at most one per rank, found
    without a pass over all ``p-1``) and one allgather-accounted staged
    collective assembles the full pivot vector once per communicator
    and hands it to every rank by reference.
    This selector really distributes the ``p*(p-1)`` samples, so
    :class:`SampleRuns` inputs are expanded here.  Falls back to
    :func:`select_pivots_gather_world` when the communicator is not a
    power of two.
    """
    p = comms[0].size
    if not is_power_of_two(p):
        return select_pivots_gather_world(world, comms, pls)
    pls = _expanded(pls)
    if p == 1:
        return [pl[:0] for pl in pls]
    blocks = bitonic_sort_world(world, comms, pls)
    m = p - 1  # block length
    mines: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if blocks[i] is None:
            continue
        lo, hi = c.rank * m, (c.rank + 1) * m
        mines[i] = [(j * p - 1, blocks[i][j * p - 1 - lo])
                    for j in range(-(-(lo + 1) // p), hi // p + 1)]
    pgs = world.allgather_staged(comms, mines, _assemble_pivots)
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        pg = pgs[i]
        if pg.size != p - 1:
            world.fail(c, AssertionError(
                f"expected {p - 1} global pivots, got {pg.size}"))
            continue
        outs[i] = pg
    return outs


def select_pivots_bitonic(comm: Comm, pl: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_bitonic_world`."""
    return select_pivots_bitonic_world(LANE, [comm], [pl])[0]
