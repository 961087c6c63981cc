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
entries per rank instead of ``p-1``.  Bitonic and gather pick the same
positions of the same sorted samples, so the host selects once, on the
runs (:func:`pooled_pivots`, O(E log E) with ``E <= min(N, p*(p-1))``
entries), and never holds ``p*(p-1)`` samples.  The method decides only
what is *modelled*: the bitonic network's closed-form charge, or the
gather (a deposit's wire size still ``(p-1) * itemsize``) and the
root's sort of every sample.

Selectors are written once in world form (``*_world`` over a
:class:`~repro.mpi.world.World` view): shared computations — the
pooled sample selection — run once per communicator, and every rank
replays only its own collective epilogues and cost charges.
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
from ..mpi.comm import payload_nbytes, stores_size
from .bitonic import bitonic_network_world, is_power_of_two


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
    ``k`` (:func:`_pooled`).
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


def _pooled(runs: list) -> np.ndarray:
    """Every rank's :class:`SampleRuns` values concatenated in
    communicator rank order.  A stack's ``k``-th depositor holds its row
    ``k``; one stack holding every rank is read as it is."""
    first = runs[0]
    if (first.values.ndim == 2 and first.values.shape[0] == len(runs)
            and runs.count(first) == len(runs)):
        return first.values.ravel()
    rows: dict[SampleRuns, int] = {}
    values = []
    for r in runs:
        if r.values.ndim == 2:
            rows[r] = k = rows.get(r, -1) + 1
            values.append(r.values[k])
        else:
            values.append(r.values)
    return np.concatenate(values)


def _pivot_positions(p: int) -> np.ndarray:
    """Global positions of the ``p-1`` pivots within the sorted samples.

    Stride ``p`` through the ``p*(p-1)`` sorted local pivots:
    position ``(k+1)*p - 1`` for ``k = 0..p-2``.
    """
    return (np.arange(1, p, dtype=np.int64) * p) - 1


def pooled_pivots(runs: list, p: int) -> tuple[np.ndarray, int]:
    """The host pivot selection: ``(pivots, samples represented)`` of
    every rank's :class:`SampleRuns` (rank order), never expanded.
    Pivot ``k`` is the smallest value whose cumulative multiplicity over
    the value-sorted runs exceeds position ``(k+1)*p - 1`` — the value
    ``np.sort(concatenate(samples))`` holds there.  Gather and bitonic
    both select here and differ only in what they charge.
    """
    values, total = _pooled(runs), sum(r.total for r in runs)
    if total == 0:
        return values[:0], 0  # degenerate: no samples anywhere
    pos = np.minimum(_pivot_positions(p), total - 1)
    if total == values.size:  # every run one sample: the runs are the samples
        return np.sort(values)[pos], total
    order = np.argsort(values)
    cum = np.cumsum(np.concatenate([r.counts for r in runs])[order])
    return values[order[np.searchsorted(cum, pos, side="right")]], total


def select_pivots_gather_world(world: World, comms: list[Comm],
                               pls: list) -> list:
    """Classic PSRS selection: gather samples on rank 0, sort, broadcast.

    ``pls`` holds each rank's samples, as :class:`SampleRuns` (a stack
    deposited by each of its ranks) or as the plain vector.  The root
    selects with :func:`pooled_pivots` and is charged for sorting every
    sample represented.  The selection runs once; every other rank only
    replays its gather/bcast epilogues.  Per-rank results (``None`` for
    failed ranks) in ``comms`` order.
    """
    p = comms[0].size
    gathered_out = world.gather(comms, [SampleRuns.of(pl) for pl in pls],
                                root=0)
    pgs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if gathered_out[i] is None or not world.alive(c):
            continue
        pgs[i], total = pooled_pivots(gathered_out[i], p)
        c.charge(c.cost.sort_time(total))
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
    the pooled sort runs once, in the allgather (every rank reads the
    one sorted vector), the stride selection once, and each live rank
    charges its own ``sort_time`` replay.
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

    pooled = world.allgather_staged(comms, world.each(comms, draw),
                                    lambda runs: np.sort(np.concatenate(runs)))
    pg = None
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        if pg is None:
            pos = (np.arange(1, p, dtype=np.int64) * pooled[i].size) // p
            pg = pooled[i][np.minimum(pos, pooled[i].size - 1)]
        c.charge(c.cost.sort_time(pooled[i].size))
        outs[i] = pg
    return outs


def select_pivots_oversample(comm: Comm, sorted_keys: np.ndarray, *,
                             oversample: int = 32,
                             seed: int = 0) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_oversample_world`."""
    return select_pivots_oversample_world(
        LANE, [comm], [sorted_keys], oversample=oversample, seed=seed)[0]


def select_pivots_bitonic_world(world: World, comms: list[Comm],
                                pls: list) -> list:
    """SdssSelectPivots: sort samples with parallel bitonic, pick stride p.

    The network leaves rank ``r`` sorted positions ``[r*(p-1),
    (r+1)*(p-1))``, which hold one pivot position, ``r*p - 1``, for
    ``r >= 1`` (none for rank 0); an allgather of those ``(position,
    value)`` pairs assembles the pivots.  The network is
    data-independent, so :func:`pooled_pivots` reads them off the runs
    once, inside its staged collective; what is booked is the network
    (:func:`~repro.core.bitonic.bitonic_network_world`, blocks of
    ``p-1``) and the allgather of each rank's pair.  Every rank receives
    the one vector by reference.  Non-power-of-two communicators fall
    back to :func:`select_pivots_gather_world`.
    """
    p = comms[0].size
    if not is_power_of_two(p):
        return select_pivots_gather_world(world, comms, pls)
    runs = [SampleRuns.of(pl) for pl in pls]
    if p == 1:
        return [r.values.ravel()[:0] for r in runs]
    pg = world.first_live(comms, bitonic_network_world(
        world, comms, runs, [r.total for r in runs],
        lambda objs: pooled_pivots(objs, p)[0]))
    # a (position, value) pair's wire bytes; rank 0 holds no pair
    wire = [b"", bytes(payload_nbytes((0, pg[0])))]
    world.allgather_staged(comms, [wire[c.rank > 0] for c in comms],
                           lambda _: pg)
    return [pg if world.alive(c) else None for c in comms]


def select_pivots_bitonic(comm: Comm, pl: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_bitonic_world`."""
    return select_pivots_bitonic_world(LANE, [comm], [pl])[0]
