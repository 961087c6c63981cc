"""Distributed radix sort baseline (related work, Thearling & Smith '92).

A one-pass MSD bucketing scheme: keys are mapped to order-preserving
unsigned integers, a global histogram over the top bits assigns bucket
ranges to ranks as evenly as the *histogram* allows, one all-to-all
moves the buckets, and each rank finishes with a local sort.  Because
bucket boundaries are value-space (not rank-space) cuts, duplicate
spikes and non-uniform value distributions translate directly into
load imbalance — radix is a non-sampling contrast to both PSRS and
SDS-Sort.

Written in world form on the shared run skeleton
(:class:`~repro.core.pipeline.Run`); the bucket-ownership table is a
pure function of the (identical) reduced histogram, so the columnar
view computes it once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pipeline import Run, RunContext, SortOutcome, local_delta
from ..mpi import LANE, Comm, Cuts, World
from ..records import RecordBatch, sort_batch

#: Number of top bits histogrammed (65536 buckets).
_HIST_BITS = 16


def _key_to_uint(keys: np.ndarray) -> np.ndarray:
    """Order-preserving map of float/int keys to uint64."""
    keys = np.asarray(keys)
    if np.issubdtype(keys.dtype, np.unsignedinteger):
        return keys.astype(np.uint64)
    if np.issubdtype(keys.dtype, np.integer):
        return (keys.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63))
    if np.issubdtype(keys.dtype, np.floating):
        bits = keys.astype(np.float64).view(np.uint64)
        mask = np.where(bits >> np.uint64(63) == 1,
                        np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(1 << 63))
        return bits ^ mask
    raise TypeError(f"unsupported key dtype for radix sort: {keys.dtype}")


@dataclass(slots=True)
class _RadixContext(RunContext):
    """A rank's run state plus the histogram bucket of each of its keys."""

    buckets: np.ndarray | None = None


def _owners(global_hist: np.ndarray, p: int) -> np.ndarray:
    """Owner rank of every bucket: contiguous bucket ranges, balancing
    histogram mass."""
    csum = np.cumsum(global_hist)
    total = int(csum[-1]) if csum.size else 0
    targets = (np.arange(1, p, dtype=np.int64) * total) // p
    cut = np.searchsorted(csum, targets, side="left")
    owner = np.zeros(1 << _HIST_BITS, dtype=np.int64)
    for r, cpos in enumerate(cut):
        owner[int(cpos) + 1:] = r + 1
    return owner


def radix_sort_world(world: World, comms: list[Comm],
                     batches: list) -> list[SortOutcome | None]:
    """Radix-sort record batches over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    p = comms[0].size
    shift = np.uint64(64 - _HIST_BITS)

    def bucket(ctx: _RadixContext) -> None:
        ctx.buckets = (_key_to_uint(ctx.keys) >> shift).astype(np.int64)

    def histogram(ctx: _RadixContext) -> np.ndarray:
        hist = np.bincount(ctx.buckets,
                           minlength=1 << _HIST_BITS).astype(np.int64)
        ctx.comm.charge(ctx.cost.scan_time(ctx.n))
        return hist

    def partition(ctx: _RadixContext, owner: np.ndarray) -> None:
        # the rank's records in destination order, and their cuts
        dest = owner[ctx.buckets]
        ctx.batch = ctx.own_batch().take(np.argsort(dest, kind="stable"))
        ctx.cuts = Cuts.from_displs(np.concatenate(
            ([0], np.cumsum(np.bincount(dest, minlength=p)))))
        ctx.comm.charge(ctx.cost.scan_time(ctx.n))

    def order(ctx: _RadixContext) -> None:
        c, chunks = ctx.comm, ctx.chunks
        out = sort_batch(RecordBatch.concat(chunks) if chunks
                         else RecordBatch.empty_like(ctx.batch))
        c.charge(c.cost.sort_time(len(out), delta=local_delta(out.keys)))
        c.mem.alloc(out.nbytes)
        c.mem.free(sum(ch.nbytes for ch in chunks) - ctx.kept_nbytes())
        ctx.out = out

    with Run(world, comms) as run:
        run.open(batches, context=_RadixContext)
        run.each(bucket)
        run.bank()
        live = run.members()
        with world.phase(live, "pivot_selection"):
            hists = run.each(histogram)
            # the table is identical on every rank: built once
            owner = _owners(world.first_live(
                live, world.allreduce(live, hists)), p)
        run.bank()
        with world.phase(run.members(), "partition"):
            run.each(lambda ctx: partition(ctx, owner))
        ctxs = run.bank()
        live = run.members()
        with world.phase(live, "exchange"):
            outs = world.alltoallv(live, [ctx.batch for ctx in ctxs],
                                   [ctx.cuts for ctx in ctxs])
            for ctx, chunks in zip(ctxs, outs):
                ctx.chunks = chunks
            ctxs = run.bank()
            world.free(run.members(), [ctx.input_nbytes for ctx in ctxs])
        run.bank()
        with world.phase(run.members(), "local_ordering"):
            run.each(order)
        run.finish(lambda ctx: SortOutcome(ctx.out, info={"p_active": p}))
    return run.outcomes


def radix_sort(comm: Comm, batch: RecordBatch) -> SortOutcome:
    """Collectively radix-sort record batches; returns this rank's slice."""
    return radix_sort_world(LANE, [comm], [batch])[0]
