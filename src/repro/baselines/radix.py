"""Distributed radix sort baseline (related work, Thearling & Smith '92).

A one-pass MSD bucketing scheme: keys are mapped to order-preserving
unsigned integers, a global histogram over the top bits assigns bucket
ranges to ranks as evenly as the *histogram* allows, one all-to-all
moves the buckets, and each rank finishes with a local sort.  Because
bucket boundaries are value-space (not rank-space) cuts, duplicate
spikes and non-uniform value distributions translate directly into
load imbalance — radix is a non-sampling contrast to both PSRS and
SDS-Sort.

Written in world form; the bucket-ownership table is a pure function
of the (identical) reduced histogram, so the columnar view computes it
once per run.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import SortOutcome, local_delta
from ..mpi import LANE, Comm, Cuts, FlatAbort, World
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


def radix_sort_world(world: World, comms: list[Comm],
                     batches: list) -> list[SortOutcome | None]:
    """Radix-sort record batches over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    outcomes: list[SortOutcome | None] = [None] * len(comms)
    p = comms[0].size
    shift = np.uint64(64 - _HIST_BITS)
    lanes: list[dict] = []
    for i, (c, b) in enumerate(zip(comms, batches)):
        if not world.alive(c):
            continue
        try:
            c.mem.alloc(b.nbytes)
            u = _key_to_uint(b.keys)
            lanes.append({"i": i, "comm": c, "batch": b,
                          "buckets": (u >> shift).astype(np.int64)})
        except BaseException as exc:
            world.fail(c, exc)

    def prune() -> None:
        nonlocal lanes
        lanes = [ln for ln in lanes if world.alive(ln["comm"])]

    try:
        with world.phase([ln["comm"] for ln in lanes], "pivot_selection"):
            for ln in lanes:
                c = ln["comm"]
                try:
                    ln["hist"] = np.bincount(
                        ln["buckets"],
                        minlength=1 << _HIST_BITS).astype(np.int64)
                    c.charge(c.cost.scan_time(len(ln["batch"])))
                except BaseException as exc:
                    world.fail(c, exc)
            prune()
            agg = world.allreduce([ln["comm"] for ln in lanes],
                                  [ln["hist"] for ln in lanes])
            # assign contiguous bucket ranges to ranks, balancing
            # histogram mass; the table is identical on every rank
            owner_of_bucket = None
            for ln, global_hist in zip(lanes, agg):
                if not world.alive(ln["comm"]) or global_hist is None:
                    continue
                if owner_of_bucket is None:
                    csum = np.cumsum(global_hist)
                    total = int(csum[-1]) if csum.size else 0
                    targets = (np.arange(1, p, dtype=np.int64) * total) // p
                    cut = np.searchsorted(csum, targets, side="left")
                    owner_of_bucket = np.zeros(1 << _HIST_BITS,
                                               dtype=np.int64)
                    for r, cpos in enumerate(cut):
                        owner_of_bucket[int(cpos) + 1:] = r + 1
                ln["owner"] = owner_of_bucket
        prune()

        with world.phase([ln["comm"] for ln in lanes], "partition"):
            for ln in lanes:
                c = ln["comm"]
                try:
                    dest = ln["owner"][ln["buckets"]]
                    order = np.argsort(dest, kind="stable")
                    ln["sends"] = ln["batch"].take(order)
                    counts = np.bincount(dest, minlength=p)
                    ln["cuts"] = Cuts.from_displs(np.concatenate(
                        ([0], np.cumsum(counts))))
                    c.charge(c.cost.scan_time(len(ln["batch"])))
                except BaseException as exc:
                    world.fail(c, exc)
        prune()

        with world.phase([ln["comm"] for ln in lanes], "exchange"):
            outs = world.alltoallv([ln["comm"] for ln in lanes],
                                   [ln["sends"] for ln in lanes],
                                   [ln["cuts"] for ln in lanes])
            for ln, chunks in zip(lanes, outs):
                if world.alive(ln["comm"]):
                    ln["chunks"] = chunks
                    ln["comm"].mem.free(ln["batch"].nbytes)
        prune()

        with world.phase([ln["comm"] for ln in lanes], "local_ordering"):
            for ln in lanes:
                c = ln["comm"]
                try:
                    chunks = ln["chunks"]
                    out = sort_batch(RecordBatch.concat(chunks) if chunks
                                     else RecordBatch.empty_like(ln["batch"]))
                    c.charge(c.cost.sort_time(len(out),
                                              delta=local_delta(out.keys)))
                    c.mem.alloc(out.nbytes)
                    c.mem.free(sum(ch.nbytes for ch in chunks))
                    ln["out"] = out
                except BaseException as exc:
                    world.fail(c, exc)
        prune()

        for ln in lanes:
            outcomes[ln["i"]] = SortOutcome(batch=ln["out"],
                                            received=len(ln["out"]),
                                            info={"p_active": p})
    except FlatAbort:
        pass  # a collective aborted: unfinished ranks stay ``None``
    return outcomes


def radix_sort(comm: Comm, batch: RecordBatch) -> SortOutcome:
    """Collectively radix-sort record batches; returns this rank's slice."""
    return radix_sort_world(LANE, [comm], [batch])[0]
