"""Distributed bitonic sort (Batcher) over the simulated communicator.

SDS-Sort uses bitonic sort for pivot selection (Section 2.4): the
``p*(p-1)`` local pivots are sorted across all ``p`` ranks without ever
gathering them on one node, avoiding the single-rank memory blow-up of
classic PSRS pivot gathering at large ``p``.  The network is charged in
closed form (:func:`bitonic_network_world`), over whatever the caller
computes once from the pooled blocks: the pivot selector's shared host
selection, which never expands the sample runs
(:func:`~repro.core.sampling.select_pivots_bitonic_world`), or
:func:`bitonic_sort_world`'s sort of the pooled keys.

The block-bitonic formulation: every rank keeps a sorted block of equal
length; a compare-exchange step merges a rank's block with its
partner's and keeps the low or high half.  Requires a power-of-two
communicator (callers fall back to gather-based selection otherwise).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..kernels import merge_two
from ..mpi import LANE, Comm, Epilogue, World
from ..mpi.world import members, per_rank, values_at

_TAG_BITONIC = 71


def is_power_of_two(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def bitonic_network_world(world: World, comms: list[Comm], blocks: list,
                          lengths: list[int],
                          compute: Callable[[list], np.ndarray]) -> list:
    """Charge and book the block-bitonic network over one communicator:
    the lengths allgather, each rank's local sort of ``lengths[i]`` keys
    and the ``log2(p)*(log2(p)+1)/2`` compare-exchange rounds, as
    :func:`bitonic_sort_rounds` books them, *in closed form*: after the
    allgather every clock is identical and each round exchanges a
    constant-size block and merges ``2n`` elements, so the increments
    are a fixed scalar sequence, replayed add-for-add once per distinct
    entry clock in one :class:`~repro.mpi.Epilogue`.  A sorting network
    is data-independent, so ``compute(blocks)`` (the deposits, in rank
    order) runs once in the staged collective; its result, an array
    whose itemsize prices a key on the wire, goes to every live rank by
    reference (``None`` for failed ranks), in ``comms`` order.
    """
    p = comms[0].size
    if not is_power_of_two(p):
        raise ValueError(f"bitonic sort needs a power-of-two communicator, got {p}")
    # the lengths allgather, checked once: every rank receives the
    # lengths only if they differ (no private list per rank)
    unequal = world.allgather_staged(
        comms, lengths, lambda ls: None if len(set(ls)) == 1 else ls)

    def local_sort(i: int, c: Comm) -> None:
        if unequal[i] is not None:
            raise ValueError(
                f"bitonic sort needs equal block lengths, got {unequal[i]}")
        c.charge(c.cost.sort_time(lengths[i]))

    world.each(comms, local_sort)
    if p == 1:
        return [compute(blocks) if world.alive(c) else None for c in comms]
    n = lengths[0]
    # the per-round scalars are rank-independent (same machine, equal
    # blocks); the sequential accumulation runs once per entry clock
    cost = comms[0].cost
    pmo = comms[0].machine.per_message_overhead
    mt = cost.merge_time(2 * n, 2)
    stages = p.bit_length() - 1
    rounds = stages * (stages + 1) // 2

    def whole(shared: np.ndarray) -> list:
        sim = comms[0]._world
        live, at, ranks = world._live(comms, *members(comms)[:2])
        if not live:
            return [None] * len(comms)
        nb = n * shared.itemsize
        p2p = cost.p2p_time(nb)
        # replay the per-round clock arithmetic of the message-passing
        # formulation: send charge, then arrival (= partner's identical
        # clock + p2p), then the 2n-element merge — one add each
        t0 = per_rank(sim.clock[at])[0]
        replay: dict[float, float] = {}
        for t in set(t0):
            c0 = t
            for _ in range(rounds):
                t = ((t + pmo) + p2p) + mt
            replay[c0] = t
        debt = sim.set_clocks(at, values_at(at, [replay[t] for t in t0]))
        tr = sim.tracer
        if tr is not None:
            lat0 = cost.p2p_time(0)
            tr.span(at, "p2p", "bitonic_rounds", values_at(at, t0), sim.clock[at],
                    {"rounds": rounds, "bytes": rounds * nb})
            tr.add(at, "cost.compute", rounds * (pmo + mt))
            tr.add(at, "cost.latency", rounds * lat0)
            tr.add(at, "cost.bandwidth", rounds * (p2p - lat0))
            tr.add(at, "cost.fault_debt", debt, debt != 0)
            tr.add(at, "kernel.merge.records", float(rounds * 2 * n))
            tr.add(at, "kernel.merge.seconds", rounds * mt)
            # stage j's partner, met in the stages - j rounds of stage >= j
            tr.edge(np.reshape(at, (-1, 1)), comms[0]._ctx.index[
                np.reshape(ranks, (-1, 1)) ^ (1 << np.arange(stages))],
                nb * np.arange(stages, 0, -1))
        sim.counters.add(at, "p2p.send", rounds)
        sim.counters.add(at, "p2p.recv", rounds)
        sim.counters.add(at, "bytes.sent", float(rounds * nb))
        return [shared if world.alive(c) else None for c in comms]

    return world.collective(
        comms, blocks, lambda stage: compute([e[0] for e in stage]),
        Epilogue(whole))[1]


def bitonic_sort_world(world: World, comms: list[Comm],
                       arrays: list) -> list:
    """Sort blocks of equal length across all ranks of one communicator:
    rank ``r`` receives the ``r``-th block of the sorted concatenation
    (``None`` for failed ranks), in ``comms`` order.  The network's
    closed-form charge over one ``np.sort`` of the pooled blocks:
    clocks, counters and results are bit-for-bit those of
    :func:`bitonic_sort_rounds`, at O(p log p) host cost.
    """
    arrs = [np.asarray(a) for a in arrays]
    n = arrs[0].size
    pooled = bitonic_network_world(
        world, comms, arrs, [a.size for a in arrs],
        lambda blocks: np.sort(np.concatenate(blocks)))
    return [None if s is None else s[c.rank * n:(c.rank + 1) * n]
            for c, s in zip(comms, pooled)]


def bitonic_sort(comm: Comm, keys: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`bitonic_sort_world` (lane view)."""
    return bitonic_sort_world(LANE, [comm], [keys])[0]


def bitonic_sort_rounds(comm: Comm, keys: np.ndarray) -> np.ndarray:
    """Reference block-bitonic implementation over real sendrecv rounds.

    The message-passing formulation :func:`bitonic_sort_world` simulates
    in closed form; kept as the equivalence oracle (same results, same
    clocks) and for communicators whose blocks the fused path cannot
    assume uniform.
    """
    p, rank = comm.size, comm.rank
    if not is_power_of_two(p):
        raise ValueError(f"bitonic sort needs a power-of-two communicator, got {p}")
    lengths = comm.allgather(len(keys))
    if len(set(lengths)) != 1:
        raise ValueError(f"bitonic sort needs equal block lengths, got {lengths}")
    a = np.sort(np.asarray(keys))
    comm.charge(comm.cost.sort_time(a.size))
    if p == 1:
        return a
    stages = p.bit_length() - 1
    for i in range(stages):
        for j in range(i, -1, -1):
            partner = rank ^ (1 << j)
            ascending = ((rank >> (i + 1)) & 1) == 0
            other = comm.sendrecv(a, partner, tag=_TAG_BITONIC)
            merged = merge_two(a, other)
            comm.charge(comm.cost.merge_time(merged.size, 2))
            half = a.size
            keep_low = (rank < partner) == ascending
            a = merged[:half] if keep_low else merged[merged.size - half:]
    return a
