"""Replaced pivot-selection formulations, kept verbatim as test oracles.

**The dense PSRS sample gather.**

This was the production ``core/sampling.py::select_pivots_gather_world``
up to PR 14: every rank deposits its expanded ``p - 1`` sample vector
and the root sorts their ``p * (p - 1)``-element concatenation.
Production now gathers run-length encoded samples and selects on the
runs; the dense formulation stays here so ``tests/test_sampling.py``
keeps checking pivots, the root's sort charge and the gather's wire
size against it.

**The per-rank bitonic pivot assembly** (production up to PR 17): every
rank filters all ``p - 1`` pivot positions for those in its block, a
plain allgather hands every rank every contribution, and each lane
sorts and assembles the same ``p - 1`` pairs again.  Production finds
its positions arithmetically and assembles once inside an
allgather-accounted staged collective.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitonic import bitonic_sort_world, is_power_of_two
from repro.core.sampling import (
    SampleRuns,
    _pivot_positions,
    select_pivots_gather_world,
)
from repro.mpi import Comm, World


def select_pivots_gather_dense(world: World, comms: list[Comm],
                               pls: list) -> list:
    """Classic PSRS selection: gather samples on rank 0, sort, broadcast."""
    p = comms[0].size
    gathered_out = world.gather(comms, pls, root=0)
    pgs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if gathered_out[i] is None or not world.alive(c):
            continue
        allp = np.sort(np.concatenate(gathered_out[i]))
        c.charge(c.cost.sort_time(allp.size))
        if allp.size == 0:
            pgs[i] = allp[:0]  # degenerate: no samples anywhere
        else:
            pos = np.minimum(_pivot_positions(p), allp.size - 1)
            pgs[i] = allp[pos]
    return world.bcast(comms, pgs, root=0)


def select_pivots_bitonic_per_rank(world: World, comms: list[Comm],
                                   pls: list) -> list:
    """SdssSelectPivots with per-rank position filter and assembly."""
    p = comms[0].size
    if not is_power_of_two(p):
        return select_pivots_gather_world(world, comms, pls)
    pls = [SampleRuns.of(pl).expand() for pl in pls]
    if p == 1:
        return [pl[:0] for pl in pls]
    blocks = bitonic_sort_world(world, comms, pls)
    m = p - 1  # block length
    positions = _pivot_positions(p)
    mines: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if blocks[i] is None:
            continue
        lo, hi = c.rank * m, (c.rank + 1) * m
        mines[i] = [(int(pos), blocks[i][pos - lo])
                    for pos in positions if lo <= pos < hi]
    contributions = world.allgather(comms, mines)
    pg = None
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        if pg is None:
            pairs = sorted(pair for chunk in contributions[i] for pair in chunk)
            pg = np.asarray([v for _, v in pairs])
        if pg.size != p - 1:
            world.fail(c, AssertionError(
                f"expected {p - 1} global pivots, got {pg.size}"))
            continue
        outs[i] = pg
    return outs
