"""The dense PSRS sample gather, kept verbatim as a test oracle.

This was the production ``core/sampling.py::select_pivots_gather_world``
up to PR 14: every rank deposits its expanded ``p - 1`` sample vector
and the root sorts their ``p * (p - 1)``-element concatenation.
Production now gathers run-length encoded samples and selects on the
runs; the dense formulation stays here so ``tests/test_sampling.py``
keeps checking pivots, the root's sort charge and the gather's wire
size against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import _pivot_positions
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
