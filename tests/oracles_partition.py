"""Seed-era stable-partition loops, kept verbatim as test oracles.

These were the production path of PR 2: per-run dict assembly of the
global duplicate layout (``assemble_stable_inputs``) and a per-group
scalar loop over it (``partition_stable_local``).  The production code
now uses the batched kernels (``repro.kernels.stable_prefix_layout`` +
``repro.core.partition_stable_arrays``); the loops stay here so the
vectorised rewrites keep being checked against the original
formulation in ``tests/test_partition.py``.

``batched_partition_classic`` is the dense ``(g, p + 1)`` classic
partition the flat backend ran up to PR 14; production builds the
non-empty buckets directly (``repro.core.partition.partition_cuts``) and
is checked against it there too.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import _checked, find_replicated_runs, partition_classic


def partition_stable_local(sorted_keys: np.ndarray, pg: np.ndarray,
                           my_prefix: dict[int, int],
                           totals: dict[int, int]) -> np.ndarray:
    """Stable skew-aware partition given the global duplicate layout.

    Parameters
    ----------
    sorted_keys, pg:
        This rank's sorted data and the global pivots.
    my_prefix:
        For each replicated run (keyed by run start index): the number
        of duplicates of the run's value held by ranks *before* this
        one — i.e. this rank's offset into the global duplicate
        sequence (``sb`` in Figure 2).
    totals:
        For each run: the global duplicate count (``sum(cv)``).
    """
    a, pg = _checked(sorted_keys, pg)
    displs = partition_classic(a, pg)
    for run in find_replicated_runs(pg):
        lo = int(np.searchsorted(a, run.value, side="left"))
        hi = int(np.searchsorted(a, run.value, side="right"))
        cr = hi - lo
        rs = run.length
        total = int(totals[run.start])
        sb = int(my_prefix[run.start])
        # group g owns global duplicate positions [g*total//rs, (g+1)*total//rs)
        pos = 0  # consumed duplicates of mine, in global order
        for g in range(rs):
            gb_lo = (total * g) // rs
            gb_hi = (total * (g + 1)) // rs
            overlap = max(0, min(sb + cr, gb_hi) - max(sb, gb_lo))
            pos += overlap
            displs[run.start + g + 1] = lo + pos
    return displs


def assemble_stable_inputs(all_counts: list[np.ndarray], rank: int,
                           pg: np.ndarray) -> tuple[dict[int, int], dict[int, int]]:
    """Turn allgathered per-run counts into ``(my_prefix, totals)`` dicts."""
    runs = find_replicated_runs(np.asarray(pg))
    my_prefix: dict[int, int] = {}
    totals: dict[int, int] = {}
    for i, run in enumerate(runs):
        counts = np.asarray([c[i] for c in all_counts], dtype=np.int64)
        my_prefix[run.start] = int(counts[:rank].sum())
        totals[run.start] = int(counts.sum())
    return my_prefix, totals


def batched_partition_classic(rows: np.ndarray, pg: np.ndarray
                              ) -> np.ndarray:
    """Classic upper-bound displacements for every row of a stack.

    Row ``i`` of the ``(g, p + 1)`` result equals
    ``partition_classic(rows[i], pg)``: the same
    ``searchsorted(side="right")`` over all pivots at once, bracketed
    by ``0`` and ``n``.
    """
    pg = np.asarray(pg)
    g, n = rows.shape
    out = np.empty((g, pg.size + 2), dtype=np.int64)
    out[:, 0] = 0
    out[:, -1] = n
    for i in range(g):
        out[i, 1:-1] = np.searchsorted(rows[i], pg, side="right")
    return out
