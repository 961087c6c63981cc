"""Classic Parallel Sorting by Regular Sampling (Li et al., 1993).

The textbook PSRS algorithm the paper builds on: local sort, regular
sampling, gather-based pivot selection, *classic* upper-bound
partitioning (no skew handling), synchronous all-to-all, k-way merge.
Its ``O(2N/p)`` balance guarantee holds only without duplicated keys —
the contrast SDS-Sort's Theorem 1 is about.

PSRS is composed from the same registered phase strategies as the
SDS-Sort driver (:mod:`repro.core.pipeline`) with every adaptive
decision pinned: gather pivots, classic partition, synchronous fused
exchange, k-way merge.  What the pipeline makes explicit is exactly
what PSRS lacks — no node merge, no skew-aware split, no overlap, no
adaptive final ordering.  Like the SDS driver it is written once in
world form and therefore runs on every backend, including flat.
"""

from __future__ import annotations

from ..core.pipeline import RunContext, SortOutcome, get_phase
from ..mpi import LANE, Comm, FlatAbort, World
from ..records import RecordBatch

#: tau_s pinned far above any real p: PSRS always k-way merges.
_ALWAYS_MERGE = 2**62


def psrs_sort_world(world: World, comms: list[Comm],
                    batches: list[RecordBatch], *,
                    stable: bool = False) -> list[SortOutcome | None]:
    """Run classic PSRS over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    outcomes: list[SortOutcome | None] = [None] * len(comms)
    group = RunContext.start(world, comms, batches, None)

    def prune() -> None:
        nonlocal group
        if world.failures:
            group = [ctx for ctx in group if world.alive(ctx.comm)]

    try:
        if group:
            get_phase("local_sort")(kernel="plain",
                                    stable=stable).run(world, group)
            prune()
        if comms[0].size == 1:
            for ctx in group:
                outcomes[ctx.slot] = SortOutcome(
                    batch=ctx.sorted_batch(), received=ctx.n,
                    info={"p_active": 1, "decisions": ctx.decisions()})
            return outcomes
        if group:
            get_phase("pivot_select")(method="gather",
                                      guard_empty=False).run(world, group)
            get_phase("partition")(variant="classic",
                                   local_pivot_accel=False).run(world, group)
            prune()
        if group:
            get_phase("exchange")(mode="sync", tau_s=_ALWAYS_MERGE,
                                  stable=stable).run(world, group)
            prune()
        for ctx in group:
            outcomes[ctx.slot] = SortOutcome(
                batch=ctx.out, received=len(ctx.out), exchange=ctx.xstats,
                info={"p_active": ctx.comm.size,
                      "decisions": ctx.decisions()})
    except FlatAbort:
        pass  # a collective aborted: unfinished ranks stay ``None``
    return outcomes


def psrs_sort(comm: Comm, batch: RecordBatch, *,
              stable: bool = False) -> SortOutcome:
    """Run classic PSRS collectively; returns this rank's sorted slice.

    ``stable`` only selects the stable local kernels — classic PSRS has
    no mechanism to keep duplicates in source order across ranks, so
    cross-rank stability is *not* guaranteed (that is SDS-Sort's
    contribution).
    """
    return psrs_sort_world(LANE, [comm], [batch], stable=stable)[0]
