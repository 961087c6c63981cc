"""Classic Parallel Sorting by Regular Sampling (Li et al., 1993).

The textbook PSRS algorithm the paper builds on: local sort, regular
sampling, gather-based pivot selection, *classic* upper-bound
partitioning (no skew handling), synchronous all-to-all, k-way merge.
Its ``O(2N/p)`` balance guarantee holds only without duplicated keys —
the contrast SDS-Sort's Theorem 1 is about.

PSRS is composed from the same phase strategies, on the same run
skeleton, as the SDS-Sort driver (:mod:`repro.core.pipeline`) with
every adaptive decision pinned: gather pivots, classic partition,
synchronous fused exchange, k-way merge.  What the pipeline makes explicit is exactly
what PSRS lacks — no node merge, no skew-aware split, no overlap, no
adaptive final ordering.  Like the SDS driver it is written once in
world form and therefore runs on every backend, including flat.
"""

from __future__ import annotations

from ..core.pipeline import (
    Exchange,
    LocalSort,
    Partition,
    PivotSelect,
    Run,
    RunContext,
    SortOutcome,
)
from ..mpi import LANE, Comm, World
from ..records import RecordBatch

#: tau_s pinned far above any real p: PSRS always k-way merges.
_ALWAYS_MERGE = 2**62


def _singleton_outcome(ctx: RunContext) -> SortOutcome:
    return SortOutcome(batch=ctx.sorted_batch(), received=ctx.n,
                       info={"p_active": 1, "decisions": ctx.decisions()})


def _sorted_outcome(ctx: RunContext) -> SortOutcome:
    return SortOutcome(batch=ctx.out, received=len(ctx.out),
                       exchange=ctx.xstats,
                       info={"p_active": ctx.comm.size,
                             "decisions": ctx.decisions()})


def psrs_sort_world(world: World, comms: list[Comm],
                    batches: list[RecordBatch], *,
                    stable: bool = False) -> list[SortOutcome | None]:
    """Run classic PSRS over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    with Run(world, comms) as run:
        run.open(batches)
        run.step(LocalSort(stable=stable))
        if comms[0].size == 1:
            run.finish(_singleton_outcome)
            return run.outcomes
        run.step(PivotSelect(method="gather", guard_empty=False),
                 Partition(variant="classic", local_pivot_accel=False))
        run.step(Exchange(mode="sync", tau_s=_ALWAYS_MERGE, stable=stable))
        run.finish(_sorted_outcome)
    return run.outcomes


def psrs_sort(comm: Comm, batch: RecordBatch, *,
              stable: bool = False) -> SortOutcome:
    """Run classic PSRS collectively; returns this rank's sorted slice.

    ``stable`` only selects the stable local kernels — classic PSRS has
    no mechanism to keep duplicates in source order across ranks, so
    cross-rank stability is *not* guaranteed (that is SDS-Sort's
    contribution).
    """
    return psrs_sort_world(LANE, [comm], [batch], stable=stable)[0]
