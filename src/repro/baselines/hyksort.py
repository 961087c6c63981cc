"""HykSort (Sundar, Malhotra & Biros, ICS'13) — the paper's comparator.

A k-way hypercube-style samplesort: at every level the communicator
splits into ``k`` groups; ``k-1`` splitters are chosen by *iterative
histogram refinement* (not regular sampling), local data is bucketed by
the splitters, buckets travel to their group via a staged personalised
exchange, and the recursion continues inside each group until
communicators are singletons.

The histogramming selects splitters whose *global ranks* approximate
the ideal quantiles within a tolerance.  With heavily duplicated keys
this is impossible: a key's rank jumps by its multiplicity, so the
refinement converges onto the duplicate wall and one group inherits the
entire duplicate mass — cascading through the levels into the load
blow-ups and out-of-memory failures the paper reports (Figures 6c, 8,
10; Tables 3-4).  No artificial failure is injected here; the OOM falls
out of the algorithm plus the per-rank memory capacity.

The driver is written in world form (:func:`hyksort_world`) on the
shared run skeleton (:class:`~repro.core.pipeline.Run`): on the
columnar view one interpreter loop advances every rank's
:class:`~repro.core.pipeline.RunContext` (active communicator, working
batch, splitters, cuts, received runs) through the levels in lockstep
— all groups shrink by the same fan-out, so the level counts agree —
running each group's collectives whole-group at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.histosel import histogram_refine_world
from ..core.partition import partition_classic
from ..core.pipeline import LocalSort, Run, RunContext, SortOutcome
from ..mpi import LANE, Comm, Cuts, World
from ..records import RecordBatch, kway_merge_batches


@dataclass(frozen=True)
class HykParams:
    """HykSort tuning knobs.

    ``k=128`` is the paper's (and Sundar et al.'s) recommended fan-out.
    ``tolerance`` is the acceptable splitter-rank error as a fraction
    of the ideal bucket size; ``max_iters`` bounds the histogram
    refinement rounds per level.
    """

    k: int = 128
    tolerance: float = 0.10
    max_iters: int = 8
    samples_per_rank: int = 8


def _level_fanout(p: int, k: int) -> int:
    """Largest divisor of ``p`` that is at most ``k`` (and > 1)."""
    best = 1
    for d in range(2, min(k, p) + 1):
        if p % d == 0:
            best = d
    return best if best > 1 else p  # prime p larger than k: one big level


def histogram_splitters_world(world: World, comms: list[Comm],
                              keys_list: list, nsplit: int,
                              params: HykParams) -> list:
    """Select ``nsplit`` splitters by parallel histogram refinement.

    Thin wrapper over :func:`repro.core.histosel.histogram_refine_world`
    (shared with SDS-Sort's optional histogram pivot selection) with
    HykSort's tolerance/iteration settings.  Repeated entries in the
    result mean the refinement hit a duplicate run it cannot cut.
    """
    return histogram_refine_world(world, comms, keys_list, nsplit,
                                  tolerance=params.tolerance,
                                  max_iters=params.max_iters,
                                  samples_per_rank=params.samples_per_rank)


def histogram_splitters(comm: Comm, sorted_keys: np.ndarray, nsplit: int,
                        params: HykParams) -> np.ndarray:
    """Per-rank entry point of :func:`histogram_splitters_world`."""
    return histogram_splitters_world(LANE, [comm], [sorted_keys], nsplit,
                                     params)[0]


def _groups(ctxs: list[RunContext]) -> list[list[RunContext]]:
    """Group ranks by their active communicator, preserving rank order."""
    by: dict[int, list[RunContext]] = {}
    for ctx in ctxs:
        by.setdefault(id(ctx.active._ctx), []).append(ctx)
    return list(by.values())


def _level_cuts(ctx: RunContext, p: int, kk: int, gs: int) -> None:
    """Bucket the rank's data by the level's splitters: bucket g goes to
    the rank of group g sharing its within-group index."""
    c, cur = ctx.comm, ctx.batch
    cuts = Cuts.from_displs(partition_classic(cur.keys, ctx.pg))
    ctx.cuts = Cuts(p, cuts.dst * gs + ctx.active.rank % gs, cuts.offs)
    c.charge(c.cost.binary_search_time(len(cur), max(1, kk - 1)))


def _merge_level(ctx: RunContext) -> None:
    """Merge the runs a level's exchange delivered; received chunks
    release as the output fills (a streaming merge).  The rank's chunk
    to itself was never received: it went with the send buffer."""
    c, chunks, ctx.chunks = ctx.comm, ctx.chunks, None
    cur = (kway_merge_batches(chunks) if chunks
           else RecordBatch.empty_like(ctx.batch))
    c.charge(c.cost.merge_time(len(cur), max(2, len(chunks))))
    cuts, me = ctx.cuts, ctx.active.rank
    k = int(np.searchsorted(cuts.dst, me))
    own = (int(cuts.offs[k + 1] - cuts.offs[k]) * ctx.batch.record_bytes
           if k < cuts.dst.size and cuts.dst[k] == me else 0)
    c.mem.free(sum(ch.nbytes for ch in chunks) - own)
    c.mem.alloc(cur.nbytes)
    ctx.batch = cur


def run_hyksort(run: Run, batches: list, params: HykParams) -> None:
    """HykSort's body on an entered :class:`~repro.core.pipeline.Run`:
    open, local sort, then one round of splitters, buckets, exchange and
    merge per level, until every communicator is a singleton."""
    world = run.world
    run.open(batches)
    # shared strategy with SDS-Sort/PSRS: plain per-rank local sort
    for ctx in run.step(LocalSort()):
        ctx.sorted_batch()
    level = 0
    while run.ctxs and run.ctxs[0].active.size > 1:
        p = run.ctxs[0].active.size
        kk = _level_fanout(p, params.k)
        gs = p // kk  # group size after this level
        with world.phase(run.members(), "pivot_selection"):
            for grp in _groups(run.ctxs):
                splits = histogram_splitters_world(
                    world, [ctx.active for ctx in grp],
                    [ctx.batch.keys for ctx in grp], kk - 1, params)
                for ctx, sp in zip(grp, splits):
                    ctx.pg = sp
        run.bank()
        live = run.members()
        with world.phase(live, "partition"):
            run.each(lambda ctx: _level_cuts(ctx, p, kk, gs))
        with world.phase(live, "exchange"):
            for grp in _groups(run.ctxs):
                outs = world.alltoallv([ctx.active for ctx in grp],
                                       [ctx.batch for ctx in grp],
                                       [ctx.cuts for ctx in grp])
                for ctx, chunks in zip(grp, outs):
                    ctx.chunks = chunks
            ctxs = run.bank()
            world.free(run.members(), [ctx.batch.nbytes for ctx in ctxs])
        run.bank()
        with world.phase(run.members(), "local_ordering"):
            run.each(_merge_level)
        for grp in _groups(run.bank()):
            acomms = [ctx.active for ctx in grp]
            children = world.split(acomms, [a.rank // gs for a in acomms],
                                   [a.rank for a in acomms])
            for ctx, child in zip(grp, children):
                assert child is not None
                ctx.active = child
        level += 1
    run.finish(lambda ctx: SortOutcome(
        batch=ctx.batch, received=len(ctx.batch),
        info={"levels": level, "p_active": ctx.comm.size,
              "decisions": ctx.decisions()}))


def hyksort_world(world: World, comms: list[Comm],
                  batches: list[RecordBatch],
                  params: HykParams = HykParams()
                  ) -> list[SortOutcome | None]:
    """Run HykSort over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``) — a rank whose duplicate-laden
    bucket exceeds its memory capacity dies of
    :class:`~repro.machine.memory.SimOOMError` exactly as its thread
    would, and its peers abort at their next collective.
    """
    with Run(world, comms) as run:
        run_hyksort(run, batches, params)
    return run.outcomes


def hyksort(comm: Comm, batch: RecordBatch,
            params: HykParams = HykParams()) -> SortOutcome:
    """Run HykSort collectively; returns this rank's sorted slice.

    Raises :class:`~repro.machine.memory.SimOOMError` through the
    engine when a rank's duplicate-laden bucket exceeds its memory
    capacity — reported by benches as the paper's OOM entries.
    """
    return hyksort_world(LANE, [comm], [batch], params)[0]
