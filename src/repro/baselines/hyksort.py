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

The driver is written in world form (:func:`hyksort_world`): on the
columnar view one interpreter loop advances every *lane* (one logical
rank's ``{active communicator, working batch}``) through the levels in
lockstep — all groups shrink by the same fan-out, so the level counts
agree — running each group's collectives whole-group at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.histosel import histogram_refine_world
from ..core.partition import partition_classic
from ..core.pipeline import RunContext, SortOutcome, get_phase
from ..mpi import LANE, Comm, Cuts, FlatAbort, World
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


def _group_lanes(lanes: list) -> list[list]:
    """Group lanes by their active communicator, preserving rank order."""
    by: dict[int, list] = {}
    order: list[int] = []
    for ln in lanes:
        key = id(ln["active"]._ctx)
        if key not in by:
            by[key] = []
            order.append(key)
        by[key].append(ln)
    return [by[key] for key in order]


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
    outcomes: list[SortOutcome | None] = [None] * len(comms)
    lanes = [{"i": ctx.slot, "ctx": ctx, "comm": ctx.comm,
              "active": ctx.comm, "cur": None}
             for ctx in RunContext.start(world, comms, batches, None)]

    def prune() -> None:
        nonlocal lanes
        if world.failures:
            lanes = [ln for ln in lanes if world.alive(ln["comm"])]

    try:
        if lanes:
            # shared strategy with SDS-Sort/PSRS: plain per-rank local sort
            get_phase("local_sort")(kernel="plain").run(
                world, [ln["ctx"] for ln in lanes])
            prune()
            for ln in lanes:
                ln["cur"] = ln["ctx"].sorted_batch()

        level = 0
        while lanes and lanes[0]["active"].size > 1:
            p = lanes[0]["active"].size
            kk = _level_fanout(p, params.k)
            gs = p // kk  # group size after this level
            live = [ln["comm"] for ln in lanes]
            with world.phase(live, "pivot_selection"):
                for grp in _group_lanes(lanes):
                    splits = histogram_splitters_world(
                        world, [ln["active"] for ln in grp],
                        [ln["cur"].keys for ln in grp], kk - 1, params)
                    for ln, sp in zip(grp, splits):
                        ln["splitters"] = sp
            prune()
            with world.phase([ln["comm"] for ln in lanes], "partition"):
                for ln in lanes:
                    c = ln["comm"]
                    try:
                        cur = ln["cur"]
                        cuts = Cuts.from_displs(
                            partition_classic(cur.keys, ln["splitters"]))
                        # bucket g goes to the rank of group g sharing my
                        # within-group index
                        ln["cuts"] = Cuts(p, cuts.dst * gs
                                          + ln["active"].rank % gs, cuts.offs)
                        c.charge(c.cost.binary_search_time(
                            len(cur), max(1, kk - 1)))
                    except BaseException as exc:
                        world.fail(c, exc)
            with world.phase([ln["comm"] for ln in lanes], "exchange"):
                for grp in _group_lanes(lanes):
                    outs = world.alltoallv([ln["active"] for ln in grp],
                                           [ln["cur"] for ln in grp],
                                           [ln["cuts"] for ln in grp])
                    for ln, chunks in zip(grp, outs):
                        ln["chunks"] = chunks
                for ln in lanes:
                    if world.alive(ln["comm"]):
                        ln["comm"].mem.free(ln["cur"].nbytes)
            prune()
            with world.phase([ln["comm"] for ln in lanes], "local_ordering"):
                for ln in lanes:
                    c = ln["comm"]
                    try:
                        chunks = ln.pop("chunks")
                        cur = (kway_merge_batches(chunks) if chunks
                               else RecordBatch.empty_like(ln["cur"]))
                        c.charge(c.cost.merge_time(len(cur),
                                                   max(2, len(chunks))))
                        # streaming merge: received chunks release as
                        # output fills
                        c.mem.free(sum(ch.nbytes for ch in chunks))
                        c.mem.alloc(cur.nbytes)
                        ln["cur"] = cur
                    except BaseException as exc:
                        world.fail(c, exc)
            prune()
            for grp in _group_lanes(lanes):
                acomms = [ln["active"] for ln in grp]
                children = world.split(acomms,
                                       [a.rank // gs for a in acomms],
                                       [a.rank for a in acomms])
                for ln, child in zip(grp, children):
                    assert child is not None
                    ln["active"] = child
            level += 1

        for ln in lanes:
            outcomes[ln["i"]] = SortOutcome(
                batch=ln["cur"], received=len(ln["cur"]),
                info={"levels": level, "p_active": ln["comm"].size,
                      "decisions": ln["ctx"].decisions()})
    except FlatAbort:
        pass  # a collective aborted: unfinished ranks stay ``None``
    return outcomes


def hyksort(comm: Comm, batch: RecordBatch,
            params: HykParams = HykParams()) -> SortOutcome:
    """Run HykSort collectively; returns this rank's sorted slice.

    Raises :class:`~repro.machine.memory.SimOOMError` through the
    engine when a rank's duplicate-laden bucket exceeds its memory
    capacity — reported by benches as the paper's OOM entries.
    """
    return hyksort_world(LANE, [comm], [batch], params)[0]
