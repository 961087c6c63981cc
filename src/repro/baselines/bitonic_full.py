"""Distributed bitonic sort as a complete record-sorting baseline.

Batcher's bitonic network extended to payload-carrying record batches:
every compare-exchange step merges the two partner blocks (keys decide,
payload follows the permutation) and keeps the low or high half.  All
data crosses the network ``O(log^2 p)`` times — the communication cost
that makes samplesort-family algorithms preferable on distributed
memory (paper Section 5), which benches can now demonstrate instead of
assert.

Written in world form on the shared run skeleton
(:class:`~repro.core.pipeline.Run`): the columnar view advances every
rank through the same compare-exchange round in lockstep (the network
is data-independent, so round structure never diverges), draining each
round's pairwise sends before its receives.
"""

from __future__ import annotations

from typing import Sequence

from ..core.bitonic import is_power_of_two
from ..core.pipeline import Run, RunContext, SortOutcome
from ..kernels import merge_two_perm
from ..mpi import LANE, Comm, World
from ..records import RecordBatch, sort_batch

_TAG = 72


def _check_network(p: int, lengths: Sequence[int] = ()) -> None:
    """The network's preconditions: a power-of-two ``p``, equal blocks."""
    if not is_power_of_two(p):
        raise ValueError(f"bitonic sort needs a power-of-two p, got {p}")
    if len(set(lengths)) > 1:
        raise ValueError("bitonic sort needs equal block lengths, "
                         f"got {set(lengths)}")


def _local_sort(ctx: RunContext) -> None:
    ctx.batch = sort_batch(ctx.own_batch())
    ctx.comm.charge(ctx.cost.sort_time(ctx.n))


def _compare_exchange(ctx: RunContext, other: RecordBatch,
                      si: int, sj: int) -> None:
    """Merge the rank's block with its partner's, keep its half."""
    c, cur = ctx.comm, ctx.batch
    rank = c.rank
    partner = rank ^ (1 << sj)
    ascending = ((rank >> (si + 1)) & 1) == 0
    # both partners must merge in the same (canonical) order, otherwise
    # equal keys land in both kept halves and records are
    # duplicated/lost
    first, second = (cur, other) if rank < partner else (other, cur)
    _, perm = merge_two_perm(first.keys, second.keys)
    merged = RecordBatch.concat([first, second]).take(perm)
    c.charge(c.cost.merge_time(len(merged), 2))
    half = len(cur)
    keep_low = (rank < partner) == ascending
    nxt = (merged.slice(0, half) if keep_low
           else merged.slice(len(merged) - half, len(merged)))
    ctx.batch = nxt.copy()


def bitonic_sort_batch_world(world: World, comms: list[Comm],
                             batches: list) -> list[SortOutcome | None]:
    """Bitonic-sort equal-sized batches over every rank of one ``World``.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    p = comms[0].size
    with Run(world, comms) as run:
        world.each(comms, lambda i, c: _check_network(p))
        run.open(batches)
        live = run.members()
        lens = world.allgather_staged(live, [ctx.n for ctx in run.ctxs], set)
        world.each(live, lambda i, c: _check_network(p, lens[i]))
        run.bank()
        with world.phase(run.members(), "local_sort"):
            run.each(_local_sort)
        run.bank()
        stages = 0
        if p > 1:
            with world.phase(run.members(), "exchange"):
                for si in range(p.bit_length() - 1):
                    for sj in range(si, -1, -1):
                        live, ctxs = run.members(), run.ctxs
                        others = world.sendrecv(
                            live, [ctx.batch for ctx in ctxs],
                            [c.rank ^ (1 << sj) for c in live], tag=_TAG)
                        world.each(live, lambda i, c: _compare_exchange(
                            ctxs[i], others[i], si, sj))
                        run.bank()
                        stages += 1
        run.finish(lambda ctx: SortOutcome(ctx.batch,
                                           info={"stages": stages}))
    return run.outcomes


def bitonic_sort_batch(comm: Comm, batch: RecordBatch) -> SortOutcome:
    """Collectively bitonic-sort equal-sized batches across ``comm``.

    Requires a power-of-two number of ranks and equal batch lengths.
    Returns this rank's block of the global order.
    """
    return bitonic_sort_batch_world(LANE, [comm], [batch])[0]
