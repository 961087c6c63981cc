"""The SDS-Sort driver (paper Figure 1), as a phase pipeline.

One call per rank, collectively::

    out = sds_sort(comm, my_batch, SdsParams(stable=True))

The driver is a thin composition of the phase strategies of
:mod:`repro.core.pipeline`, run on its :class:`~repro.core.pipeline.Run`
skeleton, mirroring the pseudocode:

1. ``LocalSort``    — sort the local shard (line 2);
2. ``NodeMerge``    — optional node-level funnelling when messages
   would be small (lines 3-7, threshold ``tau_m``);
3. ``PivotSelect``  — regular sampling + parallel bitonic selection
   (lines 8-9);
4. ``Partition``    — skew-aware fast/stable partitioning (line 10);
5. ``Exchange``     — synchronous exchange plus k-way merge or adaptive
   sort (lines 15-21), or the overlapped exchange+merge (lines 22-27),
   per thresholds ``tau_o``/``tau_s``.

Every adaptive choice (tau_m/tau_o/tau_s, pivot method, partition
variant) is evaluated by the :class:`~repro.core.plan.DecisionPolicy`
at its phase boundary and recorded into the run's decision trace,
returned as ``SortOutcome.info["decisions"]`` — the runner surfaces it
as ``RunResult.extras["decisions"]`` and the CLI renders it under
``--explain``.

Ranks that handed their data to a node leader in phase 2 return an
empty batch; the sorted output then lives on the leader ranks, exactly
as in the paper (the effective process count drops to ``p/c``).

The driver is written once, in world form (:func:`sds_sort_world`):
the same phase sequence runs over a
:class:`~repro.mpi.world.LaneWorld` (one logical rank; thread
backend) or a :class:`~repro.mpi.flatworld.ColumnarWorld` (the whole
world batched; flat backend).  :func:`sds_sort` is the per-rank entry
point over the lane view.
"""

from __future__ import annotations

import numpy as np

from ..mpi import LANE, Comm, World
from ..records import RecordBatch
from .params import SdsParams
from .pipeline import (
    Exchange,
    LocalSort,
    NodeMerge,
    Partition,
    PivotSelect,
    Run,
    RunContext,
    SortOutcome,
    fault_health_check,
    local_delta,
    pivot_pad_value,
)
from .plan import DecisionPolicy

__all__ = ["SortOutcome", "local_delta", "pivot_pad_value", "sds_sort",
           "sds_sort_world"]


def _singleton_outcome(ctx: RunContext) -> SortOutcome:
    """The one-rank short-circuit: locally sorted data is the answer."""
    return SortOutcome(ctx.own_batch(),
                       info={"p_active": 1, "delta_local": ctx.delta,
                             "decisions": ctx.decisions()})


def _alone(ctx: RunContext) -> bool:
    """Whether the rank's active world shrank to itself."""
    return ctx.active.size == 1


def _sorted_outcome(ctx: RunContext) -> SortOutcome:
    return SortOutcome(
        ctx.out, exchange=ctx.xstats, row=ctx.out_row,
        info={
            "p_active": ctx.active.size,
            "delta_local": ctx.delta,
            "n_pivots": int(np.asarray(ctx.pg).size),
            "decisions": ctx.decisions(),
        },
    )


def sds_sort_world(world: World, comms: list[Comm],
                   batches: list[RecordBatch],
                   params: SdsParams = SdsParams()
                   ) -> list[SortOutcome | None]:
    """Run SDS-Sort over every rank of one ``World`` view.

    ``comms`` is either a singleton (lane view: this rank, inside its
    own thread) or a world communicator's full membership in rank order
    (columnar view: all ranks, zero threads); ``batches`` the aligned
    inputs.  Returns per-rank outcomes in ``comms`` order, ``None`` for
    ranks that failed — the failure details live in ``world.failures``.
    Ranks past their last collective when a peer fails still complete,
    exactly as their threads would.
    """
    with Run(world, comms) as run:
        run.open(batches, params, DecisionPolicy(params))
        run.step(LocalSort(stable=params.stable))
        if comms[0].size == 1:
            run.finish(_singleton_outcome)
            return run.outcomes
        run.step(NodeMerge())
        run.finish(_singleton_outcome, where=_alone)
        # crash barriers run only under a fault plan that schedules
        # crashes; they are no-ops (not even a collective) otherwise
        fault_health_check(world, run.ctxs, "pivot_select")
        run.finish(_singleton_outcome, where=_alone)
        run.step(PivotSelect(), Partition())
        status = fault_health_check(world, run.ctxs, "exchange")
        run.finish(_singleton_outcome, where=_alone)
        if status == "recovered":
            # pivots and displacements are functions of the
            # communicator size: survivors re-derive both
            run.step(PivotSelect(), Partition())
        run.step(Exchange(stable=params.stable))
        run.finish(_sorted_outcome)
    return run.outcomes


def sds_sort(comm: Comm, batch: RecordBatch,
             params: SdsParams = SdsParams()) -> SortOutcome:
    """Run SDS-Sort collectively; every rank of ``comm`` must call it.

    Returns this rank's slice of the globally sorted data (empty on
    ranks that merged their data into a node leader).  Per-rank entry
    point of :func:`sds_sort_world` over the lane view — exceptions
    propagate out of this rank exactly as the phase code raises them.
    """
    return sds_sort_world(LANE, [comm], [batch], params)[0]
