"""Simulated MPI: SPMD engine, communicators, collectives, virtual time.

This package replaces the paper's Cray MPI runtime.  Rank programs are
plain functions over a :class:`Comm`; see DESIGN.md section 6.

Phase code is written once against the :class:`World` execution
protocol (`mpi/world.py`): :class:`LaneWorld` runs it per rank over a
single :class:`Comm` (thread backend) and
:class:`ColumnarWorld` (`mpi/flatworld.py`) runs the whole world as
batched columnar passes without rank threads (flat backend).
"""

from .comm import Comm, SimWorld, payload_nbytes
from .context import AbortFlag, Channel, CommContext
from .engine import (
    ENGINE_BACKENDS,
    SpmdPool,
    SpmdResult,
    default_pool,
    run_spmd,
)
from .errors import MessageLostError, RankFailure, SimAbort
from .flatworld import (
    ColumnarWorld,
    Epilogue,
    FlatAbort,
    make_world_comms,
    run_spmd_flat,
)
from .world import LANE, LaneWorld, World

__all__ = [
    "Comm",
    "SimWorld",
    "payload_nbytes",
    "AbortFlag",
    "Channel",
    "CommContext",
    "ColumnarWorld",
    "ENGINE_BACKENDS",
    "Epilogue",
    "FlatAbort",
    "LANE",
    "LaneWorld",
    "World",
    "SpmdPool",
    "SpmdResult",
    "default_pool",
    "make_world_comms",
    "run_spmd",
    "run_spmd_flat",
    "MessageLostError",
    "RankFailure",
    "SimAbort",
]
