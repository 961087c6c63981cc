"""Simulated MPI: SPMD engine, communicators, collectives, virtual time.

This package replaces the paper's Cray MPI runtime.  Rank programs are
plain functions over a :class:`Comm`; see DESIGN.md section 6.

Phase code is written once against the :class:`World` execution
protocol (`mpi/world.py`), which carries every collective, charge and
phase bracket once: :class:`LaneWorld` meets the sibling rank threads
through one rank's :class:`Comm` (thread backend) and
:class:`ColumnarWorld` (`mpi/flatworld.py`) runs the whole world as
batched columnar passes without rank threads (flat backend).
"""

from .cells import Cuts
from .comm import Comm, SimWorld, payload_nbytes
from .context import AbortFlag, Channel, CommContext
from .engine import (
    ENGINE_BACKENDS,
    SpmdPool,
    SpmdResult,
    default_pool,
    run_spmd,
)
from .errors import FlatAbort, MessageLostError, RankFailure, SimAbort
from .flatworld import ColumnarWorld, make_world_comms, run_spmd_flat
from .world import LANE, Epilogue, LaneWorld, World, phase_all

__all__ = [
    "Comm",
    "SimWorld",
    "payload_nbytes",
    "AbortFlag",
    "Channel",
    "CommContext",
    "Cuts",
    "ColumnarWorld",
    "ENGINE_BACKENDS",
    "Epilogue",
    "FlatAbort",
    "LANE",
    "LaneWorld",
    "World",
    "phase_all",
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
