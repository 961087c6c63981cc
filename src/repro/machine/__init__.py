"""Simulated-hardware substrate: machine specs, cost model, memory tracking.

This package replaces the paper's physical testbed (Edison, a Cray
XC30).  See DESIGN.md section 2 for the substitution rationale.
"""

from .cost import CostModel, dup_discount
from .edison import EDISON, EDISON_SLOW_NET, LAPTOP, PRESETS, get_machine
from .memory import MemoryLedger, RankMemory, SimOOMError
from .spec import MachineSpec

__all__ = [
    "CostModel",
    "dup_discount",
    "EDISON",
    "EDISON_SLOW_NET",
    "LAPTOP",
    "PRESETS",
    "get_machine",
    "MachineSpec",
    "MemoryLedger",
    "RankMemory",
    "SimOOMError",
]
