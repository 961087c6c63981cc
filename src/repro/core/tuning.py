"""Automatic threshold derivation (the paper's Section 4.1.1, automated).

The paper finds tau_m, tau_o and tau_s by measurement on Edison and
leaves a systematic study to future work.  Because each threshold is
the crossover of two cost curves, they can be derived directly from a
:class:`~repro.machine.spec.MachineSpec` — this module does exactly
that, giving SDS-Sort sensible parameters on any modelled machine
without hand-tuning.
"""

from __future__ import annotations

from ..machine import MachineSpec
from ..simfast.fig5 import (
    crossover,
    fig5a_merging,
    fig5b_overlap,
    fig5c_local_order,
)
from .params import SdsParams

_MB = 2**20
_DATA_SIZES = [m * _MB for m in (2, 4, 8, 16, 32, 64, 128, 160, 192,
                                 256, 512, 1024, 2048, 4096)]
_P_LIST = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072]


def _crossing(pts, a_wins: int, b_wins: int) -> int:
    """The crossover of two cost curves, or — with none — ``a_wins``
    when curve ``a`` is the cheaper everywhere, else ``b_wins``."""
    x = crossover(pts)
    if x is not None:
        return int(x)
    return a_wins if pts[0].a < pts[0].b else b_wins


def derive_tau_m(machine: MachineSpec, *, record_bytes: int = 8) -> int:
    """Node-merge threshold in bytes/node (Figure 5a crossover).

    Returns a huge sentinel when merging always wins (very slow
    networks) and 0 when it never does.
    """
    return _crossing(fig5a_merging(machine, _DATA_SIZES,
                                   record_bytes=record_bytes), 2**62, 0)


def derive_tau_o(machine: MachineSpec, *, n_per_rank: int = 100_000_000,
                 record_bytes: int = 4) -> int:
    """Overlap threshold in processes (Figure 5b crossover)."""
    return _crossing(fig5b_overlap(machine, _P_LIST, n_per_rank=n_per_rank,
                                   record_bytes=record_bytes), 2**31, 0)


def derive_tau_s(machine: MachineSpec, *, m: int = 100_000_000) -> int:
    """Local-ordering threshold in processes (Figure 5c crossover)."""
    # sort cheaper everywhere: never merge; else always merge
    return _crossing(fig5c_local_order(machine, _P_LIST, m=m), 0, 2**31)


def auto_params(machine: MachineSpec, *, stable: bool = False,
                n_per_rank: int = 100_000_000,
                record_bytes: int = 4) -> SdsParams:
    """SdsParams with all three thresholds derived from the machine."""
    return SdsParams(
        stable=stable,
        tau_m_bytes=derive_tau_m(machine, record_bytes=record_bytes),
        tau_o=derive_tau_o(machine, n_per_rank=n_per_rank,
                           record_bytes=record_bytes),
        tau_s=derive_tau_s(machine, m=n_per_rank),
    )
