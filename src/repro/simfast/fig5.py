"""Models behind the parameter-exploration curves of Figure 5.

Each function returns the two series of one subfigure so the benches
can print them and locate the crossover that fixes the corresponding
threshold (tau_m, tau_o, tau_s) — the Section 4.1.1 methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import CostModel, MachineSpec

#: Process count used for the Figure 5a exchange study (512 nodes).
FIG5A_DEFAULT_P = 12_288


@dataclass(frozen=True)
class CurvePoint:
    """One x position of a two-series comparison plot."""

    x: float
    a: float   # first series (e.g. merging / overlapping / sort)
    b: float   # second series (e.g. no-merging / no-overlap / merge)


def fig5a_merging(machine: MachineSpec, data_per_node: list[int], *,
                  p: int = FIG5A_DEFAULT_P,
                  record_bytes: int = 8) -> list[CurvePoint]:
    """All-to-all time with vs. without node-level merging (Figure 5a).

    ``x`` = bytes per node; series ``a`` = merged (one leader per node
    exchanges at single-stream bandwidth, plus the node's *parallel*
    skew-aware c-way merge), ``b`` = unmerged (every core exchanges,
    full NIC bandwidth, p-1 messages of per-message overhead each).
    """
    cost = CostModel(machine)
    c = machine.cores_per_node
    out = []
    for d in data_per_node:
        per_rank = d // c
        unmerged = cost.alltoallv_time(p, per_rank, ranks_per_node=c)
        leaders = max(2, p // c)
        # SdssNodeMerge is the skew-aware parallel merge: c cores share
        # the c-way merge of the node's records evenly
        merge_t = (cost.memcpy_time(d, cores=c)
                   + cost.merge_time(d // record_bytes, c) / c)
        merged = merge_t + cost.alltoallv_time(leaders, d, ranks_per_node=1)
        out.append(CurvePoint(x=float(d), a=merged, b=unmerged))
    return out


def fig5b_overlap(machine: MachineSpec, p_list: list[int], *,
                  n_per_rank: int = 100_000_000,
                  record_bytes: int = 4) -> list[CurvePoint]:
    """Overlapped vs. synchronous exchange+ordering (Figure 5b).

    Weak scaling at ``n_per_rank`` records per process.  Overlap wins
    while the network dominates; past ~4K processes the async progress
    overhead and bandwidth derating swamp the benefit.
    """
    cost = CostModel(machine)
    c = machine.cores_per_node
    nbytes = n_per_rank * record_bytes
    out = []
    for p in p_list:
        t_merge = cost.merge_time(n_per_rank, max(2, p))
        sync = cost.alltoallv_time(p, nbytes, ranks_per_node=c) + t_merge
        async_comm = cost.alltoallv_async_time(p, nbytes, ranks_per_node=c)
        overlap = max(async_comm, t_merge) + cost.async_progress_overhead(p)
        out.append(CurvePoint(x=float(p), a=overlap, b=sync))
    return out


def fig5c_local_order(machine: MachineSpec, p_list: list[int], *,
                      m: int = 100_000_000) -> list[CurvePoint]:
    """Final ordering by adaptive sort vs. k-way merge (Figure 5c).

    ``m`` records arriving as ``p`` runs: merging costs
    ``m log2(p) * merge-rate`` (grows with p), adaptive sorting costs
    ``~m log2(m) * sort-rate`` with a slight decrease as more/shorter
    runs expose more adaptivity — the crossover fixes ``tau_s``.
    """
    cost = CostModel(machine)
    out = []
    for p in p_list:
        merge = cost.merge_time(m, max(2, p))
        sort = cost.final_sort_time(m, p)
        out.append(CurvePoint(x=float(p), a=sort, b=merge))
    return out


def crossover(points: list[CurvePoint]) -> float | None:
    """First x where series ``a`` stops being cheaper than ``b``.

    Linear interpolation between the bracketing points; ``None`` when
    one series dominates everywhere.
    """
    prev = None
    for pt in points:
        diff = pt.a - pt.b
        if prev is not None:
            pdiff, px = prev
            if pdiff <= 0 < diff or diff <= 0 < pdiff:
                frac = abs(pdiff) / (abs(pdiff) + abs(diff))
                return px + frac * (pt.x - px)
        prev = (diff, pt.x)
    return None
