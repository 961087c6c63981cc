"""Analytic phase-time composition for the weak-scaling figures.

Combines the machine cost model with count-space loads to produce the
per-phase and total simulated times of SDS-Sort (fast/stable) and
HykSort at any process count — the generators behind Figures 7, 8, 9,
10 and the throughput headlines.  Formulas mirror what the functional
engine charges; the engine and this module are cross-checked at small
``p`` in ``tests/test_scaling_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from ..core.params import SdsParams
from ..machine import CostModel, MachineSpec
from ..metrics import tb_per_min
from ..workloads import ZIPF_UNIVERSE
from .countspace import UniverseModel, countspace_loads

#: Default per-rank memory headroom (Edison: 6.7x the input shard).
MEM_FACTOR_DEFAULT = 6.7


@dataclass(frozen=True)
class PhaseTimes:
    """Modelled per-phase seconds of one algorithm run (slowest rank)."""

    algorithm: str
    p: int
    n_per_rank: int
    record_bytes: int
    local_sort: float
    pivot_selection: float
    partition: float
    exchange: float
    local_ordering: float
    other: float = 0.0
    oom: bool = False

    @property
    def total(self) -> float:
        return (self.local_sort + self.pivot_selection + self.partition
                + self.exchange + self.local_ordering + self.other)

    def throughput_tb_min(self) -> float:
        if self.oom or self.total <= 0:
            return 0.0
        return tb_per_min(self.n_per_rank * self.p * self.record_bytes, self.total)

    def records_per_joule(self, machine: MachineSpec) -> float:
        """Energy efficiency (TritonSort's headline metric)."""
        if self.oom or self.total <= 0:
            return 0.0
        joules = CostModel(machine).energy_joules(self.total, self.p)
        return (self.n_per_rank * self.p) / joules

    def breakdown(self) -> dict[str, float]:
        return {
            "pivot_selection": self.pivot_selection,
            "exchange": self.exchange,
            "local_ordering": self.local_ordering,
            "other": self.local_sort + self.partition + self.other,
        }


def _oom(max_load: int, n_per_rank: int, record_bytes: int,
         machine: MachineSpec, mem_factor: float) -> bool:
    """Would the heaviest rank exceed its memory share?

    Mirrors the engine's accounting: the input shard plus the received
    data (the ordering step streams, releasing chunks as the output
    fills) must fit in ``mem_factor * shard_bytes``.
    """
    shard = n_per_rank * record_bytes
    peak = shard + max_load * record_bytes
    return peak > mem_factor * shard


def sds_phase_times(model: UniverseModel, n_per_rank: int, p: int, *,
                    machine: MachineSpec, record_bytes: int = 4,
                    stable: bool = False, params: SdsParams | None = None,
                    mem_factor: float = 6.7, seed: int = 0) -> PhaseTimes:
    """Modelled SDS-Sort times for one weak-scaling point."""
    params = params or SdsParams(stable=stable)
    cost = CostModel(machine)
    c = machine.cores_per_node
    delta = model.delta
    method = "stable" if stable else "fast"
    loads = countspace_loads(model, n_per_rank, p, method=method, seed=seed)
    m = int(loads.max())

    t_sort = cost.sort_time(n_per_rank, stable=stable, delta=delta)
    t_pivot = cost.bitonic_sort_time(p, max(1, p - 1), record_bytes=8)
    t_part = cost.binary_search_time(max(1, n_per_rank // p),
                                     searches=2 * max(1, p - 1))
    if stable:
        t_part += cost.allgather_time(p, 8)

    overlap = (not stable) and p < params.tau_o
    if overlap:
        t_comm = cost.alltoallv_async_time(p, m * record_bytes, ranks_per_node=c)
        t_merge = cost.merge_time(m, max(2, p))
        t_x = max(t_comm, t_merge) + cost.async_progress_overhead(p)
        t_order = 0.0
    else:
        t_x = cost.alltoallv_time(p, m * record_bytes, ranks_per_node=c,
                                  total_bytes=p * n_per_rank * record_bytes)
        if p < params.tau_s:
            t_order = cost.merge_time(m, max(2, p))
        else:
            t_order = cost.final_sort_time(m, p, stable=stable, delta=delta)

    # size-count exchange + displacement bookkeeping (Figure 1, 11-14)
    t_other = cost.alltoallv_time(p, 8 * p, ranks_per_node=c)

    return PhaseTimes(
        algorithm="sds-stable" if stable else "sds",
        p=p, n_per_rank=n_per_rank, record_bytes=record_bytes,
        local_sort=t_sort, pivot_selection=t_pivot, partition=t_part,
        exchange=t_x, local_ordering=t_order, other=t_other,
        oom=_oom(m, n_per_rank, record_bytes, machine, mem_factor),
    )


def _hyk_fanouts(p: int, k: int) -> list[int]:
    """Per-level fanouts of the k-way recursion (product = p)."""
    fanouts = []
    while p > 1:
        d = 1
        for cand in range(2, min(k, p) + 1):
            if p % cand == 0:
                d = cand
        if d == 1:
            d = p
        fanouts.append(d)
        p //= d
    return fanouts


def hyksort_phase_times(model: UniverseModel, n_per_rank: int, p: int, *,
                        machine: MachineSpec, record_bytes: int = 4,
                        k: int = 128, hist_iters: int = 4,
                        mem_factor: float = 6.7, seed: int = 0) -> PhaseTimes:
    """Modelled HykSort times for one weak-scaling point.

    Per recursion level: histogram splitter refinement (a few rounds of
    candidate reductions), a k-way staged exchange overlapped with the
    k-way merge, with the per-rank data volume interpolating from ``n``
    to the final (possibly duplicate-inflated) maximum load.
    """
    cost = CostModel(machine)
    c = machine.cores_per_node
    delta = model.delta
    loads = countspace_loads(model, n_per_rank, p, method="hyksort", seed=seed)
    m_final = int(loads.max())

    t_sort = cost.sort_time(n_per_rank, delta=delta)
    fanouts = _hyk_fanouts(p, k)
    levels = max(1, len(fanouts))

    t_pivot = 0.0
    t_part = 0.0
    t_x = 0.0
    t_order = 0.0
    for lvl, kk in enumerate(fanouts):
        # load grows geometrically from n to the final max load
        frac_next = (lvl + 1) / levels
        m_lvl = n_per_rank * (m_final / n_per_rank) ** frac_next
        cands = kk * 8  # samples_per_rank per target, roughly
        t_pivot += hist_iters * (
            cost.tree_collective_time(p, cands * 8)
            + cost.binary_search_time(max(2, int(m_lvl)), cands)
        )
        t_part += cost.binary_search_time(max(2, int(m_lvl)), max(1, kk - 1))
        t_comm = cost.alltoallv_time(kk, int(m_lvl) * record_bytes,
                                     ranks_per_node=c,
                                     total_bytes=p * int(m_lvl) * record_bytes)
        t_merge = cost.merge_time(int(m_lvl), kk)
        # HykSort's staged exchange nominally overlaps with merging,
        # but at full node concurrency the merge competes with the
        # progress engine for the same cores; the paper's measured
        # totals (42.6 s vs SDS 28.25 s at 128K) imply nearly additive
        # per-level costs, which is what we charge.
        t_x += t_comm
        t_order += t_merge

    return PhaseTimes(
        algorithm="hyksort",
        p=p, n_per_rank=n_per_rank, record_bytes=record_bytes,
        local_sort=t_sort, pivot_selection=t_pivot, partition=t_part,
        exchange=t_x, local_ordering=t_order,
        oom=_oom(m_final, n_per_rank, record_bytes, machine, mem_factor),
    )


def weak_scaling_point(algorithm: str, model: UniverseModel, n_per_rank: int,
                       p: int, *, machine: MachineSpec,
                       record_bytes: int = 4, seed: int = 0,
                       mem_factor: float = 6.7) -> PhaseTimes:
    """Dispatch by algorithm name (``sds``, ``sds-stable``, ``hyksort``)."""
    if algorithm == "sds":
        return sds_phase_times(model, n_per_rank, p, machine=machine,
                               record_bytes=record_bytes, seed=seed,
                               mem_factor=mem_factor)
    if algorithm == "sds-stable":
        return sds_phase_times(model, n_per_rank, p, machine=machine,
                               record_bytes=record_bytes, stable=True,
                               seed=seed, mem_factor=mem_factor)
    if algorithm == "hyksort":
        return hyksort_phase_times(model, n_per_rank, p, machine=machine,
                                   record_bytes=record_bytes, seed=seed,
                                   mem_factor=mem_factor)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def weak_scaling_series(algorithm: str, model: UniverseModel, n_per_rank: int,
                        p_list: list[int], *, machine: MachineSpec,
                        record_bytes: int = 4, seed: int = 0) -> list[PhaseTimes]:
    """One Figure 7/8 curve: modelled times across process counts."""
    return [
        weak_scaling_point(algorithm, model, n_per_rank, p,
                           machine=machine, record_bytes=record_bytes, seed=seed)
        for p in p_list
    ]


def strong_scaling_series(algorithm: str, model: UniverseModel, n_total: int,
                          p_list: list[int], *, machine: MachineSpec,
                          record_bytes: int = 4,
                          seed: int = 0) -> list[PhaseTimes]:
    """Strong scaling (fixed total N, growing p) — a study the paper
    leaves to future work.

    Each point divides ``n_total`` evenly over ``p`` ranks; speedup
    saturates where per-rank compute shrinks below the fixed
    communication overheads.
    """
    out = []
    for p in p_list:
        n = max(1, n_total // p)
        out.append(weak_scaling_point(algorithm, model, n, p,
                                      machine=machine,
                                      record_bytes=record_bytes, seed=seed))
    return out


def fmt_p(p: int) -> str:
    """The paper's axis labels: 0.5K, 1K, ... 128K."""
    if p >= 1024:
        v = p / 1024
        return f"{v:g}K"
    return str(p)


@lru_cache(maxsize=8)
def _shared_model(build: Any, *args: Any, **kwargs: Any) -> UniverseModel:
    """One read-only model per constructor and parameters."""
    model = build(*args, **kwargs)
    model.pmf.setflags(write=False)
    return model


def analytic_model_for(workload: Any) -> UniverseModel | None:
    """The count-space :class:`UniverseModel` matching a runner workload.

    Returns ``None`` for families with no closed-form model (e.g.
    ``staggered``); admission then assumes a fixed 2x skew and
    ``sdssort scaling`` / ``rdfa`` refuse the workload.  Models are
    memoised by the parameters they are built from (never by name
    alone: ``zipf-0.7`` covers more than one ``alpha``), so admission
    builds a 131,072-bin pmf once per process, not once per job.
    """
    name = workload.name
    meta = getattr(workload, "meta", None) or {}
    # families whose key *values* are i.i.d. uniform regardless of the
    # presented order (staggered is excluded: its shards are non-i.i.d.
    # value slices, so no per-rank draw follows the global pmf)
    if name == "uniform" or name == "graysort" or name == "reverse" \
            or name.startswith(("runs", "nearly-sorted")):
        return _shared_model(UniverseModel.uniform)
    if name.startswith("zipf"):
        args = meta.get("alpha", 1.0), meta.get("universe", ZIPF_UNIVERSE)
        # the one array size a caller chooses: kept only up to the default
        if args[1] > ZIPF_UNIVERSE:
            return UniverseModel.zipf(*args)
        return _shared_model(UniverseModel.zipf, *args)
    if name == "ptf":
        return _shared_model(UniverseModel.point_mass,
                             meta.get("delta", 0.2802), name="ptf")
    if name == "cosmology":
        return _shared_model(UniverseModel.power_law_clusters,
                             meta.get("delta", 0.0073))
    return None
