"""Vectorised large-p evaluators and analytic scaling models."""

from .countspace import (
    NOISE_SCALE,
    CountSpaceReport,
    UniverseModel,
    countspace_loads,
    evaluate,
)
from .exact import (
    LoadReport,
    evaluate_loads,
    generate_sorted_shards,
    hyksort_recursive_loads,
    hyksort_value_space_loads,
    partition_loads,
    sds_global_pivots,
)
from .fig5 import (
    CurvePoint,
    crossover,
    fig5a_merging,
    fig5b_overlap,
    fig5c_local_order,
)
from .volume import (
    CommVolume,
    bitonic_volume,
    hyksort_volume,
    psrs_volume,
    sds_volume,
    volume_for,
)
from .scaling import (
    PhaseTimes,
    analytic_model_for,
    fmt_p,
    hyksort_phase_times,
    sds_phase_times,
    strong_scaling_series,
    weak_scaling_point,
    weak_scaling_series,
)

__all__ = [
    "NOISE_SCALE",
    "CountSpaceReport",
    "UniverseModel",
    "countspace_loads",
    "evaluate",
    "LoadReport",
    "evaluate_loads",
    "generate_sorted_shards",
    "hyksort_recursive_loads",
    "hyksort_value_space_loads",
    "partition_loads",
    "sds_global_pivots",
    "CurvePoint",
    "crossover",
    "fig5a_merging",
    "fig5b_overlap",
    "fig5c_local_order",
    "PhaseTimes",
    "analytic_model_for",
    "fmt_p",
    "hyksort_phase_times",
    "sds_phase_times",
    "strong_scaling_series",
    "weak_scaling_point",
    "weak_scaling_series",
    "CommVolume",
    "bitonic_volume",
    "hyksort_volume",
    "psrs_volume",
    "sds_volume",
    "volume_for",
]
