"""The paper's contribution: SDS-Sort and its components."""

from .bitonic import bitonic_sort, bitonic_sort_rounds, is_power_of_two
from .histosel import histogram_refine, select_pivots_histogram
from .exchange import ExchangeStats
from .localsort import SharedSortStats, sdss_local_sort, shared_merge_loads
from .params import (
    PARTITION_VARIANTS,
    PIVOT_METHODS,
    TAU_M_BYTES,
    TAU_O,
    TAU_S,
    SdsParams,
)
from .pipeline import (
    Exchange,
    LocalSort,
    NodeMerge,
    Partition,
    PivotSelect,
    Run,
    RunContext,
    select_pivots,
)
from .plan import (
    Decision,
    DecisionPolicy,
    SortPlan,
    explain_lines,
)
from .partition import (
    ReplicatedRun,
    find_replicated_runs,
    loads_from_displs,
    partition_classic,
    partition_fast,
    partition_full_scan,
    partition_local_pivots,
    partition_stable_arrays,
    run_dup_counts,
)
from .sampling import (
    local_pivots,
    select_pivots_bitonic,
    select_pivots_gather,
    select_pivots_oversample,
)
from .sdssort import (SortOutcome, local_delta, pivot_pad_value,
                      sds_sort, sds_sort_world)
from .tuning import auto_params, derive_tau_m, derive_tau_o, derive_tau_s

__all__ = [
    "bitonic_sort",
    "bitonic_sort_rounds",
    "is_power_of_two",
    "histogram_refine",
    "select_pivots_histogram",
    "auto_params",
    "derive_tau_m",
    "derive_tau_o",
    "derive_tau_s",
    "local_delta",
    "ExchangeStats",
    "SharedSortStats",
    "sdss_local_sort",
    "shared_merge_loads",
    "TAU_M_BYTES",
    "TAU_O",
    "TAU_S",
    "SdsParams",
    "PIVOT_METHODS",
    "PARTITION_VARIANTS",
    "Decision",
    "DecisionPolicy",
    "SortPlan",
    "explain_lines",
    "Run",
    "RunContext",
    "LocalSort",
    "NodeMerge",
    "PivotSelect",
    "Partition",
    "Exchange",
    "select_pivots",
    "ReplicatedRun",
    "find_replicated_runs",
    "loads_from_displs",
    "partition_classic",
    "partition_fast",
    "partition_full_scan",
    "partition_local_pivots",
    "partition_stable_arrays",
    "run_dup_counts",
    "local_pivots",
    "select_pivots_bitonic",
    "select_pivots_gather",
    "select_pivots_oversample",
    "SortOutcome",
    "pivot_pad_value",
    "sds_sort",
    "sds_sort_world",
]
