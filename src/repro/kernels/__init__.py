"""Sequential kernels: searching, merging, run detection, sorting.

Pure functions over numpy arrays — no knowledge of ranks, networks or
cost models.  The distributed algorithms compose these and charge their
virtual clocks through :class:`repro.machine.CostModel`.
"""

from .batched import (
    batched_argsort_rows,
    batched_local_delta,
    same_key_groups,
    stable_prefix_layout,
)
from .merge import LoserTree, kway_merge, kway_merge_perm, merge_two, merge_two_perm
from .patience import (
    patience_runs,
    patience_sort,
    patience_sort_perm,
    run_pool_count,
)
from .runs import (
    count_runs,
    is_sorted,
    natural_merge_sort,
    natural_merge_sort_perm,
    sortedness,
)
from .search import (
    bounded_upper_bound,
    lower_bound,
    partition_bounds,
    run_boundaries,
    upper_bound,
)
from .sorts import (
    chunk_sort,
    sequential_argsort,
    sequential_sort,
    stable_argsort,
    stable_argsort_segments,
)

__all__ = [
    "batched_argsort_rows",
    "batched_local_delta",
    "same_key_groups",
    "stable_prefix_layout",
    "LoserTree",
    "kway_merge",
    "kway_merge_perm",
    "merge_two",
    "merge_two_perm",
    "patience_runs",
    "patience_sort",
    "patience_sort_perm",
    "run_pool_count",
    "count_runs",
    "is_sorted",
    "natural_merge_sort",
    "natural_merge_sort_perm",
    "sortedness",
    "bounded_upper_bound",
    "lower_bound",
    "partition_bounds",
    "run_boundaries",
    "upper_bound",
    "chunk_sort",
    "sequential_argsort",
    "sequential_sort",
    "stable_argsort",
    "stable_argsort_segments",
]
