"""Record containers: sort keys with aligned payload columns."""

from .batch import (
    SRC_POS,
    SRC_RANK,
    RecordBatch,
    SortedRows,
    concat_batch_arrays,
    from_mapping,
    tag_provenance,
    tag_provenance_world,
)
from .ops import (
    adaptive_sort_batch,
    kway_merge_batches,
    merge_sorted_rows,
    merge_two_batches,
    sort_batch,
)

__all__ = [
    "SRC_POS",
    "SRC_RANK",
    "RecordBatch",
    "SortedRows",
    "concat_batch_arrays",
    "from_mapping",
    "tag_provenance",
    "tag_provenance_world",
    "adaptive_sort_batch",
    "kway_merge_batches",
    "merge_sorted_rows",
    "merge_two_batches",
    "sort_batch",
]
