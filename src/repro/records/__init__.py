"""Record containers: sort keys with aligned payload columns."""

from .batch import (
    BLOCK_RECORDS,
    SRC_POS,
    SRC_RANK,
    RecordBatch,
    SortedRows,
    concat_rows,
    from_mapping,
    row_tables,
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
    "BLOCK_RECORDS",
    "SRC_POS",
    "SRC_RANK",
    "RecordBatch",
    "SortedRows",
    "concat_rows",
    "from_mapping",
    "row_tables",
    "tag_provenance",
    "tag_provenance_world",
    "adaptive_sort_batch",
    "kway_merge_batches",
    "merge_sorted_rows",
    "merge_two_batches",
    "sort_batch",
]
