"""Record containers: sort keys with aligned payload columns."""

from .batch import (
    BLOCK_RECORDS,
    SRC_POS,
    SRC_RANK,
    RaggedTable,
    RecordBatch,
    ShardRows,
    ShardTable,
    SortedRows,
    concat_rows,
    from_mapping,
    rank_batches,
    row_tables,
    table_rows,
    tag_provenance,
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
    "RaggedTable",
    "RecordBatch",
    "ShardRows",
    "ShardTable",
    "SortedRows",
    "concat_rows",
    "from_mapping",
    "rank_batches",
    "row_tables",
    "table_rows",
    "tag_provenance",
    "adaptive_sort_batch",
    "kway_merge_batches",
    "merge_sorted_rows",
    "merge_two_batches",
    "sort_batch",
]
