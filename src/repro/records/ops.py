"""Merge/sort operations over :class:`RecordBatch` (payload-preserving).

Keys are compared once in the kernel layer; payloads are reordered by
the resulting permutation — the moral equivalent of sorting records by
key without promoting payload into the comparison, which is the
SDS-Sort design point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import (
    kway_merge_perm,
    merge_two_perm,
    natural_merge_sort_perm,
    same_key_groups,
    stable_argsort,
)
from .batch import RaggedTable, RecordBatch, SortedRows, gathered, row_tables


def merge_two_batches(a: RecordBatch, b: RecordBatch) -> RecordBatch:
    """Stably merge two key-sorted batches (ties: ``a`` first)."""
    _, perm = merge_two_perm(a.keys, b.keys)
    return RecordBatch.concat([a, b]).take(perm)


def kway_merge_batches(batches: Sequence[RecordBatch]) -> RecordBatch:
    """Stably merge ``k`` key-sorted batches (ties: earlier batch first)."""
    batches = list(batches)
    if not batches:
        return RecordBatch.empty_like(RecordBatch([]))
    if len(batches) == 1:
        return batches[0].copy()
    merged, perm = kway_merge_perm([b.keys for b in batches])
    return RecordBatch.concat(batches).take(perm, keys=merged)


def merge_sorted_rows(run_lists: Sequence[Sequence[SortedRows]]
                      ) -> list[RecordBatch | Exception]:
    """Every run list's stable k-way merge, gathered from the inputs.

    A run list holds one deposit a run (:func:`~.batch.row_tables`).
    Entry ``j`` is ``kway_merge_batches`` of the runs of ``run_lists[j]``
    gathered — keys, every payload column, dtypes — or the exception
    that call raises.  A list whose runs share one
    :attr:`~RecordBatch.schema` is merged together with every other
    list of that schema and total length: one stable argsort sorts the
    ``(lists, total)`` stack of their sorted keys along its rows (the
    stable permutation of sorted runs is unique), and each payload
    column is gathered from the runs' input tables in key order
    (:func:`~.batch.gathered`) and put in merged order by one take.  A
    list whose runs disagree on layout (or holds none) goes through
    :func:`kway_merge_batches` alone.
    """
    out: list = [None] * len(run_lists)
    laid = [row_tables(runs) for runs in run_lists]
    shapes = []
    for tables, _, _ in laid:
        schemas = [t.schema for t in tables]  # mostly one shared object
        shapes.append((sum([t.keys.size for t in tables]), schemas[0])
                      if tables and schemas.count(schemas[0]) == len(tables)
                      else None)
    for members in same_key_groups(shapes):
        if shapes[members[0]] is None:
            for j in members:
                try:
                    out[j] = kway_merge_batches(
                        [t.row(k) for t in laid[j][0] for k in range(len(t.keys))])
                except Exception as exc:
                    out[j] = exc
            continue
        total, schema = shapes[members[0]]
        flat = [t for j in members for t in laid[j][0]]
        rows = len(members)
        perm, keys = stable_argsort(np.concatenate(
            [t.keys.ravel() for t in flat]).reshape(rows, total))
        perm += (np.arange(rows, dtype=perm.dtype) * total)[:, None]
        perm, keys = perm.ravel(), keys.ravel()
        columns = {name: gathered(flat, name, np.empty(
            (keys.size, *shape), dtype))[perm] for name, dtype, shape in schema[1:]}
        merged = RaggedTable(keys, columns, np.arange(rows + 1) * total)
        for row, j in enumerate(members):
            out[j] = merged.row(row)
    return out


def sort_batch(batch: RecordBatch, *, stable: bool = False) -> RecordBatch:
    """Sort a batch by key (``std::sort`` / ``std::stable_sort``)."""
    return batch.sort(stable=stable)


def adaptive_sort_batch(batch: RecordBatch) -> RecordBatch:
    """Stable natural-merge sort exploiting pre-existing runs.

    The 'sorting' option of the final local ordering (Section 2.7):
    post-exchange data is ``p`` concatenated runs, so this does
    ``O(m log p)`` real work instead of ``O(m log m)``.
    """
    _, perm = natural_merge_sort_perm(batch.keys)
    return batch.take(perm)
