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
from .batch import RecordBatch


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


def kway_merge_batches_stacked(
        run_lists: Sequence[Sequence[RecordBatch]]
) -> list[RecordBatch | None]:
    """:func:`kway_merge_batches` for many run lists in stacked calls.

    Run lists of three or more runs with the same total length are
    concatenated row-wise into one ``(lists, total)`` key matrix and
    merged by a single stable argsort along the rows.  The stable
    permutation of sorted runs is unique, so entry ``j`` equals
    ``kway_merge_batches(run_lists[j])`` — keys, every payload column,
    dtypes.  Entries this kernel does not cover come back ``None`` and
    the caller merges them on their own: fewer than three runs (those
    keep their dedicated kernels), and lists whose runs disagree on key
    dtype or payload layout (the per-list merge promotes or raises for
    exactly the list concerned).
    """
    out: list[RecordBatch | None] = [None] * len(run_lists)
    shapes = [(sum([b.keys.size for b in runs]), runs[0].keys.dtype)
              if len(runs) > 2 else None for runs in run_lists]
    for members in same_key_groups(shapes):
        if shapes[members[0]] is None:
            continue
        total = shapes[members[0]][0]
        flat = [b for j in members for b in run_lists[j]]
        names = tuple(flat[0].payload)
        if (len({b.keys.dtype for b in flat}) != 1
                or {tuple(b.payload) for b in flat} != {names}
                or any(len({b.payload[name].dtype for b in flat}) != 1
                       for name in names)):
            continue
        try:
            columns = {name: np.concatenate([b.payload[name] for b in flat])
                       for name in names}
        except ValueError:  # trailing shapes disagree somewhere
            continue
        keys = np.concatenate([b.keys for b in flat])
        rows = len(members)
        perm, keys = stable_argsort(keys.reshape(rows, total))
        perm += (np.arange(rows, dtype=perm.dtype) * total)[:, None]
        perm, keys = perm.ravel(), keys.ravel()
        columns = {name: col[perm] for name, col in columns.items()}
        for row, j in enumerate(members):
            lo = row * total
            out[j] = RecordBatch._unsafe(
                keys[lo:lo + total],
                {name: col[lo:lo + total] for name, col in columns.items()})
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
