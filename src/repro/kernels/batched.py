"""Rank-batched kernels for the flat (zero-thread) backend.

The flat engine drives every rank from one interpreter loop; where the
per-rank work is a tiny numpy call (sort a 2 KiB key array, search
p-1 pivots), the dispatch overhead dominates the arithmetic.  These
kernels run one numpy call over a ``(g, n)`` rank-stacked layout
instead of ``g`` calls — and each is **bit-for-bit equal** to its
per-rank twin:

* :func:`batched_argsort_rows` — unstable: ``np.argsort(axis=-1)``
  applies the same 1-D introsort to each contiguous row that
  :func:`~repro.kernels.sorts.sequential_argsort` applies to a 1-D
  array, so even the duplicate orderings match; stable: the stable
  permutation is unique, and both forms are
  :func:`~repro.kernels.sorts.stable_argsort`;
* :func:`batched_local_delta` — run-length bookkeeping over the whole
  stack; per-row results equal ``local_delta`` exactly (the same
  int-exact maximum divided by the same ``n``);
* :func:`stable_prefix_layout` — the exclusive column prefix + totals
  of a ``(p, runs)`` duplicate-count matrix: the designated-rank
  action of the stable partition's allgather, also the production
  replacement for the seed's per-rank dict assembly
  (``assemble_stable_inputs``, now a test oracle).

Partitioning's batched form lives with the cuts it produces
(:func:`repro.core.partition.partition_cuts`); :func:`same_key_groups`
finds the ranks that can share one stacked call.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from .sorts import stable_argsort

__all__ = [
    "batched_argsort_rows",
    "batched_local_delta",
    "same_key_groups",
    "stable_prefix_layout",
]


def same_key_groups(keys: Sequence[Hashable]) -> Iterable[Sequence[int]]:
    """Indices of ``keys`` grouped by equal key, first-seen order.

    Rank-batched callers stack the ranks whose shape key (shard length,
    dtype...) agrees; a world whose ranks all agree — the common case —
    is answered as one ``range`` without touching the ranks one by one.
    """
    if not keys:
        return []
    if keys.count(keys[0]) == len(keys):
        return [range(len(keys))]
    groups: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups.values()


def batched_argsort_rows(rows: np.ndarray, *, stable: bool = False
                         ) -> np.ndarray:
    """Per-row argsort of a ``(g, n)`` stack, one numpy call.

    Row ``i`` of the result equals
    ``sequential_argsort(rows[i], stable=stable)`` bit-for-bit: the
    stable permutation is unique, and for the unstable kind numpy runs
    the identical 1-D introsort over each contiguous row.
    """
    if stable:
        return stable_argsort(rows)[0]
    return np.argsort(np.ascontiguousarray(rows), axis=-1, kind="quicksort")


def batched_local_delta(sorted_rows: np.ndarray) -> np.ndarray:
    """Per-row ``local_delta`` (longest duplicate run / n) of a stack.

    ``sorted_rows`` is ``(g, n)`` with each row sorted.  Returns a
    float64 vector whose entry ``i`` equals
    ``local_delta(sorted_rows[i])`` exactly — the max run length is
    integer arithmetic and the final division is the same
    float64 ``int / int``.
    """
    g, n = sorted_rows.shape
    if n == 0:
        return np.zeros(g)
    brk = np.ones((g, n), dtype=bool)                  # run starts
    brk[:, 1:] = sorted_rows[:, 1:] != sorted_rows[:, :-1]
    starts = np.flatnonzero(brk.ravel())
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]                             # next start ...
    ends[-1] = g * n                                   # ... or stack end
    # rows cannot leak: column 0 always starts a run, so every row's
    # last run ends at the next row's first start
    lengths = ends - starts
    # runs are in row order and row i's first run starts at i * n
    row_first = np.searchsorted(starts, np.arange(g, dtype=np.int64) * n)
    return np.maximum.reduceat(lengths, row_first) / n


def stable_prefix_layout(all_counts: list[np.ndarray]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive prefixes + totals of per-rank duplicate-run counts.

    ``all_counts`` holds one int64 vector per rank (one entry per
    replicated pivot run, ``run_dup_counts`` order).  Returns the
    ``(p, runs)`` exclusive prefix matrix (row ``r`` = duplicates held
    by ranks before ``r``) and the per-run totals — the array inputs of
    ``partition_stable_arrays``.  This is the designated-rank action of
    the stable partition's ``allgather_staged``; integer-identical to
    assembling ``assemble_stable_inputs`` dicts per rank.
    """
    matrix = np.stack(all_counts)
    totals = matrix.sum(axis=0)
    prefix = np.zeros_like(matrix)
    np.cumsum(matrix[:-1], axis=0, out=prefix[1:])
    return prefix, totals
