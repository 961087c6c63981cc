"""The previous node-merge generation, kept verbatim as a test oracle.

:func:`kway_merge_run_lists` merged every leader's node from its
members' *sorted* batches: each rank's local sort had already gathered
its payload (``input.take(perm, keys=sorted_keys)``), and the leader
concatenated those batches and gathered every column a second time.
Production (:func:`repro.records.merge_sorted_rows`) merges straight
from the members' :class:`~repro.records.SortedRows` and gathers each
column once, through the composed permutation; its output must equal
this one column for column, dtypes and the promoting fallback
included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels import same_key_groups, stable_argsort
from repro.records import RecordBatch, kway_merge_batches


def kway_merge_run_lists(run_lists: Sequence[Sequence[RecordBatch]]
                         ) -> list[RecordBatch | Exception]:
    """:func:`kway_merge_batches` of every run list, row-stacked.

    Entry ``j`` is ``kway_merge_batches(run_lists[j])`` — keys, every
    payload column, dtypes — or the exception that call raises.  A list
    whose runs share one :attr:`~RecordBatch.schema` is merged together
    with every other list of that schema and total length: their keys
    and columns are concatenated once, one stable argsort sorts the
    ``(lists, total)`` key stack along its rows, each column is gathered
    once and every list gets its rows as slices.  A list whose runs
    disagree on layout (or holds none) goes through
    :func:`kway_merge_batches` itself, which promotes dtypes or raises,
    for that list alone.
    """
    out: list = [None] * len(run_lists)
    shapes = []
    for runs in run_lists:
        schemas = {b.schema for b in runs}
        shapes.append((sum([b.keys.size for b in runs]), *schemas)
                      if len(schemas) == 1 else None)
    for members in same_key_groups(shapes):
        if shapes[members[0]] is None:
            for j in members:
                try:
                    out[j] = kway_merge_batches(run_lists[j])
                except Exception as exc:
                    out[j] = exc
            continue
        total, schema = shapes[members[0]]
        flat = [b for j in members for b in run_lists[j]]
        rows = len(members)
        perm, keys = stable_argsort(
            np.concatenate([b.keys for b in flat]).reshape(rows, total))
        perm += (np.arange(rows, dtype=perm.dtype) * total)[:, None]
        perm, keys = perm.ravel(), keys.ravel()
        columns = {name: np.concatenate([b.payload[name] for b in flat])[perm]
                   for name, _, _ in schema[1:]}
        for row, j in enumerate(members):
            lo, hi = row * total, (row + 1) * total
            out[j] = RecordBatch._unsafe(
                keys[lo:hi], {name: col[lo:hi] for name, col in columns.items()},
                flat[0])
    return out
