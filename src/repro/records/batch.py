"""Keyed record batches: sort key plus arbitrary payload columns.

The paper's records have "a key for sorting and an arbitrary number of
non-key values (also called payload)"; SDS-Sort's selling point is that
it never needs to promote payload (or rank) into a secondary sort key.
:class:`RecordBatch` models such records as a key array plus named
payload columns of equal length, with structural operations (take,
slice, concatenate, split) that keep them aligned.

Provenance columns (:func:`tag_provenance`) record each record's
original rank and position, letting validators check *stability*
without influencing the sort itself.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..kernels import same_key_groups, sequential_argsort

#: Reserved payload column names used by the stability validator.
SRC_RANK = "_src_rank"
SRC_POS = "_src_pos"


def record_layout(keys: np.ndarray, payload: dict[str, np.ndarray]
                  ) -> tuple[tuple, int]:
    """``(schema, record_bytes)`` read off aligned columns."""
    schema, width = [keys.dtype], keys.itemsize
    for name, col in payload.items():
        trailing = col.shape[1:]
        schema.append((name, col.dtype, trailing))
        width += col.itemsize * math.prod(trailing) if trailing else col.itemsize
    return tuple(schema), width


class RecordBatch:
    """A batch of records: one key column and aligned payload columns.

    The layout is computed once, when the batch is built, and carried
    by every structural operation that keeps it:

    * ``schema`` — key dtype, then ``(name, dtype, trailing shape)`` per
      column: hashable, and everything :meth:`empty_like` takes from a
      prototype (two batches of one schema concatenate column by column);
    * ``record_bytes`` — storage bytes per record, trailing dimensions
      of a payload column included;
    * ``nbytes`` — ``len(batch) * record_bytes``, what the simulated
      communicator and memory ledgers charge.

    Batches are immutable once built: to change a column, build a new
    batch.
    """

    __slots__ = ("keys", "payload", "schema", "record_bytes", "nbytes")

    def __init__(self, keys: np.ndarray,
                 payload: Mapping[str, np.ndarray] | None = None) -> None:
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        columns = {}
        for name, col in (payload or {}).items():
            columns[name] = col = np.asarray(col)
            if len(col) != keys.size:
                raise ValueError(
                    f"payload column {name!r} has length {len(col)}, "
                    f"expected {keys.size}")
        self.keys, self.payload = keys, columns
        self.schema, self.record_bytes = record_layout(keys, columns)
        self.nbytes = keys.size * self.record_bytes

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def _unsafe(cls, keys: np.ndarray, payload: dict[str, np.ndarray],
                like: "RecordBatch | None" = None) -> "RecordBatch":
        """Validation-free constructor for internal structural ops.

        Callers guarantee ``keys``/``payload`` are aligned ndarrays
        (slices or fancy-indexed views of an already-validated batch):
        an exchange builds one per received chunk.  ``like`` is a batch
        of the same layout whose ``schema`` and ``record_bytes`` are
        taken over as they are (a selection of its rows); without it
        they are read off the arrays.
        """
        b = object.__new__(cls)
        b.keys, b.payload = keys, payload
        if like is None:
            b.schema, b.record_bytes = record_layout(keys, payload)
        else:
            b.schema, b.record_bytes = like.schema, like.record_bytes
        b.nbytes = keys.size * b.record_bytes
        return b

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.payload)

    def copy(self) -> "RecordBatch":
        return RecordBatch._unsafe(
            self.keys.copy(), {k: v.copy() for k, v in self.payload.items()},
            self)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray, *,
             keys: np.ndarray | None = None) -> "RecordBatch":
        """Select records by index (also used to apply sort permutations).

        A sort kernel that already gathered the key column hands it in
        as ``keys`` (it must equal ``self.keys[indices]``) and only the
        payload is gathered here.  The selection keeps this batch's
        layout.
        """
        return RecordBatch._unsafe(
            self.keys[indices] if keys is None else keys,
            {k: v[indices] for k, v in self.payload.items()}, self)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Contiguous sub-batch ``[start, stop)`` (views, no copy)."""
        return RecordBatch._unsafe(
            self.keys[start:stop],
            {k: v[start:stop] for k, v in self.payload.items()}, self)

    def split(self, displs: Sequence[int]) -> list["RecordBatch"]:
        """Split at ``p+1`` displacement boundaries into ``p`` sub-batches.

        ``displs`` must be non-decreasing with ``displs[0] == 0`` and
        ``displs[-1] == len(self)`` — exactly the send-displacement
        array the partitioners produce.  Children keep this batch's
        layout.
        """
        d = np.asarray(displs, dtype=np.int64)
        if d[0] != 0 or d[-1] != len(self):
            raise ValueError("displacements must span [0, len)")
        if np.any(np.diff(d) < 0):
            raise ValueError("displacements must be non-decreasing")
        keys, payload = self.keys, self.payload
        bounds = d.tolist()
        return [RecordBatch._unsafe(
                    keys[lo:hi], {k: v[lo:hi] for k, v in payload.items()},
                    self)
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def sort(self, *, stable: bool = False) -> "RecordBatch":
        """Return a copy sorted by key, payload reordered alongside."""
        return self.take(sequential_argsort(self.keys, stable=stable))

    def is_sorted(self) -> bool:
        if len(self) <= 1:
            return True
        return bool(np.all(self.keys[1:] >= self.keys[:-1]))

    @staticmethod
    def concat(batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches (all must share the same payload columns)."""
        batches = list(batches)
        names = [b.columns for b in batches] or [()]
        if names.count(names[0]) != len(names):
            raise ValueError(f"payload schema mismatch: {set(names)}")
        keys = np.concatenate([b.keys for b in batches]) if batches else np.zeros(0)
        return RecordBatch(keys, {name: np.concatenate([b.payload[name] for b in batches])
                                  for name in names[0]})

    @staticmethod
    def empty_like(proto: "RecordBatch") -> "RecordBatch":
        """Zero-length batch of ``proto``'s schema."""
        return RecordBatch._unsafe(
            np.zeros(0, dtype=proto.keys.dtype),
            {name: np.zeros((0, *shape), dtype=dtype)
             for name, dtype, shape in proto.schema[1:]}, proto)


#: Most records one payload gather takes (:func:`concat_rows`, the
#: exchange outputs): world-sized scratch that outlives the exchange
#: fragments the heap in front of validation (sds-stable 32 x 100k).
BLOCK_RECORDS = 1 << 16


class SortedRows:
    """Same-shape batches in key order, payload not yet gathered: a table
    of rows, one a rank.  ``rows`` are the ``g`` input batches (one
    schema, ``n`` records each), ``perm`` and ``keys`` the ``(g, n)``
    sort permutations and sorted keys; ``nbytes`` is one row's wire
    size.  Every rank of a table deposits the table itself: the ``k``-th
    of them holds row ``k`` (:func:`row_tables`).
    """

    __slots__ = ("rows", "perm", "keys", "schema", "record_bytes", "nbytes")

    def __init__(self, rows: Sequence[RecordBatch], perm: np.ndarray,
                 keys: np.ndarray) -> None:
        self.rows, self.perm, self.keys = rows, perm, keys
        self.schema, self.record_bytes = rows[0].schema, rows[0].record_bytes
        self.nbytes = keys.shape[1] * self.record_bytes

    def batch(self, k: int) -> RecordBatch:
        """Row ``k`` gathered."""
        return self.rows[k].take(self.perm[k], keys=self.keys[k])

    def slice(self, lo: int, hi: int) -> "SortedRows":
        """Rows ``[lo, hi)`` as a table (views, no copy)."""
        return SortedRows(self.rows[lo:hi], self.perm[lo:hi], self.keys[lo:hi])


def row_tables(deposits: Sequence[RecordBatch | SortedRows]) -> tuple:
    """``(tables, lens, widths)`` of per-rank ``deposits``: the tables in
    order — a table of ``g`` rows is deposited by ``g`` consecutive
    ranks, a batch by one — and every rank's record count and width."""
    tables, rows, i, end = [], [], 0, len(deposits)
    while i < end:
        t = deposits[i]
        tables.append(t)
        rows.append(t.keys.shape[0] if type(t) is SortedRows else 1)
        i += rows[-1]
    return (tables, np.array([t.keys.shape[-1] for t in tables]).repeat(rows),
            np.array([t.record_bytes for t in tables]).repeat(rows))


def concat_rows(deposits: Sequence[RecordBatch | SortedRows],
                ) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """``(keys, columns, offsets)`` of per-rank ``deposits``
    (:func:`row_tables`) concatenated, ``offsets`` the start of each
    rank's records: the fused exchanges address a chunk as
    ``offsets[src] + displacement``.  A table's keys are its key matrix
    raveled, each payload column gathered once through its stacked
    permutation, :data:`BLOCK_RECORDS` records at a time (a longer row
    alone).  Raises on a payload-schema mismatch.
    """
    tables, lens, _ = row_tables(deposits)
    schemas = list({id(t.schema): t.schema for t in tables}.values())
    if len({tuple(c[0] for c in schema[1:]) for schema in schemas}) > 1:
        raise ValueError(f"payload schema mismatch: {schemas}")
    offsets = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    parts = [t.keys.ravel() for t in tables]
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
    columns = {}
    for j, (name, _, shape) in enumerate(schemas[0][1:], 1):
        col = columns[name] = np.empty((keys.size, *shape), dtype=np.result_type(
            *[schema[j][1] for schema in schemas]))
        lo = 0
        for t in tables:
            if type(t) is RecordBatch:
                col[lo:lo + t.keys.size] = t.payload[name]
                lo += t.keys.size
                continue
            n = t.keys.shape[1]
            step = max(1, BLOCK_RECORDS // max(1, n))
            for a in range(0, len(t.rows), step):
                rows, perm = t.rows[a:a + step], t.perm[a:a + step]
                src = [r.payload[name] for r in rows]
                np.take(src[0] if len(src) == 1 else np.concatenate(src),
                        (perm + np.arange(len(rows))[:, None] * n).ravel(),
                        axis=0, out=col[lo:lo + perm.size], mode="clip")
                lo += perm.size
    return keys, columns, offsets


def tag_provenance(batch: RecordBatch, rank: int) -> RecordBatch:
    """Return a copy with ``_src_rank``/``_src_pos`` provenance columns.

    The tags travel as ordinary payload — the sort never compares them —
    and let :func:`repro.metrics.validate.check_stable` verify that equal
    keys kept their (rank, position) order.
    """
    n = len(batch)
    payload = dict(batch.payload)
    payload[SRC_RANK] = np.full(n, rank, dtype=np.int32)
    payload[SRC_POS] = np.arange(n, dtype=np.int64)
    return RecordBatch._unsafe(batch.keys.copy(), payload)


def tag_provenance_world(batches: Sequence[RecordBatch | None],
                         ranks: Sequence[int]) -> list[RecordBatch | None]:
    """:func:`tag_provenance` for many ranks' shards in one pass.

    ``batches[i]`` is rank ``ranks[i]``'s shard (``None`` entries pass
    through).  Column for column the result equals
    ``tag_provenance(batches[i], ranks[i])``, built with what a whole
    world makes redundant left out: keys and payload columns are shared
    with the input batch, not copied (the caller hands over freshly
    generated shards it drops), shards of equal length and schema share
    one read-only ``_src_pos`` column and one layout and cut their
    ``_src_rank`` columns from one block, and the already-validated
    input plus length-``n``-by-construction tag columns need no second
    validation.
    """
    out: list[RecordBatch | None] = [None] * len(batches)
    shapes = [None if b is None else (b.keys.size, b.schema)
              for b in batches]
    for members in same_key_groups(shapes):
        if shapes[members[0]] is None:
            continue
        n = shapes[members[0]][0]
        pos = np.arange(n, dtype=np.int64)
        pos.setflags(write=False)
        src = np.repeat(np.array([ranks[i] for i in members],
                                 dtype=np.int32), n).reshape(len(members), n)
        like = None
        for row, i in zip(src, members):
            b = batches[i]
            out[i] = like = RecordBatch._unsafe(
                b.keys, {**b.payload, SRC_RANK: row, SRC_POS: pos}, like)
    return out


def from_mapping(keys: np.ndarray, payload: Mapping[str, np.ndarray] | None = None) -> RecordBatch:
    """Convenience constructor accepting any mapping for payload."""
    return RecordBatch(np.asarray(keys), dict(payload or {}))
