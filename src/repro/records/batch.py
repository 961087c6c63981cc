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


def record_layout(keys: np.ndarray, payload: dict[str, np.ndarray],
                  lead: int = 1) -> tuple[tuple, int]:
    """``(schema, record_bytes)`` read off aligned columns with ``lead``
    record axes (a batch's one, a table's two)."""
    schema, width = [keys.dtype], keys.itemsize
    for name, col in payload.items():
        trailing = col.shape[lead:]
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
        bounds = d.tolist()
        return [self.slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def sort(self, *, stable: bool = False) -> "RecordBatch":
        """Return a copy sorted by key, payload reordered alongside."""
        return self.take(sequential_argsort(self.keys, stable=stable))

    def is_sorted(self) -> bool:
        if len(self) <= 1:
            return True
        return bool((self.keys[1:] >= self.keys[:-1]).all())

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


class ShardTable:
    """Same-shape shards, a row a rank: ``keys`` is ``(g, n)`` and every
    payload column ``(g, n, ...)``; ``nbytes`` is one row's wire size.
    A flat world's input is one table per shard shape.  A list of
    per-rank inputs names a table once for each of its rows, the
    ``k``-th naming holding row ``k`` (:func:`table_rows`).  A column
    whose rows all alias one (row stride 0, as the provenance tags'
    shared ``arange(n)``) is read through its first row.  ``like`` is a
    table or batch of the same layout (see :meth:`RecordBatch._unsafe`).
    """

    __slots__ = ("keys", "payload", "schema", "record_bytes", "nbytes")

    def __init__(self, keys: np.ndarray, payload: dict[str, np.ndarray],
                 like=None) -> None:
        self.keys, self.payload = keys, payload
        self.schema, self.record_bytes = (
            record_layout(keys, payload, 2) if like is None
            else (like.schema, like.record_bytes))
        self.nbytes = keys.shape[1] * self.record_bytes

    def row(self, k: int) -> RecordBatch:
        """Row ``k`` as a batch (views)."""
        return RecordBatch._unsafe(
            self.keys[k], {name: col[k] for name, col in self.payload.items()},
            self)

    def head(self, g: int) -> "ShardTable":
        """The first ``g`` rows (views)."""
        return ShardTable(self.keys[:g], {
            name: col[:g] for name, col in self.payload.items()}, self)

    def tagged(self, ranks: Sequence[int]) -> "ShardTable":
        """With provenance columns, row ``k`` from rank ``ranks[k]``
        (keys and payload shared): ``_src_rank`` cut from one block,
        ``_src_pos`` one read-only ``arange(n)`` over every row."""
        g, n = self.keys.shape
        pos = np.arange(n, dtype=np.int64)
        pos.flags.writeable = False
        return ShardTable(self.keys, {
            **self.payload,
            SRC_RANK: np.repeat(np.asarray(ranks, dtype=np.int32),
                                n).reshape(g, n),
            SRC_POS: np.ndarray((g, n), np.int64, pos, 0, (0, 8))})

    @staticmethod
    def of(batch: RecordBatch) -> "ShardTable":
        """``batch`` as a one-row table (views)."""
        return ShardTable(batch.keys[None], {
            name: col[None] for name, col in batch.payload.items()}, batch)

    @staticmethod
    def stack(tables: Sequence["ShardTable"]) -> "ShardTable":
        """``tables`` of one layout as one, rows in order (one as it is)."""
        if len(tables) == 1:
            return tables[0]
        return ShardTable(np.concatenate([t.keys for t in tables]), {
            name: np.concatenate([t.payload[name] for t in tables])
            for name in tables[0].payload}, tables[0])


class RaggedTable:
    """Rows of any lengths end to end, a row a rank: 1-D ``keys`` and
    payload columns, row ``k`` at ``[offs[k], offs[k + 1])``.  An
    exchange's outputs are one table per gather, named in a per-rank
    list as a :class:`ShardTable` is (:func:`table_rows`).
    """

    __slots__ = ("keys", "payload", "offs", "schema", "record_bytes")

    def __init__(self, keys: np.ndarray, payload: dict[str, np.ndarray],
                 offs: np.ndarray) -> None:
        self.keys, self.payload, self.offs = keys, payload, offs
        self.schema, self.record_bytes = record_layout(keys, payload)

    def row(self, k: int) -> RecordBatch:
        """Row ``k`` as a batch (views)."""
        return self.slice(self.offs[k], self.offs[k + 1])

    def slice(self, start: int, stop: int) -> RecordBatch:
        """Records ``[start, stop)`` as a batch (views)."""
        return RecordBatch._unsafe(self.keys[start:stop], {
            name: col[start:stop] for name, col in self.payload.items()}, self)


def table_rows(entries: Sequence) -> tuple[list, Sequence[int]]:
    """Every rank's ``(table, row)`` of per-rank ``entries``: batches of
    one length and schema are stacked into one table, a row each — how
    per-rank inputs enter the table form — and the ``k``-th entry naming
    a table holds its row ``k``; ``None`` (no input) stays ``None``."""
    first = entries[0] if entries else None
    if type(first) is ShardTable and entries.count(first) == len(entries):
        return list(entries), range(len(entries))
    tables = list(entries)
    loose = [i for i, e in enumerate(entries) if type(e) is RecordBatch]
    for members in same_key_groups(
            [(entries[i].keys.size, entries[i].schema) for i in loose]):
        table = ShardTable.stack([ShardTable.of(entries[loose[j]])
                                  for j in members])
        for j in members:
            tables[loose[j]] = table
    rows, seen = [0] * len(entries), {}
    for i, t in enumerate(tables):
        if t is not None:
            rows[i] = seen.get(id(t), 0)
            seen[id(t)] = rows[i] + 1
    return tables, rows


def rank_batches(entries: Sequence) -> list:
    """Per-rank ``entries`` (:func:`table_rows`) as one batch a rank."""
    return [t if t is None else t.row(k) for t, k in zip(*table_rows(entries))]


class ShardRows:
    """A world's shards as they are drawn, rank after rank, ``g`` ranks
    in all.  A table of shards is kept as a block as it is; a single
    shard is written into its shape's open block, which the shape's
    first shard allocates with a row for every rank still to come (a
    page is touched only when its row is written), so no shard outlives
    its row.  :meth:`entries` stacks each shape's blocks."""

    def __init__(self, g: int) -> None:
        self.g, self.shapes, self.blocks = g, [], {}

    def add(self, shard: RecordBatch | ShardTable | None) -> None:
        """One rank's shard (``None``: the rank drew none), or a table of
        shards of one layout, a row a rank."""
        if shard is None:
            return self.shapes.append(None)
        blocks = self.blocks.setdefault((shard.keys.shape[-1], shard.schema), [])
        if type(shard) is ShardTable:
            blocks.append([shard, len(shard.keys)])
        else:
            if not blocks or blocks[-1][1] == len(blocks[-1][0].keys):
                rest = max(1, self.g - len(self.shapes))     # every rank to come
                blocks.append([ShardTable(np.empty((rest, *shard.keys.shape), shard.keys.dtype), {
                    name: np.empty((rest, *col.shape), col.dtype)
                    for name, col in shard.payload.items()}, shard), 0])
            table, k = blocks[-1]
            table.keys[k] = shard.keys
            for name, col in table.payload.items():
                col[k] = shard.payload[name]
            blocks[-1][1] += 1
        self.shapes += [id(blocks)] * (len(shard.keys) if type(shard) is ShardTable else 1)

    def entries(self, ranks: Sequence[int] | None = None) -> list:
        """The per-rank inputs (:func:`table_rows`), ``None`` for a rank
        that drew none; with ``ranks``, row ``k`` of a table tagged with
        the rank of its ``k``-th entry (:meth:`ShardTable.tagged`)."""
        shapes, out = self.shapes, {None: None}
        whole = len(self.blocks) == 1 and None not in shapes
        for blocks in self.blocks.values():
            table = ShardTable.stack([t if k == len(t.keys) else t.head(k) for t, k in blocks])
            out[id(blocks)] = table if ranks is None else table.tagged(
                ranks if whole else [r for r, s in zip(ranks, shapes) if s == id(blocks)])
        return ([out[shapes[0]]] * len(shapes) if whole
                else [out[s] for s in shapes])


#: Most records one payload gather takes (:func:`concat_rows`, the
#: exchange outputs): world-sized scratch that outlives the exchange
#: fragments the heap in front of validation (sds-stable 32 x 100k).
BLOCK_RECORDS = 1 << 16


class SortedRows:
    """Rows of an input table in key order, payload not yet gathered.
    ``rows`` is the input :class:`ShardTable`; ``perm`` and ``keys``
    are the ``(g, n)`` sort permutations and sorted keys of its rows
    from ``lo`` on; ``nbytes`` is one row's wire size.  Every rank of a
    table deposits the table itself: the ``k``-th of them holds row
    ``k`` (:func:`row_tables`).
    """

    __slots__ = ("rows", "perm", "keys", "lo", "schema", "record_bytes",
                 "nbytes")

    def __init__(self, rows: ShardTable, perm: np.ndarray, keys: np.ndarray,
                 lo: int = 0) -> None:
        self.rows, self.perm, self.keys, self.lo = rows, perm, keys, lo
        self.schema, self.record_bytes = rows.schema, rows.record_bytes
        self.nbytes = keys.shape[1] * self.record_bytes

    def row(self, k: int) -> RecordBatch:
        """Row ``k`` gathered."""
        return self.rows.row(self.lo + k).take(self.perm[k], keys=self.keys[k])

    def slice(self, lo: int, hi: int) -> "SortedRows":
        """Rows ``[lo, hi)`` as a table (views, no copy)."""
        return SortedRows(self.rows, self.perm[lo:hi], self.keys[lo:hi],
                          self.lo + lo)


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


def gathered(tables: Sequence[RecordBatch | SortedRows], name: str,
             out: np.ndarray) -> np.ndarray:
    """Payload column ``name`` of ``tables`` (:func:`row_tables`) into
    ``out``, in order: a batch's copied, a table's gathered from its
    input through its permutations, :data:`BLOCK_RECORDS` records at a
    time (a longer row alone)."""
    lo = 0
    for t in tables:
        if type(t) is RecordBatch:
            out[lo:lo + t.keys.size] = t.payload[name]
            lo += t.keys.size
            continue
        col, (g, n) = t.rows.payload[name], t.keys.shape
        if col.strides[0] == 0:       # rows that alias one: ``perm`` indexes it
            np.take(col[0], t.perm.ravel(), axis=0, out=out[lo:lo + g * n],
                    mode="clip")
            lo += g * n
            continue
        step = max(1, BLOCK_RECORDS // max(1, n))
        for a in range(0, g, step):
            perm = t.perm[a:a + step]
            rows = np.arange(t.lo + a, t.lo + a + len(perm))[:, None] * n
            np.take(col.reshape(-1, *col.shape[2:]), (perm + rows).ravel(),
                    axis=0, out=out[lo:lo + perm.size], mode="clip")
            lo += perm.size
    return out


def concat_rows(deposits: Sequence[RecordBatch | SortedRows],
                ) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """``(keys, columns, offsets)`` of per-rank ``deposits``
    (:func:`row_tables`) concatenated, ``offsets`` the start of each
    rank's records: the fused exchanges address a chunk as
    ``offsets[src] + displacement``.  A table's keys are its key matrix
    raveled, each payload column :func:`gathered`.  Raises on a
    payload-schema mismatch.
    """
    tables, lens, _ = row_tables(deposits)
    schemas = list({id(t.schema): t.schema for t in tables}.values())
    if len({tuple(c[0] for c in schema[1:]) for schema in schemas}) > 1:
        raise ValueError(f"payload schema mismatch: {schemas}")
    offsets = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    parts = [t.keys.ravel() for t in tables]
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
    columns = {
        name: gathered(tables, name, np.empty((keys.size, *shape),
                       dtype=np.result_type(*[s[j][1] for s in schemas])))
        for j, (name, _, shape) in enumerate(schemas[0][1:], 1)}
    return keys, columns, offsets


def tag_provenance(batch: RecordBatch, rank: int) -> RecordBatch:
    """``batch`` with ``_src_rank``/``_src_pos`` provenance columns: a
    one-row table's :meth:`~ShardTable.tagged` row.

    The tags travel as ordinary payload — the sort never compares them —
    and let :func:`repro.metrics.validate.check_stable` verify that equal
    keys kept their (rank, position) order.
    """
    return ShardTable.of(batch).tagged([rank]).row(0)


def from_mapping(keys: np.ndarray, payload: Mapping[str, np.ndarray] | None = None) -> RecordBatch:
    """Convenience constructor accepting any mapping for payload."""
    return RecordBatch(np.asarray(keys), dict(payload or {}))
