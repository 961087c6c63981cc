"""Correctness validators for distributed sort outputs.

A distributed sort of per-rank inputs ``in_0..in_{p-1}`` into per-rank
outputs ``out_0..out_{p-1}`` is correct when:

1. every ``out_r`` is locally sorted;
2. outputs are globally ordered: ``max(out_r) <= min(out_{r+1})``
   for consecutive non-empty outputs;
3. the multiset of records is preserved;
4. (stable mode only) records with equal keys appear in their original
   ``(source rank, source position)`` order — checked via the
   provenance columns added by :func:`repro.records.tag_provenance`.

Property 3 has two forms.  The definition compares columns as
multisets: sorted input keys equal sorted output keys and, when both
sides carry provenance, the same for ``_src_rank`` and ``_src_pos``.
Inputs enter as tables (:class:`~repro.records.ShardTable`: a flat
world's own, or per-rank batches stacked by shape).  Tagged the way
:meth:`~repro.records.ShardTable.tagged` tags a world — each row one
rank's, no rank on two rows, positions ``0..n-1`` in every row — the
tags are an index instead: an output record names the input slot of
``(rank, pos)``, and the check is that every tag is in range, every
slot is named exactly once, and the key stored in the slot is the key
the record carries.  That is O(N), reads three columns, and proves
more: it implies all three sorted comparisons and also pins each key to
its record, which the column-wise form does not (two records trading
tags, or a key overwritten with another record's value, keep every
column's multiset).  Untagged inputs, and tagged inputs in any other
arrangement, are judged by the definition.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..records import SRC_POS, SRC_RANK, RecordBatch, ShardTable, table_rows


class ValidationError(AssertionError):
    """A sort output violated one of the correctness properties."""


class _Columns(NamedTuple):
    """The columns validation reads, concatenated over a world's batches."""

    keys: np.ndarray
    ranks: np.ndarray | None          # None: no provenance columns
    pos: np.ndarray | None


def _names(parts: Sequence[RecordBatch | ShardTable]) -> tuple[str, ...]:
    """The payload column names ``parts`` share (checked once per
    distinct layout, the ``concat`` rule); raises when they differ."""
    names = tuple(parts[0].payload) if parts else ()
    for layout in {t.schema for t in parts}:
        if tuple(column[0] for column in layout[1:]) != names:
            raise ValueError(
                f"payload schema mismatch within {names} batches")
    return names


def _columns(batches: Sequence[RecordBatch],
             keys: np.ndarray | None = None) -> _Columns:
    """Keys and provenance of ``batches`` (:func:`_names`, :func:`_flat`);
    ``keys`` hands in the key column when it is already concatenated."""
    batches = list(batches)
    names = _names(batches)
    keys = _flat(batches) if keys is None else keys
    if SRC_RANK not in names or SRC_POS not in names:
        return _Columns(keys, None, None)
    return _Columns(keys, _flat(batches, SRC_RANK), _flat(batches, SRC_POS))


def _tables(inputs: Sequence) -> list[ShardTable]:
    """Per-rank ``inputs`` as tables (:func:`~repro.records.table_rows`),
    each cut to the rows named.  A batch enters with its keys and tags
    alone: no other column is read, so none is stacked."""
    inputs, tags = list(inputs), (SRC_RANK, SRC_POS)
    _names([e for e in dict.fromkeys(inputs) if e is not None])
    tables = table_rows([
        e if type(e) is not RecordBatch else RecordBatch._unsafe(
            e.keys, {k: v for k, v in e.payload.items() if k in tags})
        for e in inputs])[0]
    return [t if (g := tables.count(t)) == len(t.keys) else t.head(g)
            for t in dict.fromkeys(tables) if t is not None]


def _flat(parts: Sequence[RecordBatch | ShardTable],
          name: str | None = None) -> np.ndarray:
    """Keys (or payload column ``name``) of the ``parts`` that hold
    records — or, when none does, of the first: its empty column keeps
    its dtype — raveled and concatenated: a view of a lone one's."""
    cols = [(t.keys if name is None else t.payload[name]).reshape(-1)
            for t in ([t for t in parts if t.keys.size] or parts[:1])]
    return (cols[0] if len(cols) == 1
            else np.concatenate(cols) if cols else np.zeros(0))


def check_locally_sorted(outputs: Sequence[RecordBatch]) -> None:
    """Property 1: each rank's output is non-decreasing."""
    for r, batch in enumerate(outputs):
        if not batch.is_sorted():
            raise ValidationError(f"rank {r} output is not locally sorted")


def check_globally_ordered(outputs: Sequence[RecordBatch]) -> None:
    """Property 2: rank boundaries respect the global order."""
    prev_max = None
    prev_rank = None
    for r, batch in enumerate(outputs):
        if len(batch) == 0:
            continue
        if prev_max is not None and batch.keys[0] < prev_max:
            raise ValidationError(
                f"rank {r} starts at {batch.keys[0]!r}, below rank "
                f"{prev_rank}'s max {prev_max!r}"
            )
        prev_max = batch.keys[-1]
        prev_rank = r


def check_multiset(inputs: Sequence[RecordBatch | ShardTable],
                   outputs: Sequence[RecordBatch]) -> None:
    """Property 3: no record created, lost, or corrupted.

    Inputs tagged as a world is (one rank a row, positions ``0..n-1``)
    are matched record by record through the provenance index; anything
    else compares sorted key arrays and, when provenance columns are
    present, the sorted rank and position columns (module docstring).
    """
    _check_multiset(_tables(inputs), _columns(outputs))


def _check_multiset(tables: list[ShardTable], outs: _Columns) -> None:
    names, keys = _names(tables), _flat(tables)
    if keys.size != outs.keys.size:
        raise ValidationError(
            f"record count changed: {keys.size} in, "
            f"{outs.keys.size} out"
        )
    tagged = SRC_RANK in names and SRC_POS in names and outs.ranks is not None
    # tags promoted to float by the sort under test: the definition
    # compares them by value, the index cannot address with them
    if tagged and outs.ranks.dtype.kind in "iu" \
            and outs.pos.dtype.kind in "iu":
        index = _provenance_index(tables)
        if index is not None:
            _check_records(keys, outs, *index)
            return
    if not np.array_equal(np.sort(keys), np.sort(outs.keys)):
        raise ValidationError("key multiset changed")
    if tagged:
        for col, b in ((SRC_RANK, outs.ranks), (SRC_POS, outs.pos)):
            if not np.array_equal(np.sort(_flat(tables, col)), np.sort(b)):
                raise ValidationError(f"provenance multiset changed in {col}")


def _provenance_index(tables: Sequence[ShardTable]
                      ) -> tuple[np.ndarray, np.ndarray] | None:
    """``(base, size)`` by rank when the input tags index the input.

    That takes every row of every table tagged with one rank, no rank on
    two rows (gaps allowed: a crashed rank's input leaves with it), and
    positions ``0..n-1`` in each row — proved once per table, from one
    row where the rows alias it (:meth:`ShardTable.tagged`); record
    ``(rank, pos)`` then sits at ``base[rank] + pos`` of the raveled
    input (:func:`_flat`).  ``None`` for any other tagging.
    """
    parts, at = [np.zeros((3, 0), dtype=np.int64)], 0
    for t in tables:
        (g, n), pos, tag = t.keys.shape, t.payload[SRC_POS], t.payload[SRC_RANK]
        if not g * n:
            continue
        rank = tag[:, 0].astype(np.int64)
        if not (((pos[:1] if pos.strides[0] == 0 else pos) == np.arange(n)).all()
                and np.array_equal(tag.min(axis=1), rank)
                and np.array_equal(tag.max(axis=1), rank)):
            return None
        parts.append(np.array([rank, at + n * np.arange(g), np.full(g, n)]))
        at += g * n
    rank, start, length = np.concatenate(parts, axis=1)
    if rank.size and (rank.min() < 0 or np.bincount(rank).max() > 1):
        return None
    base = np.zeros(int(rank.max()) + 1 if rank.size else 0, dtype=np.int64)
    size = np.zeros_like(base)
    base[rank], size[rank] = start, length
    return base, size


def _check_records(keys: np.ndarray, outs: _Columns, base: np.ndarray,
                   size: np.ndarray) -> None:
    """Every output record is one input record, each taken exactly once."""
    ranks = outs.ranks.astype(np.int64, copy=False)
    pos = outs.pos.astype(np.int64, copy=False)
    if np.any((ranks < 0) | (ranks >= size.size)):
        raise ValidationError(
            f"provenance multiset changed in {SRC_RANK}: a record names a "
            f"rank that held no input")
    if np.any((pos < 0) | (pos >= size[ranks])):
        raise ValidationError(
            f"provenance multiset changed in {SRC_POS}: a record names a "
            f"position past its source rank's input")
    slot = base[ranks] + pos
    taken = np.zeros(keys.size, dtype=bool)
    taken[slot] = True
    if not taken.all():                    # equal counts: a miss = a repeat
        raise ValidationError(
            "provenance multiset changed: an input record is missing and "
            "another appears twice")
    if not np.array_equal(keys[slot], outs.keys):
        raise ValidationError(
            "key multiset changed: a record's key is not the key of the "
            "input record its provenance names")


def check_stable(outputs: Sequence[RecordBatch]) -> None:
    """Property 4: equal keys keep their (source rank, position) order.

    Requires provenance columns (see :func:`repro.records.tag_provenance`).
    """
    _check_stable(_columns(outputs))


def _check_stable(outs: _Columns) -> None:
    if outs.ranks is None:
        raise ValidationError("stability check needs provenance columns")
    keys = outs.keys
    ranks = outs.ranks.astype(np.int64)
    pos = outs.pos.astype(np.int64)
    same = keys[1:] == keys[:-1]
    tag = ranks * (pos.max() + 1 if pos.size else 1) + pos
    bad = same & (tag[1:] <= tag[:-1])
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValidationError(
            f"stability violated at global position {i + 1}: key "
            f"{keys[i + 1]!r} from (rank {ranks[i + 1]}, pos {pos[i + 1]}) "
            f"follows (rank {ranks[i]}, pos {pos[i]})"
        )


def check_sorted(inputs: Sequence[RecordBatch | ShardTable],
                 outputs: Sequence[RecordBatch],
                 *, stable: bool = False) -> None:
    """Run all applicable validators; raise :class:`ValidationError` on failure.

    Properties 1 and 2 together say the concatenated output keys do not
    decrease, so that column — multiset validation reads it anyway — is
    tested in one pass (a NaN fails it, as it fails
    :meth:`RecordBatch.is_sorted`).  Only when that pass objects, or
    batches of different key dtypes would be compared after promotion,
    do :func:`check_locally_sorted` and :func:`check_globally_ordered`
    — the definitions — go through the batches to word the verdict.
    """
    outputs = list(outputs)
    keys = _flat(outputs)
    if (len({b.keys.dtype for b in outputs}) > 1
            or not bool(np.all(keys[1:] >= keys[:-1]))):
        check_locally_sorted(outputs)
        check_globally_ordered(outputs)
    outs = _columns(outputs, keys)
    _check_multiset(_tables(inputs), outs)
    if stable:
        _check_stable(outs)
