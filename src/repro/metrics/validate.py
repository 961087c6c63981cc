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
tags are an index instead: every tag must be in range, every input slot
named exactly once, with the key the record carries.  That is O(N) and
proves more: it pins each key to its record, which the column-wise
form does not (two records trading tags, or a key overwritten with
another record's value, keep every column's multiset).  Untagged
inputs, and tagged inputs in any other arrangement, are judged by the
definition.  Outputs enter as the exchange hands them out (one
:class:`~repro.records.RaggedTable` per gather, named once per row) and
as loose batches, and are read in rank order a part at a time
(:func:`_parts`): no output column of the world is concatenated, and
verdicts are raised in the definitions' order however the outputs are
cut.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

from ..records import (SRC_POS, SRC_RANK, RaggedTable, RecordBatch,
                       ShardTable, rank_batches, table_rows)


class ValidationError(AssertionError):
    """A sort output violated one of the correctness properties."""


def _names(parts: Sequence) -> tuple[str, ...]:
    """The payload column names ``parts`` share (checked once per
    distinct layout, the ``concat`` rule); raises when they differ."""
    names = tuple(parts[0].payload) if parts else ()
    for layout in {t.schema for t in parts}:
        if tuple(column[0] for column in layout[1:]) != names:
            raise ValueError(
                f"payload schema mismatch within {names} batches")
    return names


def _parts(outputs: Sequence[RecordBatch | RaggedTable]) -> list[RecordBatch]:
    """The records of per-rank ``outputs`` in rank order, a batch a part:
    a loose batch, or a stretch of one table's consecutive rows (ranks
    without records between do not break it)."""
    parts, seen = [], {}
    for entry, named in groupby(o for o in outputs if type(o) is not
                                RecordBatch or o.keys.size):
        g = sum(1 for _ in named)
        if type(entry) is RecordBatch:
            parts += [entry] * g
            continue
        k = seen.get(id(entry), 0)                    # the k-th naming: row k
        seen[id(entry)] = k + g
        parts.append(entry.slice(entry.offs[k], entry.offs[k + g]))
    return [b for b in parts if b.keys.size]


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
                   outputs: Sequence[RecordBatch | RaggedTable]) -> None:
    """Property 3: no record created, lost, or corrupted.

    Inputs tagged as a world is (one rank a row, positions ``0..n-1``)
    are matched record by record through the provenance index; anything
    else compares sorted key arrays and, when provenance columns are
    present, the sorted rank and position columns (module docstring).
    """
    _check_multiset(_tables(inputs), _names(list(dict.fromkeys(outputs))),
                    _parts(outputs))


def _check_multiset(tables: list[ShardTable], names: tuple[str, ...],
                    parts: list[RecordBatch]) -> None:
    """Property 3 on the output ``parts``, whose payload is ``names``."""
    keys, count = _flat(tables), sum(len(b) for b in parts)
    if keys.size != count:
        raise ValidationError(
            f"record count changed: {keys.size} in, {count} out")
    tags = (SRC_RANK, SRC_POS)
    tagged = set(tags) <= set(_names(tables)) and set(tags) <= set(names)
    # tags promoted to float by the sort under test: the definition
    # compares them by value, the index cannot address with them
    if tagged and all(b.payload[c].dtype.kind in "iu" for b in parts
                      for c in tags):
        index = _provenance_index(tables)
        if index is not None:
            return _check_records(keys, parts, *index)
    if not np.array_equal(np.sort(keys), np.sort(_flat(parts))):
        raise ValidationError("key multiset changed")
    for col in tags if tagged else ():
        if not np.array_equal(np.sort(_flat(tables, col)),
                              np.sort(_flat(parts, col))):
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


_RECORD_VERDICTS = (
    f"provenance multiset changed in {SRC_RANK}: a record names a rank "
    "that held no input",
    f"provenance multiset changed in {SRC_POS}: a record names a position "
    "past its source rank's input",
    "provenance multiset changed: an input record is missing and another "
    "appears twice",
    "key multiset changed: a record's key is not the key of the input "
    "record its provenance names")


def _check_records(keys: np.ndarray, parts: list[RecordBatch],
                   base: np.ndarray, size: np.ndarray) -> None:
    """Every output record is one input record, each taken exactly once:
    tags in range, slot and key checked a part at a time, the verdicts
    (``_RECORD_VERDICTS``) raised in order."""
    taken, found = np.zeros(keys.size, dtype=bool), set()
    for b in parts:
        ranks = b.payload[SRC_RANK].astype(np.int64, copy=False)
        pos = b.payload[SRC_POS].astype(np.int64, copy=False)
        if ranks.min() < 0 or ranks.max() >= size.size:
            found.add(0)
        elif pos.min() < 0 or (pos >= size[ranks]).any():
            found.add(1)
        else:
            slot = base[ranks] + pos
            taken[slot] = True
            if not (keys[slot] == b.keys).all():
                found.add(3)
    if not taken.all():                    # equal counts: a miss = a repeat
        found.add(2)
    if found:
        raise ValidationError(_RECORD_VERDICTS[min(found)])


def check_stable(outputs: Sequence[RecordBatch | RaggedTable]) -> None:
    """Property 4: equal keys keep their (source rank, position) order.

    Requires provenance columns (see :func:`repro.records.tag_provenance`).
    """
    _check_stable(_names(list(dict.fromkeys(outputs))), _parts(outputs))


def _check_stable(names: tuple[str, ...], parts: list[RecordBatch]) -> None:
    if SRC_RANK not in names or SRC_POS not in names:
        raise ValidationError("stability check needs provenance columns")
    at, last = 0, None                 # ``last``: the record before a part
    for b in parts:
        keys = b.keys
        ranks, pos = (b.payload[c].astype(np.int64) for c in (SRC_RANK, SRC_POS))
        first = (keys[0], ranks[0], pos[0])
        if last is not None and first[0] == last[0] and first[1:] <= last[1:]:
            raise _unstable(at, last, first)
        r0, r1 = ranks[:-1], ranks[1:]
        bad = (keys[1:] == keys[:-1]) & (
            (r1 < r0) | ((r1 == r0) & (pos[1:] <= pos[:-1])))
        if bad.any():
            i = int(np.argmax(bad))
            raise _unstable(at + i + 1, (keys[i], ranks[i], pos[i]),
                            (keys[i + 1], ranks[i + 1], pos[i + 1]))
        at, last = at + keys.size, (keys[-1], ranks[-1], pos[-1])


def _unstable(at: int, a: tuple, b: tuple) -> ValidationError:
    """Record ``b`` = ``(key, rank, pos)``, at ``at``, follows ``a``."""
    return ValidationError(
        f"stability violated at global position {at}: key {b[0]!r} from "
        f"(rank {b[1]}, pos {b[2]}) follows (rank {a[1]}, pos {a[2]})")


def check_sorted(inputs: Sequence[RecordBatch | ShardTable],
                 outputs: Sequence[RecordBatch | RaggedTable],
                 *, stable: bool = False) -> None:
    """Run all applicable validators; raise :class:`ValidationError` on failure.

    Properties 1 and 2 together say the output keys, in rank order, do
    not decrease: each part's, and from one part to the next (a NaN
    fails it, as it fails :meth:`RecordBatch.is_sorted`).  Only when
    that objects, or outputs of different key dtypes would be compared
    after promotion, do :func:`check_locally_sorted` and
    :func:`check_globally_ordered` — the definitions — go through the
    per-rank batches to word the verdict.
    """
    outputs = list(outputs)
    parts, entries = _parts(outputs), list(dict.fromkeys(outputs))
    if (len({e.keys.dtype for e in entries}) > 1
            or not all(b.is_sorted() for b in parts)
            or not all(a.keys[-1] <= b.keys[0] for a, b in zip(parts, parts[1:]))):
        batches = rank_batches(outputs)
        check_locally_sorted(batches)
        check_globally_ordered(batches)
    names = _names(entries)
    _check_multiset(_tables(inputs), names, parts)
    if stable:
        _check_stable(names, parts)
