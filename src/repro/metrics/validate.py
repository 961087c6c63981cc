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
Inputs tagged the way :func:`~repro.records.tag_provenance` tags a
world — batches in ascending rank order, positions ``0..n-1`` within
each — make the tags an index instead: an output record names the
input slot ``base[rank] + pos``, and the check is that every tag is in
range, every slot is named exactly once, and the key stored in the slot
is the key the record carries.  That is O(N), reads three columns, and
proves more: it implies all three sorted comparisons and also pins each
key to its record, which the column-wise form does not (two records
trading tags, or a key overwritten with another record's value, keep
every column's multiset).  Untagged inputs, and tagged inputs in any
other arrangement, are judged by the definition.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..records import SRC_POS, SRC_RANK, RecordBatch


class ValidationError(AssertionError):
    """A sort output violated one of the correctness properties."""


class _Columns(NamedTuple):
    """The columns validation reads, concatenated over a world's batches."""

    keys: np.ndarray
    ranks: np.ndarray | None          # None: no provenance columns
    pos: np.ndarray | None
    lengths: np.ndarray               # records per batch


def _held(batches: Sequence[RecordBatch]) -> list[RecordBatch]:
    """The batches that hold records — what a concatenation reads — or,
    when none does, the first (its empty columns keep their dtypes)."""
    held = [b for b in batches if b.keys.size]
    return held or list(batches[:1])


def _columns(batches: Sequence[RecordBatch],
             keys: np.ndarray | None = None) -> _Columns:
    """Keys and provenance of ``batches`` (same column rule as ``concat``,
    checked once per distinct layout); ``keys`` hands in the key column
    when it is already concatenated.  Only batches that hold records are
    concatenated."""
    batches = list(batches)
    lengths = np.array([b.keys.size for b in batches], dtype=np.int64)
    if not batches:
        return _Columns(np.zeros(0), None, None, lengths)
    schema = batches[0].columns
    for layout in {b.schema for b in batches}:
        if tuple(column[0] for column in layout[1:]) != schema:
            raise ValueError(
                f"payload schema mismatch within {schema} batches")
    held = _held(batches)
    if keys is None:
        keys = np.concatenate([b.keys for b in held])
    if SRC_RANK not in schema or SRC_POS not in schema:
        return _Columns(keys, None, None, lengths)
    return _Columns(
        keys,
        np.concatenate([b.payload[SRC_RANK] for b in held]),
        np.concatenate([b.payload[SRC_POS] for b in held]),
        lengths)


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


def check_multiset(inputs: Sequence[RecordBatch],
                   outputs: Sequence[RecordBatch]) -> None:
    """Property 3: no record created, lost, or corrupted.

    Inputs tagged rank-ascending with positions ``0..n-1`` are matched
    record by record through the provenance index; anything else
    compares sorted key arrays and, when provenance columns are
    present, the sorted rank and position columns (module docstring).
    """
    _check_multiset(_columns(inputs), _columns(outputs))


def _check_multiset(ins: _Columns, outs: _Columns) -> None:
    if ins.keys.size != outs.keys.size:
        raise ValidationError(
            f"record count changed: {ins.keys.size} in, "
            f"{outs.keys.size} out"
        )
    tagged = ins.ranks is not None and outs.ranks is not None
    # tags promoted to float by the sort under test: the definition
    # compares them by value, the index cannot address with them
    if tagged and outs.ranks.dtype.kind in "iu" \
            and outs.pos.dtype.kind in "iu":
        index = _provenance_index(ins)
        if index is not None:
            _check_records(ins, outs, *index)
            return
    if not np.array_equal(np.sort(ins.keys), np.sort(outs.keys)):
        raise ValidationError("key multiset changed")
    if tagged:
        for col, a, b in ((SRC_RANK, ins.ranks, outs.ranks),
                          (SRC_POS, ins.pos, outs.pos)):
            if not np.array_equal(np.sort(a), np.sort(b)):
                raise ValidationError(f"provenance multiset changed in {col}")


def _provenance_index(ins: _Columns
                      ) -> tuple[np.ndarray, np.ndarray] | None:
    """``(base, size)`` by rank when the input tags index the input.

    That takes every batch tagged with one rank, ranks ascending over
    the non-empty batches (gaps allowed: a crashed rank's input leaves
    with it) and positions ``0..n-1`` in each; record ``(rank, pos)``
    then sits at ``base[rank] + pos`` of the concatenated input.
    ``None`` for any other tagging.
    """
    held = ins.lengths > 0
    lengths = ins.lengths[held]
    starts = np.cumsum(lengths) - lengths
    n = ins.keys.size
    if not np.array_equal(
            ins.pos, np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)):
        return None
    ranks = ins.ranks[starts].astype(np.int64)
    ascending = ranks.size == 0 or (
        ranks[0] >= 0 and bool(np.all(ranks[1:] > ranks[:-1])))
    if not (ascending
            and np.array_equal(ins.ranks, np.repeat(ranks, lengths))):
        return None
    base = np.zeros(int(ranks[-1]) + 1 if ranks.size else 0, dtype=np.int64)
    size = np.zeros_like(base)
    base[ranks], size[ranks] = starts, lengths
    return base, size


def _check_records(ins: _Columns, outs: _Columns, base: np.ndarray,
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
    taken = np.zeros(ins.keys.size, dtype=bool)
    taken[slot] = True
    if not taken.all():                    # equal counts: a miss = a repeat
        raise ValidationError(
            "provenance multiset changed: an input record is missing and "
            "another appears twice")
    if not np.array_equal(ins.keys[slot], outs.keys):
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


def check_sorted(inputs: Sequence[RecordBatch], outputs: Sequence[RecordBatch],
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
    keys = (np.concatenate([b.keys for b in _held(outputs)]) if outputs
            else np.zeros(0))
    if (len({b.keys.dtype for b in outputs}) > 1
            or not bool(np.all(keys[1:] >= keys[:-1]))):
        check_locally_sorted(outputs)
        check_globally_ordered(outputs)
    outs = _columns(outputs, keys)
    _check_multiset(_columns(inputs), outs)
    if stable:
        _check_stable(outs)
