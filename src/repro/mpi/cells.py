"""The cell-sparse layout of an all-to-all exchange.

Of the p x p ``(src, dst)`` chunks an alltoallv moves, at most
``min(N, p^2)`` are non-empty — ``k`` a rank for a ``k``-way HykSort
level.  A rank hands its send buffer in as one batch plus its
:class:`Cuts` (the non-empty buckets only), and :func:`alltoallv_cells`
derives the exchange's accounting from those cells alone: every array
here is O(cells + p), none is p x p.  ``World.alltoallv`` and the fused
synchronous exchange of :mod:`repro.core.exchange` are its two users.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..records import row_tables

__all__ = ["Cuts", "alltoallv_cells", "by_destination", "dense_table", "world_table"]


class Cuts:
    """A table of ranks' ``p+1`` displacements, as their non-empty buckets.

    One row per rank.  Row ``r`` lists the destinations that receive at
    least one of its records, ascending, as ``dst[ends[r]:ends[r+1]]``,
    and their first-record offsets followed by the row's closer (its
    record count) as ``offs[ends[r] + r:ends[r+1] + r + 1]`` — at most
    ``min(n, p) + 1`` entries a row, where the dense vector has ``p + 1``
    of which all but ``min(n, p)`` repeat their neighbour.  ``ends`` is
    ``None`` for a one-row table — one rank's own cuts.  This is what
    travels from the partition phase to the exchange: a columnar world's
    partition leaves every rank's row of a shard shape in one table
    (:func:`~repro.core.partition.partition_cuts`), and every rank
    deposits it (:func:`world_table`).
    """

    __slots__ = ("p", "dst", "offs", "ends")

    def __init__(self, p: int, dst: np.ndarray, offs: np.ndarray,
                 ends: np.ndarray | None = None):
        self.p = p
        self.dst = dst
        self.offs = offs
        self.ends = None if ends is not None and ends.size == 2 else ends

    @classmethod
    def from_displs(cls, displs: np.ndarray) -> "Cuts":
        """Encode a dense displacement vector (validated by :meth:`check`),
        or a ``(rows, p+1)`` matrix of them as a table.

        Lossless for any input :meth:`check` accepts; an input it must
        reject (wrong length, wrong span, a decreasing step) keeps the
        offending entries, so the rejection still happens there.
        """
        d = np.asarray(displs, dtype=np.int64)
        if d.ndim == 1 or len(d) == 1:
            d = d.reshape(-1)
            dst = np.flatnonzero(d[1:] != d[:-1])
            return cls(len(d) - 1, dst, np.concatenate((d[dst], d[-1:])))
        g, p = d.shape[0], d.shape[1] - 1
        cell = np.flatnonzero(d[:, 1:] != d[:, :-1])
        row, dst = np.divmod(cell, p)
        ends = np.searchsorted(row, np.arange(g + 1))
        offs = np.empty(cell.size + g, dtype=np.int64)
        offs[np.arange(cell.size) + row] = d[row, dst]
        offs[ends[1:] + np.arange(g)] = d[:, -1]      # every row's closer
        return cls(p, dst, offs, ends)

    @classmethod
    def stack(cls, tables: Sequence["Cuts"]) -> "Cuts":
        """One table of every row of ``tables``, in order (their ``p``
        is the first one's)."""
        if len(tables) == 1:
            return tables[0]
        if all(t.ends is None for t in tables):
            sizes = np.array([t.dst.size for t in tables], dtype=np.int64)
        else:
            sizes = np.concatenate([t.sizes() for t in tables])
        ends = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=ends[1:])
        return cls(tables[0].p, np.concatenate([t.dst for t in tables]),
                   np.concatenate([t.offs for t in tables]), ends)

    def __len__(self) -> int:
        """Number of rows."""
        return 1 if self.ends is None else self.ends.size - 1

    def __iter__(self) -> Iterator["Cuts"]:
        return map(self.row, range(len(self)))

    def sizes(self) -> np.ndarray:
        """Non-empty buckets of each row."""
        if self.ends is None:
            return np.array([self.dst.size], dtype=np.int64)
        return np.diff(self.ends)

    def row(self, r: int) -> "Cuts":
        """Row ``r`` as a one-row table (a one-row table is its own)."""
        if self.ends is None:
            if r != 0:
                raise IndexError(f"row {r} of a one-row table")
            return self
        a, b = self.ends[r].item(), self.ends[r + 1].item()
        return Cuts(self.p, self.dst[a:b], self.offs[a + r:b + r + 1])

    __getitem__ = row

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, first, cnt)`` of every non-empty bucket, row-major."""
        row = np.repeat(np.arange(len(self), dtype=np.int64), self.sizes())
        at = np.arange(row.size, dtype=np.int64) + row   # one closer a row
        first = self.offs[at]
        return row, first, self.offs[at + 1] - first

    def check(self, p: int, n: int) -> "Cuts":
        """Require one row of ``p`` buckets spanning ``[0, n]``,
        non-decreasing."""
        offs = self.offs
        if (self.p != p or len(self) != 1 or offs[0] != 0
                or offs[-1] != n):
            raise ValueError("displacements must span [0, len) with p+1 bounds")
        if np.any(offs[1:] < offs[:-1]):
            raise ValueError("displacements must be non-decreasing")
        return self


def world_table(cuts: Sequence[Cuts]) -> Cuts:
    """The table of a stage's rows, one a rank in rank order.

    ``cuts`` holds what every rank deposited: one table of
    ``len(cuts)`` rows, deposited by all of them (a columnar world's
    partition), is read as it is; anything else is each rank's
    own one-row table, stacked.
    """
    first = cuts[0]
    if len(first) == len(cuts) and cuts.count(first) == len(cuts):
        return first
    return Cuts.stack(cuts)


def dense_table(cuts: Sequence[Cuts]) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's record count and first record per destination, two
    ``(ranks, p)`` matrices (0 where it sends nothing), scattered from
    :func:`world_table`'s cells, and allocated first: on a rank thread the
    cell-sized scratch dies above them, leaving no holes (docs/engine.md)."""
    out = np.zeros((2, len(cuts), cuts[0].p), dtype=np.int64)
    table = world_table(cuts)
    row, first, cnt = table.cells()
    out[0, row, table.dst], out[1, row, table.dst] = cnt, first
    return out[0], out[1]


def by_destination(src: np.ndarray, dst: np.ndarray, p: int) -> np.ndarray:
    """Order of the source-major non-empty cells by (destination, source).

    Defined as the stable argsort on ``dst``, and computed as that up to
    ``p = 2**16``: the destinations then fit ``uint16``, whose stable
    sort numpy runs as a radix sort.  Above, the pairs are unique, so
    ranking ``dst * p + src`` with any algorithm, numpy's SIMD sort
    included, is the same permutation without a timsort merge of ``p``
    runs; from ``p = 2**31`` the product could overflow int64.
    """
    if p <= 1 << 16:
        return np.argsort(dst.astype(np.uint16), kind="stable")
    if p < 1 << 31:
        return np.argsort(dst * p + src)
    return np.argsort(dst, kind="stable")


def alltoallv_cells(stage: list, p: int) -> dict:
    """Designated-rank compute of an alltoallv over its non-empty cells.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    communicator rank order, each rank's row of ``cuts`` spanning its
    row of ``batch`` (:func:`world_table`, :func:`~repro.records.row_tables`).
    Returns the cells destination-major in source order — ``src``, ``first``
    (the chunk's first record in its sender's batch) and ``cnt``, with
    destination ``d``'s cells at ``cell[d]:cell[d+1]`` — and the
    accounting: entry time ``t``, per-rank ``send_tot`` / ``recv_tot``
    (bytes that cross the wire: a rank's chunk to itself is left out),
    the gross ``total``, the maxima and the world's ``cuts`` table.

    Exactness, against the p x p byte matrix ``S[s, d] = (D[s, d+1] -
    D[s, d]) * record_bytes[s]`` the dense formulation reduces:

    * received bytes per destination are segment differences of one
      running sum over the non-empty cells; sent bytes per rank are
      ``len(batch_r) * record_bytes[r]`` (a row of counts telescopes to
      ``D[r, p] - D[r, 0]``, the batch length); the diagonal is rank
      ``r``'s cell with ``dst == r`` (zero when it has none),
      subtracted from both; the gross total is the sum of the sent
      bytes — all int64, where addition is associative and empty cells
      add zero, so each value equals the matrix reduction;
    * destination ``d``'s chunks come in **source order** (the
      ``alltoallv`` delivery-order guarantee): a rank's cuts list its
      non-empty cells by ascending destination, so the deposits
      concatenated in rank order are the cells source-major, and
      ordering them by ``(dst, src)`` (:func:`by_destination`) is the
      row-major walk of the transposed layout with the empty cells left
      out.
    """
    batches = [e[0][0] for e in stage]
    cuts = world_table([e[0][1] for e in stage])
    _, lens, widths = row_tables(batches)

    # -- non-empty cells: the table's rows, source-major --
    src, first, cnt = cuts.cells()
    dst = cuts.dst
    own = np.zeros(p, dtype=np.int64)                 # chunk to itself
    diag = src == dst
    own[src[diag]] = cnt[diag] * widths[src[diag]]

    # -- destination-major in source order --
    order = by_destination(src, dst, p)
    src, first, cnt = src[order], first[order], cnt[order]
    cell = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=p), out=cell[1:])
    nbytes = np.concatenate(([0], np.cumsum(cnt * widths[src])))
    sent = lens * widths
    send_tot, recv_tot = sent - own, np.diff(nbytes[cell]) - own
    return {
        "t": max(e[1] for e in stage),
        "max_send": int(send_tot.max()), "max_recv": int(recv_tot.max()),
        "total": int(sent.sum()),
        "send_tot": send_tot, "recv_tot": recv_tot,
        "src": src, "first": first, "cnt": cnt, "cell": cell,
        "batches": batches, "cuts": cuts, "widths": widths,
    }
