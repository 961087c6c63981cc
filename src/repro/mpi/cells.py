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

import numpy as np

__all__ = ["Cuts", "alltoallv_cells", "by_destination"]


class Cuts:
    """A rank's ``p+1`` displacements, as its non-empty buckets only.

    ``dst`` lists the destinations that receive at least one record,
    ascending; ``offs[j]`` is the first record of bucket ``dst[j]`` and
    ``offs[-1]`` closes the last one — at most ``min(n, p) + 1``
    entries, where the dense vector has ``p + 1`` of which all but
    ``min(n, p)`` repeat their neighbour.  This is what travels from
    the partition phase to the exchange.
    """

    __slots__ = ("p", "dst", "offs")

    def __init__(self, p: int, dst: np.ndarray, offs: np.ndarray):
        self.p = p
        self.dst = dst
        self.offs = offs

    @classmethod
    def from_displs(cls, displs: np.ndarray) -> "Cuts":
        """Encode a dense displacement vector (validated by :meth:`check`).

        Lossless for any input :meth:`check` accepts; an input it must
        reject (wrong length, wrong span, a decreasing step) keeps the
        offending entries, so the rejection still happens there.
        """
        d = np.asarray(displs, dtype=np.int64)
        dst = np.flatnonzero(d[1:] != d[:-1])
        return cls(len(d) - 1, dst, np.concatenate((d[dst], d[-1:])))

    def check(self, p: int, n: int) -> "Cuts":
        """Require ``p`` buckets spanning ``[0, n]``, non-decreasing."""
        offs = self.offs
        if self.p != p or offs[0] != 0 or offs[-1] != n:
            raise ValueError("displacements must span [0, len) with p+1 bounds")
        if np.any(offs[1:] < offs[:-1]):
            raise ValueError("displacements must be non-decreasing")
        return self

    def displs(self) -> np.ndarray:
        """The dense ``p+1`` displacement vector."""
        counts = np.zeros(self.p, dtype=np.int64)
        counts[self.dst] = np.diff(self.offs)
        d = np.zeros(self.p + 1, dtype=np.int64)
        np.cumsum(counts, out=d[1:])
        return d


def by_destination(src: np.ndarray, dst: np.ndarray, p: int) -> np.ndarray:
    """Order of the source-major non-empty cells by (destination, source).

    Defined as the stable argsort on ``dst``.  The pairs are unique, so
    ranking ``dst * p + src`` with any algorithm, numpy's SIMD sort
    included, is the same permutation without a timsort merge of ``p``
    runs; from ``p = 2**31`` the product could overflow int64.
    """
    if p < 1 << 31:
        return np.argsort(dst * p + src)
    return np.argsort(dst, kind="stable")


def alltoallv_cells(stage: list, p: int) -> dict:
    """Designated-rank compute of an alltoallv over its non-empty cells.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    communicator rank order, each ``cuts`` spanning its batch.  Returns
    the cells destination-major in source order — ``src``, ``first``
    (the chunk's first record in its sender's batch) and ``cnt``, with
    destination ``d``'s cells at ``cell[d]:cell[d+1]`` — and the
    accounting: entry time ``t``, per-rank ``send_tot`` / ``recv_tot``
    (bytes that cross the wire: a rank's chunk to itself is left out)
    and ``recv_all`` (with it), the gross ``total`` and the maxima.

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
    cuts = [e[0][1] for e in stage]
    widths = np.array([b.record_bytes for b in batches], dtype=np.int64)
    lens = np.array([b.keys.size for b in batches], dtype=np.int64)

    # -- non-empty cells: the deposits, concatenated source-major --
    src = np.repeat(np.arange(p, dtype=np.int64),
                    [c.dst.size for c in cuts])
    dst = np.concatenate([c.dst for c in cuts])
    edges = np.concatenate([c.offs for c in cuts])    # one closer per rank
    at = np.arange(src.size, dtype=np.int64) + src
    first = edges[at]
    cnt = edges[at + 1] - first
    own = np.zeros(p, dtype=np.int64)                 # chunk to itself
    diag = src == dst
    own[src[diag]] = cnt[diag] * widths[src[diag]]

    # -- destination-major in source order --
    order = by_destination(src, dst, p)
    src, first, cnt = src[order], first[order], cnt[order]
    cell = np.searchsorted(dst[order], np.arange(p + 1))
    nbytes = np.concatenate(([0], np.cumsum(cnt * widths[src])))
    recv_all = np.diff(nbytes[cell])                  # includes own chunk
    sent = lens * widths
    send_tot, recv_tot = sent - own, recv_all - own
    return {
        "t": max(e[1] for e in stage),
        "max_send": int(send_tot.max()), "max_recv": int(recv_tot.max()),
        "total": int(sent.sum()),
        "send_tot": send_tot, "recv_tot": recv_tot, "recv_all": recv_all,
        "src": src, "first": first, "cnt": cnt, "cell": cell,
        "batches": batches, "cuts": cuts, "widths": widths,
    }
