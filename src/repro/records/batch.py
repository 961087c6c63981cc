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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..kernels import same_key_groups, sequential_argsort

#: Reserved payload column names used by the stability validator.
SRC_RANK = "_src_rank"
SRC_POS = "_src_pos"


@dataclass
class RecordBatch:
    """A batch of records: one key column and aligned payload columns."""

    keys: np.ndarray
    payload: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys)
        if self.keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        self.payload = {k: np.asarray(v) for k, v in self.payload.items()}
        for name, col in self.payload.items():
            if len(col) != len(self.keys):
                raise ValueError(
                    f"payload column {name!r} has length {len(col)}, "
                    f"expected {len(self.keys)}"
                )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Total bytes of key and payload storage.

        Cached after the first query: the simulated communicator sizes
        every staged batch at least twice (sender-side size vectors,
        receiver-side accounting), and batches are treated as immutable
        once handed to the engine.  In-place column mutation after a
        size query would go unnoticed — create a new batch instead.
        """
        nb = self.__dict__.get("_nbytes")
        if nb is None:
            nb = int(self.keys.nbytes) + sum([int(c.nbytes)
                                              for c in self.payload.values()])
            self.__dict__["_nbytes"] = nb
        return nb

    @classmethod
    def _unsafe(cls, keys: np.ndarray,
                payload: dict[str, np.ndarray]) -> "RecordBatch":
        """Validation-free constructor for internal structural ops.

        Callers guarantee ``keys``/``payload`` are aligned ndarrays
        (slices or fancy-indexed views of an already-validated batch):
        an exchange builds one per received chunk.
        """
        b = object.__new__(cls)
        b.keys = keys
        b.payload = payload
        return b

    @property
    def row_nbytes(self) -> int:
        """Storage bytes per record, robust to multi-dimensional payload.

        ``len(b) * b.row_nbytes == b.nbytes`` for contiguous batches;
        an exchange sizes its chunks with it without building them.
        Cached like :attr:`nbytes`, under the same immutability note.
        """
        width = self.__dict__.get("_row_nbytes")
        if width is None:
            width = self.keys.dtype.itemsize + sum(
                c.dtype.itemsize * math.prod(c.shape[1:])
                for c in self.payload.values())
            self.__dict__["_row_nbytes"] = width
        return width

    @property
    def record_bytes(self) -> int:
        """Bytes per record (key + payload width)."""
        width = self.keys.dtype.itemsize
        width += sum([c.dtype.itemsize for c in self.payload.values()])
        return width

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.payload)

    @property
    def schema(self) -> tuple:
        """Hashable layout: key dtype, then ``(name, dtype)`` per column
        — everything :meth:`empty_like` takes from a prototype."""
        return (self.keys.dtype,
                *[(k, v.dtype) for k, v in self.payload.items()])

    def copy(self) -> "RecordBatch":
        return RecordBatch(self.keys.copy(), {k: v.copy() for k, v in self.payload.items()})

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray, *,
             keys: np.ndarray | None = None) -> "RecordBatch":
        """Select records by index (also used to apply sort permutations).

        A sort kernel that already gathered the key column hands it in
        as ``keys`` (it must equal ``self.keys[indices]``) and only the
        payload is gathered here.  A selection as long as the batch (a
        permutation) occupies the same storage, so a size already
        computed is carried over.
        """
        out = RecordBatch._unsafe(
            self.keys[indices] if keys is None else keys,
            {k: v[indices] for k, v in self.payload.items()},
        )
        nbytes = self.__dict__.get("_nbytes")
        if nbytes is not None and len(out.keys) == len(self.keys):
            out.__dict__["_nbytes"] = nbytes
        return out

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Contiguous sub-batch ``[start, stop)`` (views, no copy)."""
        return RecordBatch._unsafe(
            self.keys[start:stop],
            {k: v[start:stop] for k, v in self.payload.items()},
        )

    def split(self, displs: Sequence[int]) -> list["RecordBatch"]:
        """Split at ``p+1`` displacement boundaries into ``p`` sub-batches.

        ``displs`` must be non-decreasing with ``displs[0] == 0`` and
        ``displs[-1] == len(self)`` — exactly the send-displacement
        array the partitioners produce.  Children get their ``nbytes``
        cache pre-filled from one vectorised per-record-width multiply,
        saving the communicator a per-chunk column walk when sizing the
        p^2 sub-batches of an exchange.
        """
        d = np.asarray(displs, dtype=np.int64)
        if d[0] != 0 or d[-1] != len(self):
            raise ValueError("displacements must span [0, len)")
        if np.any(np.diff(d) < 0):
            raise ValueError("displacements must be non-decreasing")
        keys, payload = self.keys, self.payload
        rec_bytes = self.row_nbytes
        bounds = d.tolist()
        out = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = RecordBatch._unsafe(
                keys[lo:hi], {k: v[lo:hi] for k, v in payload.items()})
            b.__dict__["_nbytes"] = (hi - lo) * rec_bytes
            out.append(b)
        return out

    def sort(self, *, stable: bool = False) -> "RecordBatch":
        """Return a copy sorted by key, payload reordered alongside."""
        return self.take(sequential_argsort(self.keys, stable=stable))

    def is_sorted(self) -> bool:
        if len(self) <= 1:
            return True
        return bool(np.all(self.keys[1:] >= self.keys[:-1]))

    @staticmethod
    def concat(batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches (all must share the same payload schema)."""
        batches = list(batches)
        if not batches:
            return RecordBatch(np.zeros(0, dtype=np.float64))
        schema = batches[0].columns
        for b in batches[1:]:
            if b.columns != schema:
                raise ValueError(f"payload schema mismatch: {b.columns} != {schema}")
        keys = np.concatenate([b.keys for b in batches])
        payload = {
            name: np.concatenate([b.payload[name] for b in batches]) for name in schema
        }
        return RecordBatch(keys, payload)

    @staticmethod
    def empty_like(proto: "RecordBatch") -> "RecordBatch":
        """Zero-length batch with ``proto``'s dtypes and schema."""
        return RecordBatch(
            np.zeros(0, dtype=proto.keys.dtype),
            {k: np.zeros(0, dtype=v.dtype) for k, v in proto.payload.items()},
        )


def concat_batch_arrays(
    batches: Sequence[RecordBatch],
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Concatenate keys and payload columns of schema-identical batches.

    Returns ``(keys, columns, offsets)`` where ``offsets`` is the
    ``(len(batches) + 1,)`` int64 start offset of each batch within the
    concatenation.  This is the slice-free gather the fused exchanges
    build on: rather than materialising ``p^2`` sub-batches, they
    concatenate each rank's *whole* batch once and address sub-ranges as
    ``offsets[src] + local_displacement``.  Raises on payload-schema
    mismatch (the same check :meth:`RecordBatch.concat` performs).
    """
    batches = list(batches)
    if not batches:
        return (np.zeros(0), {}, np.zeros(1, dtype=np.int64))
    schema = batches[0].columns
    for b in batches[1:]:
        if b.columns != schema:
            raise ValueError(
                f"payload schema mismatch: {b.columns} != {schema}")
    offsets = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=offsets[1:])
    keys = np.concatenate([b.keys for b in batches])
    columns = {name: np.concatenate([b.payload[name] for b in batches])
               for name in schema}
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
    return RecordBatch(batch.keys.copy(), payload)


def tag_provenance_world(batches: Sequence[RecordBatch | None],
                         ranks: Sequence[int]) -> list[RecordBatch | None]:
    """:func:`tag_provenance` for many ranks' shards in one pass.

    ``batches[i]`` is rank ``ranks[i]``'s shard (``None`` entries pass
    through).  Column for column the result equals
    ``tag_provenance(batches[i], ranks[i])``, built with what a whole
    world makes redundant left out: keys and payload columns are shared
    with the input batch, not copied (the caller hands over freshly
    generated shards it drops), equal-length shards share one read-only
    ``_src_pos`` column and cut their ``_src_rank`` columns from one
    block, and the already-validated input plus length-``n``-by-
    construction tag columns need no second validation.
    """
    out: list[RecordBatch | None] = [None] * len(batches)
    lengths = [-1 if b is None else b.keys.size for b in batches]
    for members in same_key_groups(lengths):
        n = lengths[members[0]]
        if n < 0:
            continue
        pos = np.arange(n, dtype=np.int64)
        pos.setflags(write=False)
        src = np.repeat(np.array([ranks[i] for i in members],
                                 dtype=np.int32), n).reshape(len(members), n)
        for row, i in zip(src, members):
            b = batches[i]
            out[i] = RecordBatch._unsafe(
                b.keys, {**b.payload, SRC_RANK: row, SRC_POS: pos})
    return out


def from_mapping(keys: np.ndarray, payload: Mapping[str, np.ndarray] | None = None) -> RecordBatch:
    """Convenience constructor accepting any mapping for payload."""
    return RecordBatch(np.asarray(keys), dict(payload or {}))
