"""Sequential sort wrappers standing in for ``std::sort`` / ``std::stable_sort``.

The paper's SdssLocalSort dispatches to the C++ standard-library sorts
per chunk (Section 2.2); here numpy's introsort (``kind='quicksort'``)
plays ``std::sort`` and :func:`stable_argsort` plays
``std::stable_sort``.  The wrappers also expose permutation-returning
variants so record payloads can be reordered without re-comparing keys.

:func:`stable_argsort` is the one stable sort of record keys in the
package: the local sort, the node-leader and post-exchange k-way merges
and the arrival fold of the overlapped exchange all call it, on a 1-D
array or a row stack, so every backend shares one definition.  That
definition is ``np.argsort(kind="stable")`` — the stable permutation of
an array is unique (equal keys in ascending input position), so a
faster route to it changes no permutation anywhere.
:func:`stable_argsort_segments` is the same sort for a ragged stack —
every destination's received runs after an exchange — and sorts many
segments in one call of the same packed kernel.
"""

from __future__ import annotations

import numpy as np

#: Below this many keys ``np.argsort(kind="stable")`` is the faster
#: route: the packed path's ten array passes cost a fixed 15-20 us, and
#: what the merge sites hand over is a few sorted runs, which timsort
#: only has to merge.  The floor is on the whole input, so a tall stack
#: of short rows still packs (measurements in CHANGELOG.md).
_PACKED_MIN_KEYS = 2048

#: Most keys :func:`stable_argsort_segments` sorts in one packed
#: ``ndarray.sort``.  Fusing shares the fixed cost of a sort call; a
#: block that stays in the L2 cache is passed over ten times at cache
#: speed; and the scratch, allocated once per call at the longest
#: block, stays under the 256 KiB from which it sticks in a rank
#: thread's malloc arena (block sweep in CHANGELOG.md).  A longer
#: segment is its own block, so a 100k-key destination sorts exactly as
#: one ``stable_argsort`` call.
_SEGMENT_BLOCK_KEYS = 1 << 13

_SIGN = np.int64(-1 << 63)


def stable_argsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort along the last axis: ``(perm, sorted_keys)``.

    ``keys`` is a 1-D array or a ``(g, n)`` row stack.  ``perm`` equals
    ``np.argsort(keys, axis=-1, kind="stable")`` element for element and
    ``sorted_keys`` equals ``np.take_along_axis(keys, perm, -1)``.

    float64 keys without NaN take the packed path: a key made unique by
    its position has exactly one sorted order, so *any* sort of (key,
    index) pairs yields the stable permutation.  Each key is mapped to
    its order-preserving uint64 image (all bits flipped when the sign
    bit is set, else the sign bit set; ``-0.0`` is first canonicalised
    to ``+0.0`` by ``keys + 0.0`` because the two compare equal but
    their images would not), the low ``b = bit_length(n - 1)`` bits are
    overwritten with the element's index in its row, and the packed
    words — all distinct, so the outcome depends on neither the sort
    algorithm nor numpy's SIMD dispatch — are sorted in place by
    ``ndarray.sort`` (6 ns per key on a 100k ptf shard, against 82 ns
    for the timsort argsort).  The permutation is the low bits; the keys
    are gathered once, from the caller's array, so ``-0.0`` comes back
    as it went in.

    Dropping ``b`` low bits can merge two keys that differ only there;
    such keys come out in index order rather than key order, and the
    gathered keys then descend somewhere in that row.  Only such a row
    is repaired, by one ``np.argsort(kind="stable")`` of its gathered —
    nearly sorted — keys: records with equal keys share their high bits,
    so they already stand in index order and a stable pass keeps them
    there; the composition is *the* stable permutation.  A row whose
    gathered keys do not descend needs nothing: it is sorted, and equal
    keys are in index order.

    Everything else goes to ``np.argsort(kind="stable")`` directly: any
    other dtype, any NaN (numpy orders NaN last and treats all NaNs as
    equal; the image would order them by sign and payload), and inputs
    below :data:`_PACKED_MIN_KEYS` — which is why many *short* arrays
    (an exchange's destinations) go through
    :func:`stable_argsort_segments` together, not through here one by
    one.

    Worst case: keys that differ only in the low mantissa bits collide
    in every row and pay the packed sort plus the repair, about 15 %
    over the plain stable argsort.  No workload of the paper or of the
    benchmark ledger has that shape: scores, cluster ids and uniform
    draws differ in their high bits or are exactly equal.
    """
    keys = np.asarray(keys)
    if keys.size < _PACKED_MIN_KEYS or keys.dtype != np.float64:
        return _timsort(keys)
    n = keys.shape[-1]
    packed = np.add(keys, 0.0, order="C")              # fresh, -0.0 -> +0.0
    if np.isnan(packed.min()):
        return _timsort(keys)
    index_mask = _index_mask(n)
    packed = packed.view(np.uint64)
    _pack(packed, np.empty(packed.shape, dtype=np.int64),
          np.arange(n, dtype=np.uint64), index_mask)
    packed.sort(axis=-1)
    packed &= index_mask
    perm = packed.view(np.int64)
    out = _gather(keys, perm)
    _repair_rows(perm.reshape(-1, n), out.reshape(-1, n))
    return perm, out


def stable_argsort_segments(keys: np.ndarray, bounds: np.ndarray,
                            index: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of every segment of a 1-D array, in one call.

    Segment ``s`` is ``keys[bounds[s]:bounds[s + 1]]``; ``bounds`` is
    non-decreasing from 0 to ``keys.size`` (empty segments allowed).
    ``perm`` is, by definition, the concatenation over the segments of
    ``np.argsort(keys[lo:hi], kind="stable") + lo`` — indices into
    ``keys`` — and ``sorted_keys`` is ``keys[perm]``.  With ``index``
    (an int64 array as long as ``keys``: where each key came from) the
    first result is ``index[perm]`` instead, composed block by block
    with no second key-sized array.

    Consecutive segments are sorted *together*, as one packed block (see
    :func:`stable_argsort`), whenever the keys do not descend across
    their boundaries: the largest key of one is not above the smallest
    of the next, which is how every splitter partition delivers them,
    equal pivot keys included.  A stable sort of such a concatenation
    *is* the per-segment stable sorts: no key of a later segment sorts
    below one of an earlier segment, and keys that tie across a boundary
    fall in position order, which is segment-major.  The packed words
    keep that property — position breaks every tie of the kept bits, so
    keys that collide in the dropped bits can only come out wrong
    *within* their segment, where the gathered keys then descend; only
    the segments holding a descent are repaired (one
    ``np.argsort(kind="stable")`` of the nearly sorted segment, as in
    :func:`stable_argsort`), never the block.

    A boundary the keys do descend across ends the block, a block holds
    at most :data:`_SEGMENT_BLOCK_KEYS` keys unless one segment alone is
    longer, and a block below :data:`_PACKED_MIN_KEYS` — like any input
    that is not NaN-free float64 — is sorted segment by segment with
    ``np.argsort(kind="stable")``.  The scratch (packed words, their
    index field, the descent flags) is allocated once, at the longest
    block, and every pass over a block runs in place or into ``out=``:
    a rank thread that runs this inside a collective churns no
    transient per block.
    """
    keys = np.asarray(keys)
    bounds = np.asarray(bounds, dtype=np.int64)
    total = keys.size
    if (keys.ndim != 1 or bounds.ndim != 1 or bounds.size == 0
            or bounds[0] != 0 or bounds[-1] != total
            or np.any(bounds[1:] < bounds[:-1])):
        raise ValueError("bounds must rise from 0 to len(keys) over a "
                         "one-dimensional key array")
    if index is not None and (index.shape != keys.shape
                              or index.dtype != np.int64):
        raise ValueError("index must be an int64 array shaped like keys")
    perm = np.empty(total, dtype=np.int64)
    out = np.empty(total, dtype=keys.dtype)
    starts = bounds[:-1][bounds[1:] > bounds[:-1]]     # non-empty segments
    edges = np.append(starts, total).tolist()
    blocks, longest = [], 0                            # [i, j) of segments
    if total >= _PACKED_MIN_KEYS and keys.dtype == np.float64:
        low = np.minimum.reduceat(keys, starts)        # NaN propagates
        if not np.isnan(low).any():
            blocks = _blocks(keys, starts, total, low)
            longest = max(edges[j] - edges[i] for i, j in blocks)
    if longest < _PACKED_MIN_KEYS:                     # nothing to pack
        for lo, hi in zip(edges[:-1], edges[1:]):
            _timsort_segment(keys, index, lo, hi, perm, out)
        return perm, out
    packed = np.empty(longest, dtype=np.uint64)
    iota = np.arange(longest, dtype=np.uint64)
    descends = np.empty(longest, dtype=bool)
    for i, j in blocks:
        lo, hi = edges[i], edges[j]
        n = hi - lo
        if n < _PACKED_MIN_KEYS:
            for s in range(i, j):
                _timsort_segment(keys, index, edges[s], edges[s + 1], perm,
                                 out)
            continue
        word, index_mask = packed[:n], _index_mask(n)
        np.add(keys[lo:hi], 0.0, out=word.view(np.float64))
        _pack(word, perm[lo:hi], iota[:n], index_mask)
        word.sort()
        word &= index_mask
        sorted_block = out[lo:hi]
        order = word.view(np.int64)                    # within the block
        np.take(keys[lo:hi], order, out=sorted_block,
                mode="clip")                           # unbuffered; in range
        if index is None:
            np.add(order, lo, out=perm[lo:hi])
        else:
            np.take(index[lo:hi], order, out=perm[lo:hi], mode="clip")
        falls = descends[:n - 1]
        np.less(sorted_block[1:], sorted_block[:-1], out=falls)
        if falls.any():
            _repair_segments(perm, out, edges, lo + np.flatnonzero(falls))
    return perm, out


def _index_mask(n: int) -> np.uint64:
    """The low bits of a packed word that hold an index below ``n``."""
    return np.uint64((1 << (n - 1).bit_length()) - 1)


def _pack(word: np.ndarray, scratch: np.ndarray, iota: np.ndarray,
          index_mask: np.uint64) -> None:
    """Turn, in place, the uint64 view of NaN-free ``keys + 0.0`` into
    packed (key image, index) words; ``scratch`` is an int64 array of
    ``word``'s shape whose contents are lost, ``iota`` the index of each
    element along the last axis."""
    np.right_shift(word.view(np.int64), 63, out=scratch)   # -1 if key < 0
    scratch |= _SIGN
    word ^= scratch.view(np.uint64)
    word &= ~index_mask
    word |= iota


def _blocks(keys: np.ndarray, starts: np.ndarray, total: int,
            low: np.ndarray) -> list[tuple[int, int]]:
    """Greedy ``[i, j)`` runs of the non-empty segments starting at
    ``starts`` (``low``: each one's smallest key): a run ends before a
    segment the keys descend into and before the segment that would
    take it past :data:`_SEGMENT_BLOCK_KEYS` keys, but holds at least
    one segment.  The largest keys are only looked up when some run
    could hold two segments at all."""
    count = starts.size
    ids = np.arange(count)
    edges = np.append(starts, total)
    reach = np.searchsorted(edges, starts + _SEGMENT_BLOCK_KEYS, "right") - 1
    jump = np.maximum(reach, ids + 1)
    if (jump > ids + 1).any():
        stops = np.append(np.flatnonzero(
            np.maximum.reduceat(keys, starts)[:-1] > low[1:]) + 1, count)
        jump = np.minimum(jump, stops[np.searchsorted(stops, ids, "right")])
    jump = jump.tolist()
    blocks, i = [], 0
    while i < count:
        blocks.append((i, jump[i]))
        i = jump[i]
    return blocks


def _timsort_segment(keys: np.ndarray, index: np.ndarray | None, lo: int,
                     hi: int, perm: np.ndarray, out: np.ndarray) -> None:
    """The definition, for one segment, into ``perm`` and ``out``."""
    order = np.argsort(keys[lo:hi], kind="stable")
    out[lo:hi] = keys[lo:hi][order]
    if index is None:
        np.add(order, lo, out=perm[lo:hi])
    else:
        perm[lo:hi] = index[lo:hi][order]


def _timsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The definition: numpy's stable argsort, and the keys it orders."""
    perm = np.argsort(keys, axis=-1, kind="stable")
    return perm, _gather(keys, perm)


def _gather(keys: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(keys, perm, -1)``; a 1-D array skips its
    3 us of index set-up, which 2 048 merges of 64 records would pay."""
    if keys.ndim == 1:
        return keys[perm]
    return np.take_along_axis(keys, perm, axis=-1)


def _resort(perm: np.ndarray, out: np.ndarray) -> None:
    """Finish, in place, one row or segment the packed sort left with a
    descent: its equal keys already stand in index order, so a stable
    pass over the nearly sorted keys completes *the* stable permutation."""
    fix = np.argsort(out, kind="stable")
    perm[:] = perm[fix]
    out[:] = out[fix]


def _repair_rows(perm: np.ndarray, out: np.ndarray) -> int:
    """Finish, in place, the rows whose keys collided in the kept bits.

    ``perm`` and ``out`` are ``(g, n)`` views of the packed sort's
    result; returns how many rows had descending keys.
    """
    rows = np.flatnonzero((out[:, 1:] < out[:, :-1]).any(axis=1))
    for r in rows:
        _resort(perm[r], out[r])
    return rows.size


def _repair_segments(perm: np.ndarray, out: np.ndarray, edges: list[int],
                     falls: np.ndarray) -> int:
    """Finish, in place, the segments holding a descent.

    ``falls`` lists positions whose successor in ``out`` is smaller;
    within a packed block both lie in one segment.  Returns how many
    segments were repaired.
    """
    segments = np.unique(np.searchsorted(edges, falls, "right") - 1).tolist()
    for s in segments:
        lo, hi = edges[s], edges[s + 1]
        _resort(perm[lo:hi], out[lo:hi])
    return len(segments)


def sequential_sort(keys: np.ndarray, *, stable: bool = False) -> np.ndarray:
    """Return a sorted copy of ``keys`` (``std::sort``/``std::stable_sort``)."""
    return (stable_argsort(keys)[1] if stable
            else np.sort(keys, kind="quicksort"))


def sequential_argsort(keys: np.ndarray, *, stable: bool = False) -> np.ndarray:
    """Indices that sort ``keys``.

    Note: an unstable argsort still yields *a* valid order for equal
    keys; only ``stable=True`` guarantees input order on ties.
    """
    return (stable_argsort(keys)[0] if stable
            else np.argsort(keys, kind="quicksort"))


def chunk_sort(keys: np.ndarray, c: int, *, stable: bool = False) -> list[np.ndarray]:
    """Split ``keys`` into ``c`` near-equal chunks and sort each.

    Models the per-core phase of the shared-memory local sort: each of
    the ``c`` cores sorts its contiguous chunk independently; the
    skew-aware parallel merge then combines them.  Returns the list of
    sorted chunks (chunk order preserves input order for stability).
    """
    keys = np.asarray(keys)
    c = max(1, int(c))
    bounds = np.linspace(0, keys.size, c + 1).astype(np.int64)
    return [
        sequential_sort(keys[bounds[i]:bounds[i + 1]], stable=stable)
        for i in range(c)
    ]
