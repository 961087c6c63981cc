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
"""

from __future__ import annotations

import numpy as np

#: Below this many keys ``np.argsort(kind="stable")`` is the faster
#: route.  The packed path is ten array passes, 15-20 us of fixed cost
#: on the 2-core AVX-512 host this was measured on (numpy 2.4).  Random
#: keys cross over at 1 Ki (timsort 22 us, packed 21 us; at 2 Ki 94 us
#: against 29 us), but what the merge sites hand over is a few sorted
#: runs, which timsort only has to merge: 2 Ki keys in 8 runs take it
#: 17 us (packed 34 us) and in 32 runs 47 us (packed 30 us), 4 Ki keys
#: in 8 runs 69 us (packed 47 us).  The floor is on the whole input, so
#: a tall stack of short rows still packs (4096 x 64: 7.7 -> 4.0 ms)
#: while a loop over 2 048 separate 64-record merges (flat PSRS) pays
#: 0.4 us per call over the plain argsort, not 15.
_PACKED_MIN_KEYS = 2048

_SIGN = np.uint64(1 << 63)


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
    ``ndarray.sort`` (6 ns per key on a 100k ptf shard here, against
    82 ns per key for the timsort argsort; 32 x 100k ptf rows 359 ->
    85 ms with the gather, a 32-run merge of 100k keys 2.9 -> 1.7 ms,
    the 171 x 1536 node-merge stack 10.9 -> 4.9 ms).  The permutation is the low bits; the keys
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
    below :data:`_PACKED_MIN_KEYS`.

    Worst case: keys that differ only in the low 16 mantissa bits at
    ``n`` = 100 000 collide in every row, and the packed sort plus the
    repair cost 473 ms where the plain stable argsort costs 411 ms
    (32 x 100k).  No workload of the paper or of the benchmark ledger
    has that shape — scores, cluster ids and uniform draws differ in
    their high bits or are exactly equal: about one 100k-key row in 80
    of ptf or uniform keys holds two draws that share their top 47
    bits, and repairing such an almost sorted row costs 0.4 ms.
    """
    keys = np.asarray(keys)
    if keys.size < _PACKED_MIN_KEYS or keys.dtype != np.float64:
        return _timsort(keys)
    n = keys.shape[-1]
    packed = np.add(keys, 0.0, order="C")              # fresh, -0.0 -> +0.0
    if np.isnan(packed.min()):
        return _timsort(keys)
    index_mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    flip = (packed.view(np.int64) >> 63).view(np.uint64)   # all ones if < 0
    flip |= _SIGN
    packed = packed.view(np.uint64)
    packed ^= flip
    packed &= ~index_mask
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort(axis=-1)
    packed &= index_mask
    perm = packed.view(np.int64)
    out = _gather(keys, perm)
    _repair_rows(perm.reshape(-1, n), out.reshape(-1, n))
    return perm, out


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


def _repair_rows(perm: np.ndarray, out: np.ndarray) -> int:
    """Finish, in place, the rows whose keys collided in the kept bits.

    ``perm`` and ``out`` are ``(g, n)`` views of the packed sort's
    result; returns how many rows had descending keys.
    """
    rows = np.flatnonzero((out[:, 1:] < out[:, :-1]).any(axis=1))
    for r in rows:
        fix = np.argsort(out[r], kind="stable")
        perm[r] = perm[r][fix]
        out[r] = out[r][fix]
    return rows.size


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
