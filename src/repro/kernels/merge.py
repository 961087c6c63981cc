"""Stable two-way and k-way merge kernels.

Two implementation strategies are provided:

* vectorised merges — :func:`numpy.searchsorted` for two chunks, one
  stable argsort of the concatenation for ``k`` (the fast path used by
  the simulators; O(n log n) work but constant python overhead), and
* a :class:`LoserTree` reference implementation of tournament k-way
  merging (the structure whose ``n log2(k)`` comparison count the cost
  model charges), used for small inputs and as a test oracle.

All merges are *stable across chunk order*: ties are resolved in favour
of the earlier chunk, which is what makes SDS-Sort's stable mode work —
the all-to-all delivers chunks in source-rank order and the final merge
must preserve that order for equal keys.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .sorts import stable_argsort


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stably merge two sorted arrays (ties: elements of ``a`` first)."""
    merged, _ = merge_two_perm(a, b)
    return merged


def merge_two_perm(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stably merge two sorted arrays, also returning the permutation.

    Returns ``(merged, perm)`` where ``perm`` indexes into
    ``concatenate([a, b])`` such that ``merged = concatenate([a, b])[perm]``.
    The permutation lets callers reorder payload columns without
    re-comparing keys.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    na, nb = len(a), len(b)
    if na == 0:
        return b.copy(), np.arange(na, na + nb, dtype=np.int64)
    if nb == 0:
        return a.copy(), np.arange(na, dtype=np.int64)
    # position of a[i] in the merged output: i existing a-elements before
    # it plus the b-elements strictly smaller than it (ties -> a first).
    pa = np.searchsorted(b, a, side="left") + np.arange(na, dtype=np.int64)
    pb = np.searchsorted(a, b, side="right") + np.arange(nb, dtype=np.int64)
    perm = np.empty(na + nb, dtype=np.int64)
    perm[pa] = np.arange(na, dtype=np.int64)
    perm[pb] = np.arange(na, na + nb, dtype=np.int64)
    merged = np.concatenate([a, b])[perm]
    return merged, perm


def kway_merge(chunks: Sequence[np.ndarray]) -> np.ndarray:
    """Stably merge ``k`` sorted chunks (ties: earlier chunk first)."""
    merged, _ = kway_merge_perm(chunks)
    return merged


def kway_merge_perm(chunks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stably k-way merge, returning the permutation into the concatenation.

    Two chunks go through :func:`merge_two_perm`; any other count is one
    stable argsort of the concatenation.  The stable permutation of
    sorted chunks is unique (equal keys in ascending input position), so
    this is the permutation a tree of ``k - 1`` pairwise merges yields,
    without the ``k - 1`` python-level merge calls.  The cost model's
    ``n log2(k)`` charge for a k-way merge is modelled by the callers,
    not enacted here.  The key dtype of the inputs is preserved,
    including when every chunk is empty (int-keyed workloads must not
    come back as float64).
    """
    chunks = [np.asarray(c) for c in chunks]
    if not chunks:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64)
    if len(chunks) == 2:
        return merge_two_perm(*chunks)
    perm, merged = stable_argsort(np.concatenate(chunks))
    return merged, perm


class LoserTree:
    """Tournament (loser) tree k-way merger — the reference implementation.

    Pops the globally smallest head among ``k`` sorted chunks with one
    leaf-to-root path of ``ceil(log2 k)`` comparisons per element,
    which is exactly the comparison count the cost model charges for
    k-way merging.  Ties resolve in favour of the lower chunk index,
    preserving stability.  Index ``-1`` denotes a ghost competitor that
    loses to every real chunk; exhausted chunks lose to live ones.
    """

    def __init__(self, chunks: Sequence[np.ndarray]):
        self._chunks = [np.asarray(c) for c in chunks]
        self._pos = [0] * len(self._chunks)
        self._k = len(self._chunks)
        # internal nodes 1..k-1 hold match losers; node 0 is unused.
        self._tree = [-1] * max(1, self._k)
        self._winner = -1
        for leaf in range(self._k):
            self._init_insert(leaf)

    def _key(self, i: int):
        """Current head of chunk ``i``; ``None`` when exhausted."""
        if i < 0 or self._pos[i] >= len(self._chunks[i]):
            return None
        return self._chunks[i][self._pos[i]]

    def _wins(self, i: int, j: int) -> bool:
        """Whether competitor ``i`` beats ``j`` (ghost -1 always loses)."""
        if i == -1:
            return False
        if j == -1:
            return True
        ki, kj = self._key(i), self._key(j)
        if ki is None and kj is None:
            return i < j
        if ki is None:
            return False
        if kj is None:
            return True
        if ki < kj:
            return True
        if kj < ki:
            return False
        return i < j  # stability: earlier chunk wins ties

    def _init_insert(self, s: int) -> None:
        """Initial insertion: park at the first empty node, else play up.

        Every internal node sees exactly one match during construction;
        the overall winner is the single leaf that reaches the root.
        """
        t = (s + self._k) >> 1
        while t > 0:
            if self._tree[t] == -1:
                self._tree[t] = s  # first arrival waits for its sibling
                return
            if self._wins(self._tree[t], s):
                s, self._tree[t] = self._tree[t], s
            t >>= 1
        self._winner = s

    def _adjust(self, s: int) -> None:
        """Replay matches from leaf ``s`` to the root (all nodes full)."""
        t = (s + self._k) >> 1
        while t > 0:
            if self._wins(self._tree[t], s):
                s, self._tree[t] = self._tree[t], s
            t >>= 1
        self._winner = s

    def empty(self) -> bool:
        """Whether every chunk is exhausted."""
        return self._key(self._winner) is None

    def pop(self):
        """Remove and return ``(key, chunk_index)`` of the smallest head."""
        if self.empty():
            raise IndexError("pop from empty LoserTree")
        i = self._winner
        key = self._chunks[i][self._pos[i]]
        self._pos[i] += 1
        self._adjust(i)
        return key, i

    def drain(self) -> np.ndarray:
        """Pop everything into one sorted array (key dtype preserved)."""
        out = []
        while not self.empty():
            out.append(self.pop()[0])
        if not out:
            dtype = (np.result_type(*self._chunks) if self._chunks
                     else np.float64)
            return np.zeros(0, dtype=dtype)
        return np.asarray(out)
