"""Merge kernels: vectorised merges, LoserTree, stability, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    LoserTree,
    kway_merge,
    kway_merge_perm,
    merge_two,
    merge_two_perm,
)

sorted_floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=80
).map(sorted)


class TestMergeTwo:
    def test_basic(self):
        out = merge_two(np.array([1.0, 3.0, 5.0]), np.array([2.0, 4.0]))
        assert list(out) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_empty_sides(self):
        a = np.array([1.0, 2.0])
        assert list(merge_two(a, np.array([]))) == [1.0, 2.0]
        assert list(merge_two(np.array([]), a)) == [1.0, 2.0]
        assert merge_two(np.array([]), np.array([])).size == 0

    def test_ties_prefer_first(self):
        """Stability: on equal keys, elements of `a` come first."""
        merged, perm = merge_two_perm(np.array([5.0, 5.0]), np.array([5.0]))
        assert list(perm) == [0, 1, 2]  # a0, a1, then b0

    def test_perm_reconstructs(self):
        a = np.array([1.0, 4.0, 9.0])
        b = np.array([2.0, 4.0, 4.0, 10.0])
        merged, perm = merge_two_perm(a, b)
        assert np.array_equal(np.concatenate([a, b])[perm], merged)
        assert np.all(np.diff(merged) >= 0)

    @settings(max_examples=50, deadline=None)
    @given(sorted_floats, sorted_floats)
    def test_property_matches_np(self, a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        got = merge_two(a, b)
        want = np.sort(np.concatenate([a, b]), kind="stable")
        assert np.array_equal(got, want)

    def test_integer_keys(self):
        out = merge_two(np.array([1, 2, 2]), np.array([2, 3]))
        assert list(out) == [1, 2, 2, 2, 3]


class TestKwayMerge:
    def test_empty_input(self):
        merged, perm = kway_merge_perm([])
        assert merged.size == 0 and perm.size == 0

    def test_single_chunk(self):
        out = kway_merge([np.array([1.0, 2.0])])
        assert list(out) == [1.0, 2.0]

    def test_many_chunks(self, rng):
        chunks = [np.sort(rng.random(rng.integers(0, 30))) for _ in range(9)]
        got = kway_merge(chunks)
        want = np.sort(np.concatenate(chunks))
        assert np.array_equal(got, want)

    def test_stability_across_chunks(self):
        """Equal keys keep chunk order — the stable-exchange invariant."""
        chunks = [np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0])]
        _, perm = kway_merge_perm(chunks)
        assert list(perm) == [0, 1, 2, 3, 4]

    def test_perm_indexes_concatenation(self, rng):
        chunks = [np.sort(rng.random(10)) for _ in range(4)]
        merged, perm = kway_merge_perm(chunks)
        assert np.array_equal(np.concatenate(chunks)[perm], merged)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 31, 40])
    def test_perm_equals_pairwise_merges(self, rng, k):
        """The argsort-of-concatenation permutation is the one k - 1
        pairwise stable merges produce, duplicates and empties included."""
        chunks = [np.sort(rng.integers(0, 6, rng.integers(0, 12)))
                  for _ in range(k)]
        merged, perm = kway_merge_perm(chunks)
        want, want_perm = chunks[0], np.arange(len(chunks[0]))
        for c in chunks[1:]:
            idx = np.concatenate([want_perm,
                                  len(want_perm) + np.arange(len(c))])
            want, two = merge_two_perm(want, c)
            want_perm = idx[two]
        assert merged.dtype == want.dtype
        assert np.array_equal(merged, want)
        assert np.array_equal(perm, want_perm)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(sorted_floats, max_size=6))
    def test_property_matches_np(self, chunks):
        arrs = [np.asarray(c, dtype=np.float64) for c in chunks]
        got = kway_merge(arrs)
        want = (np.sort(np.concatenate(arrs)) if arrs
                else np.zeros(0))
        assert np.array_equal(got, want)


class TestLoserTree:
    def test_empty(self):
        lt = LoserTree([])
        assert lt.empty()
        with pytest.raises(IndexError):
            lt.pop()

    def test_single_chunk(self):
        lt = LoserTree([np.array([3.0, 7.0])])
        assert [lt.pop()[0] for _ in range(2)] == [3.0, 7.0]
        assert lt.empty()

    def test_pop_reports_chunk(self):
        lt = LoserTree([np.array([2.0]), np.array([1.0])])
        assert lt.pop() == (1.0, 1)
        assert lt.pop() == (2.0, 0)

    def test_ties_prefer_lower_chunk(self):
        lt = LoserTree([np.array([5.0]), np.array([5.0]), np.array([5.0])])
        assert [lt.pop()[1] for _ in range(3)] == [0, 1, 2]

    def test_drain_matches_kway(self, rng):
        chunks = [np.sort(rng.random(rng.integers(0, 25))) for _ in range(7)]
        assert np.array_equal(LoserTree(chunks).drain(),
                              kway_merge(chunks))

    def test_empty_chunks_mixed(self):
        chunks = [np.array([]), np.array([1.0]), np.array([]), np.array([0.5])]
        assert list(LoserTree(chunks).drain()) == [0.5, 1.0]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(sorted_floats, min_size=1, max_size=5))
    def test_property_oracle(self, chunks):
        arrs = [np.asarray(c, dtype=np.float64) for c in chunks]
        got = LoserTree(arrs).drain()
        want = np.sort(np.concatenate(arrs)) if sum(map(len, arrs)) else np.zeros(0)
        assert np.array_equal(got, want)
