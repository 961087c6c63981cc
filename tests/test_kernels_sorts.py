"""Sequential sort wrappers (the std::sort / std::stable_sort stand-ins)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import local_delta
from repro.kernels import (
    batched_argsort_rows,
    batched_local_delta,
    chunk_sort,
    sequential_argsort,
    sequential_sort,
    sorts,
    stable_argsort,
)


class TestSequentialSort:
    def test_sorts(self, rng):
        a = rng.random(500)
        assert np.array_equal(sequential_sort(a), np.sort(a))

    def test_input_untouched(self, rng):
        a = rng.random(100)
        orig = a.copy()
        sequential_sort(a)
        assert np.array_equal(a, orig)

    def test_stable_argsort_keeps_ties(self):
        a = np.array([1.0, 0.0, 1.0, 0.0])
        perm = sequential_argsort(a, stable=True)
        assert list(perm) == [1, 3, 0, 2]

    def test_argsort_valid_permutation(self, rng):
        a = rng.integers(0, 3, 300)
        perm = sequential_argsort(a)
        assert np.array_equal(np.sort(perm), np.arange(300))
        assert np.array_equal(a[perm], np.sort(a))


class TestChunkSort:
    def test_chunks_cover_input(self, rng):
        a = rng.random(103)
        chunks = chunk_sort(a, 4)
        assert sum(len(c) for c in chunks) == 103
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.sort(a))

    def test_each_chunk_sorted(self, rng):
        for c in chunk_sort(rng.random(64), 8):
            assert np.all(np.diff(c) >= 0)

    def test_single_core(self, rng):
        a = rng.random(20)
        [only] = chunk_sort(a, 1)
        assert np.array_equal(only, np.sort(a))

    def test_more_cores_than_records(self):
        chunks = chunk_sort(np.array([3.0, 1.0]), 8)
        assert len(chunks) == 8
        assert sum(len(c) for c in chunks) == 2

    def test_empty(self):
        chunks = chunk_sort(np.array([]), 4)
        assert len(chunks) == 4
        assert all(len(c) == 0 for c in chunks)


# ---------------------------------------------------------------------------
# stable_argsort: the packed-key route against its definition
# ---------------------------------------------------------------------------

def _oracle(keys):
    perm = np.argsort(keys, axis=-1, kind="stable")
    return perm, np.take_along_axis(keys, perm, axis=-1)


def _bits(a):
    """Bit patterns: tells -0.0 from +0.0 and one NaN from another."""
    return a.view(f"u{a.dtype.itemsize}") if a.dtype.kind == "f" else a


def _assert_is_stable_argsort(keys, *, repairs=None):
    """``stable_argsort(keys)`` equals the numpy definition, bit for bit;
    ``repairs`` pins how many rows the repair branch finished."""
    seen = []
    real = sorts._repair_rows

    def spy(perm, out):
        seen.append(real(perm, out))
        return seen[-1]

    before = keys.copy()
    sorts._repair_rows = spy
    try:
        perm, out = stable_argsort(keys)
    finally:
        sorts._repair_rows = real
    want_perm, want_out = _oracle(keys)
    assert np.array_equal(_bits(keys), _bits(before))      # input untouched
    assert perm.shape == keys.shape and perm.dtype == want_perm.dtype
    assert np.array_equal(perm, want_perm)
    assert out.dtype == keys.dtype
    assert np.array_equal(_bits(out), _bits(want_out))
    assert np.array_equal(_bits(out),
                          _bits(np.take_along_axis(keys, perm, axis=-1)))
    if repairs is not None:
        assert sum(seen) == repairs
    return sum(seen)


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.0, -1.0,
                     np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])

#: 1.0 and its next seven neighbours: equal in every bit a packed word
#: keeps, different below.
NEAR_ONE = (np.float64(1.0).view(np.uint64)
            + np.arange(8, dtype=np.uint64)).view(np.float64)

#: Sizes around the packed-path floor and around a power of two (the
#: index field grows by one bit at 2**k + 1).
SIZES = (0, 1, 2, 2047, 2048, 2049, 2 ** 17 + 1)


def _key_family(name, rng, n):
    if name == "uniform":
        return rng.random(n)
    if name == "signed":
        return rng.standard_normal(n) * 1e3
    if name == "all-equal":
        return np.full(n, 0.25)
    if name == "ptf":                    # point mass + continuous tail
        a = rng.beta(2.0, 5.0, n)
        a[rng.random(n) < 0.28] = 0.0
        return a
    if name == "zipf":                   # few values, heavy head
        return np.minimum(rng.zipf(1.3, n), 50).astype(np.float64)
    if name == "specials":               # +-0.0, +-inf, subnormals mixed
        return SPECIALS[rng.integers(0, SPECIALS.size, n)]
    if name == "runs":                   # what a k-way merge is handed
        a = rng.random(n)
        bounds = np.linspace(0, n, 9).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            a[lo:hi].sort()
        return a
    if name == "sorted":
        return np.sort(rng.random(n))
    if name == "reversed":
        return np.sort(rng.random(n))[::-1].copy()
    raise AssertionError(name)


FAMILIES = ("uniform", "signed", "all-equal", "ptf", "zipf", "specials",
            "runs", "sorted", "reversed")


def _expected_repairs(family):
    # subnormals and the neighbours of 1.0 differ only in dropped bits.
    # The seeded draws of the other families hold no such pair (a 100k
    # uniform row has one about once in 80 draws), so a repair there
    # means the packed order itself came out wrong.
    return None if family == "specials" else 0


class TestStableArgsort:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_dimensional(self, family, n):
        rng = np.random.default_rng(n + len(family))
        _assert_is_stable_argsort(_key_family(family, rng, n),
                                  repairs=_expected_repairs(family))

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (1, 4096), (7, 300),
                                       (4096, 1), (2048, 2), (64, 64),
                                       (3, 2 ** 13 + 1)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_stack(self, family, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        keys = _key_family(family, rng, shape[0] * shape[1]).reshape(shape)
        _assert_is_stable_argsort(keys, repairs=_expected_repairs(family))

    def test_rows_match_one_dimensional_calls(self, rng):
        # thread (one row at a time) and flat (the stack) share one result
        rows = _key_family("ptf", rng, 5 * 3000).reshape(5, 3000)
        perm, out = stable_argsort(rows)
        for r in range(5):
            p1, o1 = stable_argsort(rows[r])
            assert np.array_equal(perm[r], p1)
            assert np.array_equal(out[r], o1)

    @pytest.mark.parametrize("n", [2048, 2049, 2 ** 17 + 1])
    def test_keys_differing_below_the_dropped_bits_are_repaired(self, n):
        # only the low 10 mantissa bits vary: every key shares the bits
        # the packed word keeps, so the packed sort returns index order
        rng = np.random.default_rng(n)
        low = rng.integers(0, 1 << 10, n).astype(np.uint64)
        keys = (np.float64(1.0).view(np.uint64) + low).view(np.float64)
        assert _assert_is_stable_argsort(keys) == 1
        assert _assert_is_stable_argsort(-keys) == 1

    def test_only_colliding_rows_are_repaired(self, rng):
        n = 4096
        rows = rng.random((6, n))
        low = rng.integers(0, 1 << 8, n).astype(np.uint64)
        for r in (1, 4):
            rows[r] = (np.float64(3.0).view(np.uint64) + low).view(np.float64)
        _assert_is_stable_argsort(rows, repairs=2)

    def test_collision_among_duplicates_keeps_ties_in_input_order(self):
        # two values one ulp apart, each repeated: the repair must order
        # the values and leave every tie in ascending input position
        n = 5000
        rng = np.random.default_rng(5)
        keys = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        _assert_is_stable_argsort(keys, repairs=1)

    @pytest.mark.parametrize("n", [5, 2048, 70000])
    def test_nan_falls_back(self, n):
        rng = np.random.default_rng(n)
        keys = _key_family("signed", rng, n)
        keys[rng.integers(0, n, max(1, n // 7))] = np.nan
        keys[0] = -np.nan                       # a NaN with the sign bit set
        keys[1:3] = [-0.0, 0.0]
        _assert_is_stable_argsort(keys, repairs=0)
        if n >= 2048:
            _assert_is_stable_argsort(keys.reshape(2, -1), repairs=0)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64,
                                       np.float32, ">f8"])
    @pytest.mark.parametrize("n", [0, 7, 4099])
    def test_other_dtypes_fall_back(self, dtype, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 40, n).astype(dtype)
        _assert_is_stable_argsort(keys, repairs=0)
        _assert_is_stable_argsort(keys.reshape(1, n), repairs=0)

    def test_non_contiguous_and_read_only_input(self, rng):
        base = rng.integers(0, 100, (3000, 6)).astype(np.float64)
        _assert_is_stable_argsort(base.T)                 # F-ordered rows
        _assert_is_stable_argsort(base[:, 2])             # strided 1-D
        frozen = base[:, 0].copy()
        frozen.setflags(write=False)
        _assert_is_stable_argsort(frozen)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_equals_numpy_stable(self, data):
        # a lowered floor so hypothesis-sized arrays reach the packed
        # path; values drawn to collide in high bits, low bits, or both
        n = data.draw(st.integers(0, 300), label="n")
        g = data.draw(st.sampled_from([None, 1, 2, 5]), label="rows")
        pool = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, width=64),
                      st.sampled_from(SPECIALS.tolist()),
                      st.sampled_from(NEAR_ONE.tolist())),
            min_size=1, max_size=12), label="pool")
        size = n * (g or 1)
        idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                 min_size=size, max_size=size), label="idx")
        keys = np.array(pool, dtype=np.float64)[np.array(idx, dtype=int)]
        keys = keys if g is None else keys.reshape(g, n)
        floor = sorts._PACKED_MIN_KEYS
        sorts._PACKED_MIN_KEYS = 1
        try:
            _assert_is_stable_argsort(keys)
        finally:
            sorts._PACKED_MIN_KEYS = floor

    def test_every_wrapper_is_the_kernel(self, rng):
        keys = _key_family("ptf", rng, 6000)
        assert np.array_equal(sequential_argsort(keys, stable=True),
                              _oracle(keys)[0])
        assert np.array_equal(
            batched_argsort_rows(keys.reshape(3, 2000), stable=True),
            _oracle(keys.reshape(3, 2000))[0])
        assert np.array_equal(
            _bits(sequential_sort(keys, stable=True)),
            _bits(np.sort(keys, kind="stable")))


class TestBatchedLocalDelta:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 40), st.integers(1, 5),
           st.integers(0, 2 ** 31))
    def test_equals_per_row_local_delta(self, g, n, values, seed):
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.integers(0, values, (g, n)).astype(np.float64),
                       axis=1)
        got = batched_local_delta(rows)
        assert got.dtype == np.float64 and got.shape == (g,)
        assert got.tolist() == [local_delta(row) for row in rows]

    def test_rows_of_one_run_and_of_all_distinct(self):
        rows = np.array([[2.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0],
                         [1.0, 1.0, 1.0, 2.0, 2.0]])
        assert batched_local_delta(rows).tolist() == [1.0, 0.2, 0.6]


# ---------------------------------------------------------------------------
# stable_argsort_segments: many segments, one packed sort per block
# ---------------------------------------------------------------------------

def _segments_oracle(keys, bounds):
    """The definition: per-segment ``np.argsort(kind="stable") + lo``."""
    perm = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.argsort(keys[lo:hi], kind="stable") + lo
           for lo, hi in zip(bounds[:-1], bounds[1:])])
    return perm, keys[perm]


def _assert_is_segment_argsort(keys, bounds, *, repairs=None, blocks=None):
    """``stable_argsort_segments`` equals its definition, bit for bit,
    with and without ``index``; ``repairs`` pins how many segments the
    repair branch finished, ``blocks`` the segment ranges sorted at once."""
    bounds = np.asarray(bounds, dtype=np.int64)
    repaired, blocked = [], []
    real_repair, real_blocks = sorts._repair_segments, sorts._blocks

    def repair_spy(*args):
        repaired.append(real_repair(*args))
        return repaired[-1]

    def blocks_spy(*args):
        blocked.append(real_blocks(*args))
        return blocked[-1]

    before = keys.copy()
    sorts._repair_segments, sorts._blocks = repair_spy, blocks_spy
    try:
        perm, out = sorts.stable_argsort_segments(keys, bounds)
    finally:
        sorts._repair_segments, sorts._blocks = real_repair, real_blocks
    want_perm, want_out = _segments_oracle(keys, bounds)
    assert np.array_equal(_bits(keys), _bits(before))      # input untouched
    assert perm.dtype == np.int64 and perm.shape == (keys.size,)
    assert np.array_equal(perm, want_perm)
    assert out.dtype == keys.dtype
    assert np.array_equal(_bits(out), _bits(want_out))
    # the composed form: where each sorted key came from
    origin = np.arange(keys.size, dtype=np.int64)[::-1] * 3 + 1
    composed, out2 = sorts.stable_argsort_segments(keys, bounds, origin)
    assert np.array_equal(composed, origin[want_perm])
    assert np.array_equal(_bits(out2), _bits(want_out))
    if repairs is not None:
        assert sum(repaired) == repairs
    if blocks is not None:
        assert blocked == [blocks]
    return sum(repaired)


def _partitioned(rng, sizes, *, runs=4):
    """Segments as a splitter partition delivers them: no key of a
    segment below one of the segment before, each a few sorted runs."""
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    keys = np.sort(rng.random(int(bounds[-1])))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rng.shuffle(keys[lo:hi])
        cuts = np.linspace(lo, hi, runs + 1).astype(int)
        for a, b in zip(cuts[:-1], cuts[1:]):
            keys[a:b].sort()
    return keys, bounds


class TestStableArgsortSegments:
    def test_ragged_empty_and_single_key_segments(self, rng):
        sizes = [0, 700, 1, 0, 0, 1300, 1, 1, 2500, 0, 64, 0]
        keys, bounds = _partitioned(rng, sizes)
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 7)])      # non-empty ones

    @pytest.mark.parametrize("bounds", [[0], [0, 0], [0, 0, 0]])
    def test_no_keys(self, bounds):
        _assert_is_segment_argsort(np.zeros(0), bounds, repairs=0)
        _assert_is_segment_argsort(np.zeros(0, dtype=np.int32), bounds)

    def test_one_segment_is_stable_argsort(self, rng):
        keys = _key_family("ptf", rng, 5000)
        _assert_is_segment_argsort(keys, [0, 5000], blocks=[(0, 1)])
        perm, out = sorts.stable_argsort_segments(keys, [0, 5000])
        assert np.array_equal(perm, stable_argsort(keys)[0])
        assert np.array_equal(_bits(out), _bits(stable_argsort(keys)[1]))

    def test_bad_bounds_and_index_are_refused(self, rng):
        keys = rng.random(10)
        for bounds in ([], [1, 10], [0, 9], [0, 7, 5, 10], [[0, 10]]):
            with pytest.raises(ValueError, match="bounds must rise"):
                sorts.stable_argsort_segments(keys, bounds)
        with pytest.raises(ValueError, match="bounds must rise"):
            sorts.stable_argsort_segments(keys.reshape(2, 5), [0, 10])
        for index in (np.arange(9), np.arange(10, dtype=np.int32)):
            with pytest.raises(ValueError, match="index must be"):
                sorts.stable_argsort_segments(keys, [0, 10], index)

    def test_all_equal_keys_across_boundaries(self):
        # ties across a boundary fall in position order: segment-major
        keys = np.full(6000, 0.25)
        bounds = np.arange(0, 6001, 40)
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 150)])
        keys[3000:] = 0.5                 # a pivot value shared by many
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 150)])

    def test_signed_zeros_tie_and_come_back_as_they_went_in(self, rng):
        keys = np.where(rng.random(4096) < 0.5, 0.0, -0.0)
        keys[:1000] = -1.0
        _assert_is_segment_argsort(keys, [0, 500, 1000, 2500, 4096],
                                   repairs=0, blocks=[(0, 4)])

    @pytest.mark.parametrize("n", [40, 5000])
    def test_nan_falls_back(self, n):
        rng = np.random.default_rng(n)
        keys, bounds = _partitioned(rng, [n // 4] * 4)
        keys[rng.integers(0, n, 3)] = np.nan
        keys[0] = -np.nan
        _assert_is_segment_argsort(keys, bounds, repairs=0)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64,
                                       np.float32, ">f8"])
    def test_other_dtypes_fall_back(self, dtype, rng):
        keys = np.sort(rng.integers(0, 40, 4100)).astype(dtype)
        _assert_is_segment_argsort(keys, [0, 100, 100, 3000, 4100],
                                   repairs=0)

    def test_non_contiguous_and_read_only_input(self, rng):
        keys, bounds = _partitioned(rng, [1000, 2000, 500, 1500])
        wide = np.zeros((keys.size, 3))
        wide[:, 1] = keys
        _assert_is_segment_argsort(wide[:, 1], bounds, repairs=0)
        keys.setflags(write=False)
        bounds.setflags(write=False)
        _assert_is_segment_argsort(keys, bounds, repairs=0)

    def test_a_descending_boundary_ends_the_block(self, rng):
        # 60 segments of 100 keys; the keys descend into segment 25
        # (and rise out of it), then out of segment 40 as well
        keys, bounds = _partitioned(rng, [100] * 60)
        keys[2500:2600] -= 0.5
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 25), (25, 60)])
        keys[4000:4100] += 0.5
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 25), (25, 41), (41, 60)])
        # random cuts of unsorted keys: hardly any two segments join
        keys = rng.random(6000)
        cuts = np.sort(np.concatenate(([0, 6000], rng.integers(0, 6001, 40))))
        _assert_is_segment_argsort(keys, cuts, repairs=0)

    def test_a_segment_longer_than_the_block_is_its_own_block(self, rng):
        block = sorts._SEGMENT_BLOCK_KEYS
        sizes = [block // 2, block // 2, block + 1, 10, block // 2 + 1,
                 block // 2]
        keys, bounds = _partitioned(rng, sizes)
        _assert_is_segment_argsort(
            keys, bounds, repairs=0,
            blocks=[(0, 2), (2, 3), (3, 5), (5, 6)])

    def test_short_blocks_take_the_timsort_route(self, rng):
        # a packable block beside one below the packed floor
        keys, bounds = _partitioned(rng, [1500, 1500, 30, 40])
        keys[3000:] -= 0.9
        _assert_is_segment_argsort(keys, bounds, repairs=0,
                                   blocks=[(0, 2), (2, 4)])

    def test_keys_colliding_in_the_dropped_bits_across_a_boundary(self):
        # neighbours of 1.0 differ below the kept bits; rising across
        # every boundary, each segment internally sorted: position
        # order is key order, nothing to repair
        low = np.arange(4096, dtype=np.uint64)
        keys = (np.float64(1.0).view(np.uint64) + low).view(np.float64)
        _assert_is_segment_argsort(keys, np.arange(0, 4097, 64), repairs=0,
                                   blocks=[(0, 64)])

    def test_only_segments_holding_a_collision_are_repaired(self, rng):
        keys, bounds = _partitioned(rng, [64] * 64)
        keys += 1.0
        for s in (5, 40):                 # shuffled neighbours of one value
            lo = int(bounds[s])
            base = np.sort(keys[lo:lo + 64])[0].view(np.uint64)
            keys[lo:lo + 64] = (base + rng.permutation(64).astype(np.uint64)
                                ).view(np.float64)
        # the rewritten segments still sit between their neighbours
        assert np.all(keys[bounds[5]:bounds[6]] <= keys[bounds[6]:].min())
        _assert_is_segment_argsort(keys, bounds, repairs=2,
                                   blocks=[(0, 64)])

    def test_collision_among_duplicates_keeps_ties_in_input_order(self, rng):
        keys = np.where(rng.random(4096) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        _assert_is_segment_argsort(keys, [0, 4096], repairs=1)
        # two values an ulp apart in segments 0 and 1, one value in 2
        keys[1500:3000] = np.where(rng.random(1500) < 0.5, 3.0,
                                   np.nextafter(3.0, 4.0))
        keys[3000:] = 5.0
        _assert_is_segment_argsort(keys, [0, 1500, 3000, 4096], repairs=2,
                                   blocks=[(0, 3)])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_property_equals_per_segment_numpy_stable(self, data):
        # floor and block lowered so hypothesis-sized inputs reach the
        # packed path and split into several blocks; values drawn to
        # collide in high bits, low bits, or both
        n = data.draw(st.integers(0, 200), label="n")
        pool = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, width=64),
                      st.sampled_from(SPECIALS.tolist()),
                      st.sampled_from(NEAR_ONE.tolist())),
            min_size=1, max_size=10), label="pool")
        idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                 min_size=n, max_size=n), label="idx")
        keys = np.array(pool, dtype=np.float64)[np.array(idx, dtype=int)]
        if data.draw(st.booleans(), label="partitioned"):
            keys = np.sort(keys)          # boundaries join; blocks fuse
        cuts = data.draw(st.lists(st.integers(0, n), max_size=12),
                         label="cuts")
        bounds = np.sort(np.array([0, n] + cuts, dtype=np.int64))
        if data.draw(st.booleans(), label="shuffle within segments"):
            rng = np.random.default_rng(n)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                rng.shuffle(keys[lo:hi])
        floor, block = sorts._PACKED_MIN_KEYS, sorts._SEGMENT_BLOCK_KEYS
        sorts._PACKED_MIN_KEYS = data.draw(st.sampled_from([1, 8]))
        sorts._SEGMENT_BLOCK_KEYS = data.draw(st.sampled_from([4, 16, 64]))
        try:
            _assert_is_segment_argsort(keys, bounds)
        finally:
            sorts._PACKED_MIN_KEYS, sorts._SEGMENT_BLOCK_KEYS = floor, block
