"""Skew-aware partitioning: the paper's core mechanism (Sections 2.5, 2.8).

Covers run detection (SdssReplicated), the classic / fast / stable
partition rules, the local-pivot accelerated search, the full-scan
strawman, and — via hypothesis — the global-order and workload-bound
invariants that Theorem 1 rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    find_replicated_runs,
    loads_from_displs,
    local_pivots,
    partition_classic,
    partition_fast,
    partition_full_scan,
    partition_local_pivots,
    partition_stable_arrays,
    run_dup_counts,
)

from repro.core.partition import Cuts, cuts_all_valid, dup_counts, partition_cuts
from repro.kernels import stable_prefix_layout

from .oracles_exchange import check_displs, displs_of
from .oracles_partition import (
    assemble_stable_inputs,
    batched_partition_classic,
    partition_stable_local,
)


def valid_displs(displs, n, p):
    displs = np.asarray(displs)
    assert displs.shape == (p + 1,)
    assert displs[0] == 0 and displs[-1] == n
    assert np.all(np.diff(displs) >= 0)


class TestFindReplicatedRuns:
    def test_no_duplicates(self):
        assert find_replicated_runs(np.array([1.0, 2.0, 3.0])) == []

    def test_single_run(self):
        [run] = find_replicated_runs(np.array([1.0, 2.0, 2.0, 2.0, 5.0]))
        assert (run.start, run.length, run.value) == (1, 3, 2.0)

    def test_multiple_runs(self):
        runs = find_replicated_runs(np.array([1.0, 1.0, 2.0, 3.0, 3.0]))
        assert [(r.start, r.length) for r in runs] == [(0, 2), (3, 2)]

    def test_run_at_edges(self):
        runs = find_replicated_runs(np.array([0.0, 0.0, 1.0, 2.0, 2.0]))
        assert runs[0].start == 0
        assert runs[-1].start + runs[-1].length == 5

    def test_all_equal(self):
        [run] = find_replicated_runs(np.full(6, 9.0))
        assert (run.start, run.length) == (0, 6)

    def test_empty(self):
        assert find_replicated_runs(np.array([])) == []


class TestClassicPartition:
    def test_shape_and_monotone(self, rng):
        a = np.sort(rng.random(100))
        pg = np.sort(rng.random(7))
        valid_displs(partition_classic(a, pg), 100, 8)

    def test_duplicates_concentrate(self):
        """The failure mode SDS-Sort fixes: dup mass goes to one rank."""
        a = np.full(100, 5.0)
        pg = np.array([5.0, 5.0, 5.0])
        counts = np.diff(partition_classic(a, pg))
        assert list(counts) == [100, 0, 0, 0]

    def test_upper_bound_semantics(self):
        a = np.array([1.0, 2.0, 2.0, 3.0])
        d = partition_classic(a, np.array([2.0]))
        assert list(np.diff(d)) == [3, 1]  # values <= pivot go left


class TestFastPartition:
    def test_matches_classic_without_duplicates(self, rng):
        a = np.sort(rng.permutation(1000).astype(float))
        pg = np.array([100.5, 400.5, 800.5])
        assert np.array_equal(partition_fast(a, pg), partition_classic(a, pg))

    def test_duplicates_split_evenly(self):
        a = np.full(99, 5.0)
        pg = np.array([5.0, 5.0, 5.0])  # rs=3, run covers ranks 0-2
        counts = np.diff(partition_fast(a, pg))
        assert list(counts) == [33, 33, 33, 0]

    def test_nonduplicate_prefix_goes_to_first_rank(self):
        """Values strictly between ppv and the duplicated value must go
        to the run's first rank, or global order breaks (the Figure 2
        pseudocode fix documented in DESIGN.md)."""
        a = np.array([1.0, 4.0, 4.5, 5.0, 5.0, 5.0, 5.0, 9.0])
        pg = np.array([2.0, 5.0, 5.0])
        counts = np.diff(partition_fast(a, pg))
        # rank 0: (<=2) -> [1.0]; rank 1: 4.0,4.5 + half of the 5s
        assert counts[0] == 1
        assert counts[1] == 2 + 2
        assert counts[2] == 2
        assert counts[3] == 1

    def test_run_at_start_of_pivots(self):
        a = np.array([3.0] * 10 + [7.0])
        pg = np.array([3.0, 3.0, 6.0])
        counts = np.diff(partition_fast(a, pg))
        assert counts[0] == 5 and counts[1] == 5
        assert counts[2] == 0 and counts[3] == 1

    def test_no_local_duplicates_of_pivot(self):
        """A rank holding none of the duplicated value sends nothing extra."""
        a = np.array([1.0, 2.0, 9.0])
        pg = np.array([5.0, 5.0])
        counts = np.diff(partition_fast(a, pg))
        assert list(counts) == [2, 0, 1]


class TestStablePartition:
    def _stable_displs(self, shards, pg):
        counts = [run_dup_counts(s, pg) for s in shards]
        out = []
        for r, s in enumerate(shards):
            prefix, totals = assemble_stable_inputs(counts, r, pg)
            out.append(partition_stable_local(s, pg, prefix, totals))
        return out

    def test_groups_are_contiguous_in_rank_order(self):
        """Figure 4 right: P0+P1's duplicates -> first designated rank,
        P2+P3's -> second."""
        shards = [np.full(4, 5.0) for _ in range(4)]
        pg = np.array([5.0, 5.0, 9.0])
        displs = self._stable_displs(shards, pg)
        # global dup sequence = 16 records; 2 groups of 8 = 2 shards each
        assert list(np.diff(displs[0])) == [4, 0, 0, 0]
        assert list(np.diff(displs[1])) == [4, 0, 0, 0]
        assert list(np.diff(displs[2])) == [0, 4, 0, 0]
        assert list(np.diff(displs[3])) == [0, 4, 0, 0]

    def test_single_source_split_across_groups(self):
        """When one rank holds more than a group's share, its run is cut
        (Figure 2 lines 22-24)."""
        shards = [np.full(10, 5.0), np.array([9.0])]
        pg = np.array([5.0, 5.0])  # one 2-pivot run, but p=3 pivots? p-1=2
        displs = self._stable_displs(shards, pg)
        assert list(np.diff(displs[0])) == [5, 5, 0]

    def test_loads_balanced_on_dups(self):
        shards = [np.full(8, 5.0) for _ in range(4)]
        pg = np.array([5.0, 5.0, 5.0])
        displs = self._stable_displs(shards, pg)
        loads = loads_from_displs(displs)
        # 32 duplicates in 3 groups: boundaries (32*g)//3 -> 10, 11, 11
        assert list(loads) == [10, 11, 11, 0]


class TestLocalPivotPartition:
    def test_agrees_with_classic(self, rng):
        for _ in range(10):
            a = np.sort(rng.integers(0, 50, 200).astype(float))
            pl = local_pivots(a, 8)
            pg = np.sort(rng.integers(-5, 55, 7).astype(float))
            assert np.array_equal(partition_local_pivots(a, pl, pg),
                                  partition_classic(a, pg))

    def test_duplicate_run_crossing_bracket(self):
        a = np.array([1.0] * 50 + [2.0] * 50)
        pl = local_pivots(a, 4)
        pg = np.array([1.0, 1.5, 2.0])
        assert np.array_equal(partition_local_pivots(a, pl, pg),
                              partition_classic(a, pg))

    def test_pivots_outside_range(self):
        a = np.sort(np.random.default_rng(0).random(64))
        pl = local_pivots(a, 4)
        pg = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(partition_local_pivots(a, pl, pg),
                              partition_classic(a, pg))


class TestFullScanPartition:
    def test_agrees_with_classic(self, rng):
        a = np.sort(rng.integers(0, 30, 500).astype(float))
        pg = np.sort(rng.choice(30, 7).astype(float))
        assert np.array_equal(partition_full_scan(a, pg),
                              partition_classic(a, pg))

    def test_empty_data(self):
        d = partition_full_scan(np.array([]), np.array([1.0, 2.0]))
        assert list(d) == [0, 0, 0, 0]  # p+1 displacements, all zero


class TestLoadsFromDispls:
    def test_sums_columns(self):
        displs = [np.array([0, 2, 5]), np.array([0, 1, 4])]
        assert list(loads_from_displs(displs)) == [3, 6]

    def test_empty(self):
        assert loads_from_displs([]).size == 0


# ----------------------------------------------------------------------
# vectorised partitioners vs. the per-run loop oracle
# ----------------------------------------------------------------------
def _fast_oracle(a, pg):
    """The seed's per-run double loop, kept verbatim as the oracle for
    the vectorised :func:`partition_fast` (``find_replicated_runs`` is
    the reference run detector it is built on)."""
    displs = partition_classic(a, pg)
    for run in find_replicated_runs(pg):
        lo = int(np.searchsorted(a, run.value, side="left"))
        hi = int(np.searchsorted(a, run.value, side="right"))
        dups = hi - lo
        rs = run.length
        for k in range(rs):
            displs[run.start + k + 1] = lo + (dups * (k + 1)) // rs
    return displs


def _dup_counts_oracle(a, pg):
    counts = []
    for run in find_replicated_runs(pg):
        lo = int(np.searchsorted(a, run.value, side="left"))
        hi = int(np.searchsorted(a, run.value, side="right"))
        counts.append(hi - lo)
    return np.asarray(counts, dtype=np.int64)


class TestVectorisedAgainstOracle:
    """partition_fast / run_dup_counts / partition_stable_arrays are
    single-expression rewrites; the per-run loops stay as oracles."""

    def _cases(self):
        rng = np.random.default_rng(7)
        yield np.array([]), np.array([5.0, 5.0])
        yield np.full(17, 3.0), np.array([3.0, 3.0, 3.0])
        yield np.array([1.0, 2.0, 9.0]), np.array([5.0, 5.0])
        for _ in range(40):
            n = int(rng.integers(0, 80))
            np_p = int(rng.integers(1, 12))
            a = np.sort(rng.integers(0, 9, n).astype(float))
            pg = np.sort(rng.integers(0, 9, np_p).astype(float))
            yield a, pg

    def test_fast_matches_loop_oracle(self):
        for a, pg in self._cases():
            got = partition_fast(a, pg)
            want = _fast_oracle(a, pg)
            assert np.array_equal(got, want), (a, pg)

    def test_dup_counts_match_loop_oracle(self):
        for a, pg in self._cases():
            assert np.array_equal(run_dup_counts(a, pg),
                                  _dup_counts_oracle(a, pg))

    def test_stable_arrays_match_dict_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            p = int(rng.integers(2, 7))
            shards = [np.sort(rng.integers(0, 6, int(rng.integers(0, 40)))
                              .astype(float)) for _ in range(p)]
            pg = np.sort(rng.integers(0, 6, p - 1).astype(float))
            counts = [run_dup_counts(s, pg) for s in shards]
            matrix = np.stack(counts) if counts else np.zeros((p, 0))
            totals = matrix.sum(axis=0)
            prefix = np.zeros_like(matrix)
            np.cumsum(matrix[:-1], axis=0, out=prefix[1:])
            for r, s in enumerate(shards):
                legacy_prefix, legacy_totals = assemble_stable_inputs(
                    counts, r, pg)
                want = partition_stable_local(s, pg, legacy_prefix,
                                              legacy_totals)
                got = partition_stable_arrays(s, pg, prefix[r], totals)
                assert np.array_equal(got, want), (trial, r)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
key_arrays = st.lists(st.integers(0, 12), min_size=0, max_size=60).map(
    lambda xs: np.sort(np.asarray(xs, dtype=np.float64))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(key_arrays, min_size=2, max_size=5), st.data())
def test_property_fast_partition_globally_ordered(shards, data):
    """After exchanging by partition_fast displacements, rank ranges
    never overlap: max(received by rank j) <= min(received by j+1)."""
    p = len(shards)
    nonempty = [s for s in shards if s.size]
    if not nonempty:
        return
    pool = np.sort(np.concatenate(nonempty))
    idx = data.draw(st.lists(st.integers(0, pool.size - 1),
                             min_size=p - 1, max_size=p - 1))
    pg = np.sort(pool[np.asarray(idx)])
    displs = [partition_fast(s, pg) for s in shards]
    received = [
        np.concatenate([s[d[j]:d[j + 1]] for s, d in zip(shards, displs)])
        for j in range(p)
    ]
    prev_max = None
    for chunk in received:
        if chunk.size == 0:
            continue
        if prev_max is not None:
            assert chunk.min() >= prev_max
        prev_max = chunk.max()


@settings(max_examples=60, deadline=None)
@given(st.lists(key_arrays, min_size=2, max_size=5), st.data())
def test_property_partitions_conserve_records(shards, data):
    p = len(shards)
    nonempty = [s for s in shards if s.size]
    if not nonempty:
        return
    pool = np.sort(np.concatenate(nonempty))
    idx = data.draw(st.lists(st.integers(0, pool.size - 1),
                             min_size=p - 1, max_size=p - 1))
    pg = np.sort(pool[np.asarray(idx)])
    for fn in (partition_classic, partition_fast):
        displs = [fn(s, pg) for s in shards]
        for s, d in zip(shards, displs):
            valid_displs(d, s.size, p)
        assert loads_from_displs(displs).sum() == sum(s.size for s in shards)


# ----------------------------------------------------------------------
# cuts: the non-empty buckets that travel from partition to exchange
# ----------------------------------------------------------------------

def _same_cuts(a, b):
    assert a.p == b.p
    for x, y in ((a.dst, b.dst), (a.offs, b.offs)):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=40))
def test_property_cuts_round_trip_valid_displs(counts):
    d = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    p, n = len(counts), int(d[-1])
    cuts = Cuts.from_displs(d).check(p, n)
    assert cuts.dst.size <= min(n, p) and cuts.offs.size == cuts.dst.size + 1
    back = displs_of(cuts)
    assert back.dtype == np.int64 and np.array_equal(back, d)
    assert np.array_equal(check_displs(d, p, n), back)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 6), min_size=0, max_size=8),
       st.integers(0, 8), st.integers(0, 8))
def test_property_cuts_check_rejects_what_check_displs_rejects(d, p, n):
    """Arbitrary vectors: wrong length, wrong span, decreasing steps."""
    try:
        want = check_displs(d, p, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Cuts.from_displs(d).check(p, n)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(displs_of(Cuts.from_displs(d).check(p, n)),
                              want)


def _passes_check(cuts, p, n) -> bool:
    try:
        cuts.check(p, n)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 6), min_size=0, max_size=7),
                min_size=1, max_size=6),
       st.integers(0, 7), st.data())
def test_property_world_cut_check_accepts_only_what_every_rank_accepts(
        rows, p, data):
    """``cuts_all_valid`` may send a valid world to the per-rank checks
    (it also wants well-formed buckets), never wave a bad rank through."""
    lens = [data.draw(st.integers(0, 8)) for _ in rows]
    world = [Cuts.from_displs(d) if d else Cuts(p, np.zeros(0, np.int64),
                                                np.zeros(1, np.int64))
             for d in rows]
    each = all(_passes_check(c, p, n) for c, n in zip(world, lens))
    if cuts_all_valid(world, p, lens):
        assert each
    # and a world of valid displacement vectors is accepted in one pass
    counts = [[max(0, v) for v in d][:p] + [0] * (p - len(d)) for d in rows]
    good = [np.concatenate(([0], np.cumsum(c))).astype(np.int64)
            for c in counts]
    assert cuts_all_valid([Cuts.from_displs(d) for d in good], p,
                          [int(d[-1]) for d in good])


class TestWorldCutCheck:
    P = 5

    def _world(self):
        displs = [[0, 2, 2, 5, 5, 9], [0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5],
                  [0, 0, 0, 0, 0, 7]]
        return ([Cuts.from_displs(np.array(d)) for d in displs],
                [d[-1] for d in displs])

    def test_valid_world_incl_empty_ranks(self):
        cuts, lens = self._world()
        assert cuts_all_valid(cuts, self.P, lens)
        assert cuts_all_valid(cuts[1:2], self.P, lens[1:2])   # no cell at all
        assert cuts_all_valid([cuts[1], cuts[1], cuts[0]], self.P, [0, 0, 9])
        assert cuts_all_valid([cuts[0], cuts[1], cuts[1]], self.P, [9, 0, 0])

    @pytest.mark.parametrize("damage", [
        lambda c: setattr(c[2], "p", 6),                     # bucket count
        lambda c: c[0].offs.__setitem__(0, 1),               # span: start
        lambda c: c[3].offs.__setitem__(-1, 8),              # span: end
        lambda c: c[0].offs.__setitem__(1, 6),               # a decreasing step
        lambda c: c[2].dst.__setitem__(4, 5),                # bucket >= p
        lambda c: c[2].dst.__setitem__(0, -1),               # bucket < 0
        lambda c: c[2].dst.__setitem__(1, 0),                # not ascending
        lambda c: setattr(c[0], "offs", c[0].offs[:-1]),     # closer missing
    ])
    def test_any_damage_sends_the_world_to_the_per_rank_checks(self, damage):
        cuts, lens = self._world()
        damage(cuts)
        assert not cuts_all_valid(cuts, self.P, lens)

    def test_wrong_length_is_a_wrong_span(self):
        cuts, lens = self._world()
        assert not cuts_all_valid(cuts, self.P, [9, 0, 5, 6])

    def test_a_rank_boundary_is_not_a_step(self):
        # rank 0 closes at 9, rank 1 restarts at 0: no violation; but a
        # rank that *opens* above its predecessor's closer still must
        # open at 0
        cuts, lens = self._world()
        cuts[1].offs[0] = 9
        assert not cuts_all_valid(cuts, self.P, lens)


class TestClassicCuts:
    """``partition_cuts`` on a stack against per-row ``partition_classic``
    (and the dense batched kernel it replaced), both search regimes."""

    @staticmethod
    def _check(rows, pg):
        got = partition_cuts(rows, pg)
        dense = batched_partition_classic(rows, pg)
        assert len(got) == len(rows)
        for row, cuts, d in zip(rows, got, dense):
            want = partition_classic(row, pg)
            assert np.array_equal(d, want)
            _same_cuts(cuts, Cuts.from_displs(want))
            cuts.check(pg.size + 1, row.size)
            assert np.array_equal(displs_of(cuts), want)

    @pytest.mark.parametrize("ints", [False, True])
    @pytest.mark.parametrize("g", [1, 5])
    @pytest.mark.parametrize("p,n", [(1, 0), (1, 4), (2, 1), (7, 3), (7, 6),
                                     (7, 7), (7, 40), (64, 9), (257, 64),
                                     (33, 0)])
    def test_matches_per_row(self, p, n, g, ints):
        rng = np.random.default_rng(p * 100 + n)
        draw = ((lambda size: rng.integers(0, 6, size)) if ints
                else (lambda size: rng.random(size).round(1)))
        rows = np.sort(draw((g, n)), axis=1)
        pg = np.sort(draw(p - 1))              # duplicated pivots abound
        self._check(rows, pg)

    def test_keys_outside_the_pivot_range(self):
        pg = np.array([3.0, 3.0, 5.0])
        self._check(np.array([[0.0, 1.0], [6.0, 7.0], [3.0, 3.0]]), pg)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 12), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_property_matches_per_row(self, g, n, p, seed):
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.integers(0, 8, (g, n)), axis=1)
        self._check(rows, np.sort(rng.integers(0, 8, p - 1)))


def _per_row_displs(variant, rows, pg):
    """Every row's displacements by the per-row definitions — the seed
    loops for ``fast`` and ``stable``, the stack's rows as the world."""
    if variant == "classic":
        return [partition_classic(row, pg) for row in rows]
    if variant == "fast":
        return [_fast_oracle(row, pg) for row in rows]
    counts = [_dup_counts_oracle(row, pg) for row in rows]
    return [partition_stable_local(row, pg, *assemble_stable_inputs(counts, r, pg))
            for r, row in enumerate(rows)]


def _check_kernel(rows, pg):
    """``partition_cuts`` against :meth:`Cuts.from_displs` of the per-row
    definitions, every variant; the one-row functions too."""
    counts = dup_counts(rows, pg)
    assert counts.shape == (len(rows), len(find_replicated_runs(pg)))
    for row, c in zip(rows, counts):
        assert np.array_equal(c, _dup_counts_oracle(row, pg))
        assert np.array_equal(run_dup_counts(row, pg), c)
    prefix, totals = stable_prefix_layout(list(counts))
    for variant in ("classic", "fast", "stable"):
        want = _per_row_displs(variant, rows, pg)
        got = partition_cuts(rows, pg, variant,
                             (prefix, totals) if variant == "stable" else None)
        assert len(got) == len(rows)
        assert np.array_equal(got.sizes(), [np.count_nonzero(np.diff(d)) for d in want])
        _same_cuts(got, Cuts.stack([Cuts.from_displs(d) for d in want]))
        for r, (row, d) in enumerate(zip(rows, want)):
            got.row(r).check(pg.size + 1, row.size)
            one = {"classic": lambda: partition_classic(row, pg),
                   "fast": lambda: partition_fast(row, pg),
                   "stable": lambda: partition_stable_arrays(row, pg, prefix[r], totals)}
            assert np.array_equal(one[variant](), d), (variant, r)


@st.composite
def _stacks(draw):
    """A ``(g, n)`` stack of sorted keys and ``p - 1`` sorted pivots from
    a few values, so keys equal pivots and pivots repeat: n around p on
    both sides of the kernel's switch, int64 or float keys."""
    g = draw(st.integers(1, 4))
    p = draw(st.integers(1, 12))
    n = draw(st.sampled_from([0, 1, max(0, p - 1), p, p + 1]) | st.integers(0, 3 * p))
    values = st.integers(-4, 4)
    keys = np.array(draw(st.lists(values, min_size=g * n, max_size=g * n)),
                    dtype=np.int64).reshape(g, n)
    pg = np.array(draw(st.lists(values, min_size=p - 1, max_size=p - 1)),
                  dtype=np.int64)
    if draw(st.booleans()):
        keys, pg = keys / 2.0, pg / 2.0
    return np.sort(keys, axis=1), np.sort(pg)


class TestPartitionCuts:
    """The one kernel of every variant against the per-row definitions."""

    @settings(max_examples=300, deadline=None)
    @given(_stacks())
    def test_property_rows_match_the_per_row_definitions(self, stack):
        _check_kernel(*stack)

    @pytest.mark.parametrize("pg", [
        [-3, -3, 0, 2],            # a run at the first pivot
        [-3, 0, 2, 2, 2],          # a run at the last pivot
        [1, 1, 1, 1, 1, 1, 1],     # all pivots equal
        [-2, -2, 1, 1, 1, 3, 3],   # runs back to back
    ])
    @pytest.mark.parametrize("n", [0, 1, 4, 8, 40])
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_replicated_runs_at_the_edges(self, pg, n, g, dtype):
        rng = np.random.default_rng(n * 10 + g)
        rows = np.sort(rng.integers(-3, 4, (g, n)), axis=1).astype(dtype)
        _check_kernel(rows, np.asarray(pg, dtype=dtype))
