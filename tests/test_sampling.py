"""Regular sampling and pivot selection (Section 2.4)."""

import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import local_pivots, select_pivots_bitonic, select_pivots_gather
from repro.core.sampling import (
    local_sample_runs,
    sample_stack,
    select_pivots_bitonic_world,
    select_pivots_gather_world,
)
from repro.machine import LAPTOP
from repro.mpi import HOST_COUNTERS, LANE, ColumnarWorld, SpmdResult, run_spmd
from repro.mpi.comm import SimWorld, payload_nbytes
from repro.mpi.flatworld import make_world_comms
from repro.runner import run_sort
from repro.workloads import by_name

from .oracles_sampling import (
    select_pivots_bitonic_per_rank,
    select_pivots_gather_dense,
)


class TestLocalPivots:
    def test_count(self, rng):
        a = np.sort(rng.random(100))
        assert local_pivots(a, 8).size == 7
        assert local_pivots(a, 1).size == 0

    def test_pivots_are_quantiles(self):
        a = np.arange(100, dtype=np.float64)
        pl = local_pivots(a, 4)
        assert list(pl) == [25.0, 50.0, 75.0]

    def test_fractional_stride_covers_tail(self):
        """The floor(k*n/p) positions leave at most n/p unsampled at the
        top — the fix for the 128K-rank tail blow-up (see docstring)."""
        n, p = 1000, 7
        a = np.arange(n, dtype=np.float64)
        pl = local_pivots(a, p)
        assert pl[-1] >= n - n / p - 1

    def test_sorted_output(self, rng):
        a = np.sort(rng.random(64))
        pl = local_pivots(a, 16)
        assert np.all(np.diff(pl) >= 0)

    def test_tiny_input_degrades(self):
        a = np.array([1.0, 2.0])
        pl = local_pivots(a, 8)
        assert pl.size == 7
        assert set(pl) <= {1.0, 2.0}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            local_pivots(np.array([]), 4)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            local_pivots(np.array([1.0]), 0)


class TestPivotSelection:
    @staticmethod
    def _run(method, p, seed=0):
        def prog(comm):
            rng = np.random.default_rng(seed + comm.rank)
            a = np.sort(rng.random(256))
            pl = local_pivots(a, comm.size)
            return method(comm, pl), a
        res = run_spmd(prog, p)
        pgs = [r[0] for r in res.results]
        shards = [r[1] for r in res.results]
        return pgs, shards

    def test_gather_all_ranks_agree(self):
        pgs, _ = self._run(select_pivots_gather, 4)
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_bitonic_all_ranks_agree(self):
        pgs, _ = self._run(select_pivots_bitonic, 8)
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_bitonic_matches_gather(self):
        """Both select stride-p elements of the same pooled samples."""
        pg_b, _ = self._run(select_pivots_bitonic, 8, seed=11)
        pg_g, _ = self._run(select_pivots_gather, 8, seed=11)
        assert np.array_equal(pg_b[0], pg_g[0])

    def test_pivot_count_and_order(self):
        pgs, _ = self._run(select_pivots_bitonic, 8)
        assert pgs[0].size == 7
        assert np.all(np.diff(pgs[0]) >= 0)

    def test_pivots_near_global_quantiles(self):
        pgs, shards = self._run(select_pivots_bitonic, 8, seed=3)
        pooled = np.sort(np.concatenate(shards))
        for j, pv in enumerate(pgs[0]):
            q = (j + 1) / 8
            rank = np.searchsorted(pooled, pv) / pooled.size
            assert abs(rank - q) < 0.08

    def test_bitonic_nonpow2_falls_back(self):
        pgs, _ = self._run(select_pivots_bitonic, 6)
        assert pgs[0].size == 5
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_single_rank(self):
        def prog(comm):
            pl = local_pivots(np.arange(10.0), 1)
            return select_pivots_bitonic(comm, pl)
        res = run_spmd(prog, 1)
        assert res.results[0].size == 0


class TestOversampling:
    def test_pivot_count_and_order(self):
        from repro.core import select_pivots_oversample

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return select_pivots_oversample(comm, np.sort(rng.random(500)))
        res = run_spmd(prog, 8)
        pg = res.results[0]
        assert pg.size == 7
        assert np.all(np.diff(pg) >= 0)
        for other in res.results[1:]:
            assert np.array_equal(other, pg)

    def test_more_oversampling_tightens_quality(self):
        """Pivot rank error shrinks with the oversampling factor."""
        from repro.core import select_pivots_oversample

        def prog(comm, s):
            rng = np.random.default_rng(comm.rank)
            keys = np.sort(rng.random(2000))
            pg = select_pivots_oversample(comm, keys, oversample=s, seed=1)
            ranks = comm.allreduce(
                np.searchsorted(keys, pg).astype(np.int64))
            n_total = comm.allreduce(keys.size)
            targets = (np.arange(1, comm.size) * n_total) // comm.size
            return int(np.abs(ranks - targets).max())
        err_small = max(run_spmd(prog, 8, kwargs={"s": 4}).results)
        err_big = max(run_spmd(prog, 8, kwargs={"s": 256}).results)
        assert err_big < err_small

    def test_deterministic_given_seed(self):
        from repro.core import select_pivots_oversample

        def prog(comm):
            keys = np.sort(np.random.default_rng(comm.rank).random(300))
            return select_pivots_oversample(comm, keys, seed=7)
        a = run_spmd(prog, 4).results[0]
        b = run_spmd(prog, 4).results[0]
        assert np.array_equal(a, b)

    def test_empty_shard_rejected(self):
        from repro.core import select_pivots_oversample
        from repro.mpi import RankFailure

        def prog(comm):
            select_pivots_oversample(comm, np.zeros(0))
        with pytest.raises(RankFailure):
            run_spmd(prog, 2)


# ----------------------------------------------------------------------
# run-length regular samples vs the dense PSRS gather (oracle)
# ----------------------------------------------------------------------

def _ragged_shards(p, shape, *, ints, seed):
    """Sorted shards of one world; ``shape`` picks the length regime."""
    rng = np.random.default_rng(seed)
    if shape == "short":                      # n < p everywhere
        lens = rng.integers(1, max(2, p), p)
    elif shape == "p-1":
        lens = np.full(p, max(1, p - 1))
    elif shape == "deep":                     # n >= p everywhere
        lens = rng.integers(p, 3 * p + 2, p)
    elif shape == "empty-ranks":              # the pad path
        lens = rng.integers(0, 2 * p + 1, p)
        lens[rng.integers(0, p, max(1, p // 3))] = 0
    else:                                     # "mixed": both regimes
        lens = rng.integers(1, 2 * p + 2, p)
    shards = []
    for n in lens:
        if ints:                              # duplicate-heavy
            a = np.sort(rng.integers(0, 5, int(n)))
        else:
            a = np.sort(rng.random(int(n)))
        shards.append(a)
    return shards


def _samples(shards, p, *, runs):
    take = ((lambda a: local_sample_runs(a, p)) if runs
            else (lambda a: local_pivots(a, p)))
    return [take(a) if a.size else a[:0] for a in shards]


def _deterministic(counters):
    return [{k: v for k, v in c.items() if k not in HOST_COUNTERS} for c in counters]


class TestRunLengthSelection:
    """``select_pivots_gather_world`` on run-length deposits against the
    parent's dense selector: pivots, clocks (the root's ``sort_time``
    charge, the gather/bcast costs driven by ``payload_nbytes``) and
    counters, on both world views."""

    SHAPES = ["short", "p-1", "deep", "mixed", "empty-ranks"]

    @pytest.mark.parametrize("ints", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 32, 257])
    def test_columnar_matches_dense_oracle(self, p, shape, ints):
        shards = _ragged_shards(p, shape, ints=ints, seed=p)
        out = {}
        for runs, select in ((True, select_pivots_gather_world),
                             (False, select_pivots_gather_dense)):
            world = SimWorld(p, LAPTOP)
            comms = make_world_comms(world)
            pgs = select(ColumnarWorld(world), comms,
                         _samples(shards, p, runs=runs))
            views = SpmdResult(world, [None] * p)
            out[runs] = (pgs, views.clocks, views.counters)
        (got, clocks, counters), (want, wclocks, wcounters) = \
            out[True], out[False]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert clocks == wclocks
        assert counters == wcounters

    @pytest.mark.parametrize("ints", [False, True])
    @pytest.mark.parametrize("shape", ["mixed", "empty-ranks"])
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 32, 257])
    def test_lane_matches_dense_oracle(self, p, shape, ints):
        shards = _ragged_shards(p, shape, ints=ints, seed=100 + p)

        def prog(select, runs):
            def rank(comm):
                pl = _samples([shards[comm.rank]], p, runs=runs)
                return select(LANE, [comm], pl)[0]
            return rank

        got = run_spmd(prog(select_pivots_gather_world, True), p)
        want = run_spmd(prog(select_pivots_gather_dense, False), p)
        for g, w in zip(got.results, want.results):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got.clocks == want.clocks
        assert _deterministic(got.counters) == _deterministic(want.counters)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 90), st.booleans())
    def test_runs_expand_to_local_pivots(self, p, n, ints):
        rng = np.random.default_rng(p * 1000 + n)
        a = np.sort(rng.integers(0, 4, n) if ints else rng.random(n))
        runs = local_sample_runs(a, p)
        want = local_pivots(a, p)
        assert runs.total == want.size == p - 1
        assert runs.values.size <= min(n, max(0, p - 1))
        assert np.array_equal(runs.expand(), want)
        # the modelled wire size is the expanded vector's
        assert payload_nbytes(runs) == payload_nbytes(want)

    def test_layout_is_shared_per_length(self):
        # a stack of same-length shards: one layout, one row a shard
        for n in (5, 9, 40):                           # n < p, = p, > p
            shards = [np.arange(n, dtype=float) + k for k in range(3)]
            runs = sample_stack(np.stack(shards), 9)
            assert runs.values.shape == (3, runs.counts.size)
            assert runs.total == 8 and runs.nbytes == 8 * shards[0].itemsize
            for shard, got in zip(shards, runs.expand()):
                assert np.array_equal(got, local_pivots(shard, 9))

    def test_errors_match_local_pivots(self):
        with pytest.raises(ValueError, match="empty shard"):
            local_sample_runs(np.array([]), 4)
        with pytest.raises(ValueError, match="p must be >= 1"):
            local_sample_runs(np.array([1.0]), 0)
        assert local_sample_runs(np.array([]), 1).total == 0

    @pytest.mark.parametrize("p", [2, 8])
    def test_bitonic_runs_equal_plain_vectors(self, p):
        shards = _ragged_shards(p, "mixed", ints=False, seed=p)

        def prog(runs):
            def rank(comm):
                pl = _samples([shards[comm.rank]], p, runs=runs)
                return select_pivots_bitonic_world(LANE, [comm], pl)[0]
            return rank

        got, want = run_spmd(prog(True), p), run_spmd(prog(False), p)
        for g, w in zip(got.results, want.results):
            assert np.array_equal(g, w)
        assert got.clocks == want.clocks


def _bitonic_inputs(p, inputs, seed):
    """``(deposits, runs)``: the selector's deposits, and each rank's own
    runs for the oracle.  ``"stack*"`` deposit the flat ``PivotSelect``'s
    :func:`sample_stack` of each shard length (``n >= p``; two-lengths
    interleaves ``n < p``), ``"negative-dups"`` int64 keys in [-3, 1]."""
    rng = np.random.default_rng(seed)
    if inputs == "negative-dups":
        runs = _samples([np.sort(rng.integers(-3, 2, int(n), np.int64))
                         for n in rng.integers(1, 2 * p + 2, p)], p, runs=True)
        return runs, runs
    shards = [np.sort(rng.random(2 * p + 3 if inputs == "stack" or r % 3
                                 else max(1, p // 2))) for r in range(p)]
    stacks = {n: sample_stack(np.stack([a for a in shards if a.size == n]),
                              p) for n in {a.size for a in shards}}
    return [stacks[a.size] for a in shards], _samples(shards, p, runs=True)


class TestBitonicAssembly:
    """``select_pivots_bitonic_world`` — the network charged in closed
    form over the shared host selection, the assembly allgather sized
    from the positions — against the per-rank filter and assembly over
    expanded samples it replaced: pivots, dtype, clocks and counters, on
    both world views."""

    @staticmethod
    def _columnar(p, deposits, runs):
        out = []
        for select, pls in ((select_pivots_bitonic_world, deposits),
                            (select_pivots_bitonic_per_rank, runs)):
            world = SimWorld(p, LAPTOP)
            pgs = select(ColumnarWorld(world), make_world_comms(world), pls)
            views = SpmdResult(world, [None] * p)
            out.append((pgs, views.clocks, views.counters))
        (got, clocks, counters), (want, wclocks, wcounters) = out
        assert all(g is got[0] for g in got)  # one vector, by reference
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert clocks == wclocks
        assert counters == wcounters

    @staticmethod
    def _lane(p, deposits, runs):
        def prog(select, pls):
            def rank(comm):  # a stack is one object, deposited by its rows
                return select(LANE, [comm], [pls[comm.rank]])[0]
            return rank

        got = run_spmd(prog(select_pivots_bitonic_world, deposits), p)
        want = run_spmd(prog(select_pivots_bitonic_per_rank, runs), p)
        assert all(g is got.results[0] for g in got.results)
        for g, w in zip(got.results, want.results):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got.clocks == want.clocks
        assert _deterministic(got.counters) == _deterministic(want.counters)

    @pytest.mark.parametrize("ints", [False, True])
    @pytest.mark.parametrize("p", [2, 4, 8, 32, 256])
    def test_columnar_matches_per_rank_oracle(self, p, ints):
        runs = _samples(_ragged_shards(p, "mixed", ints=ints, seed=p), p,
                        runs=True)
        self._columnar(p, runs, runs)

    @pytest.mark.parametrize("ints", [False, True])
    @pytest.mark.parametrize("p", [2, 4, 8, 32, 256])
    def test_lane_matches_per_rank_oracle(self, p, ints):
        runs = _samples(_ragged_shards(p, "mixed", ints=ints, seed=100 + p),
                        p, runs=True)
        self._lane(p, runs, runs)

    INPUTS = ["stack", "stack-two-lengths", "negative-dups"]

    @pytest.mark.parametrize("inputs", INPUTS)
    @pytest.mark.parametrize("p", [2, 8, 32, 256])
    def test_columnar_inputs_match_per_rank_oracle(self, p, inputs):
        self._columnar(p, *_bitonic_inputs(p, inputs, seed=p))

    @pytest.mark.parametrize("inputs", INPUTS)
    @pytest.mark.parametrize("p", [2, 8, 32, 256])
    def test_lane_inputs_match_per_rank_oracle(self, p, inputs):
        self._lane(p, *_bitonic_inputs(p, inputs, seed=100 + p))


class TestSelectionHostMemory:
    P = 4096

    @classmethod
    def _peak(cls, method: str) -> int:
        """Host peak of flat SDS at ``P`` x 16, node merge off, with
        ``method`` selecting the pivots (caches warmed first)."""
        run_sort("sds", by_name("uniform"), p=64, n_per_rank=16,
                 backend="flat", mem_factor=None)
        tracemalloc.start()
        try:
            r = run_sort("sds", by_name("uniform"), p=cls.P, n_per_rank=16,
                         backend="flat", mem_factor=None, algo_opts={
                             "pivot_method": method,
                             "node_merge_enabled": False})
            assert r.ok
            assert {(d["decision"], d["choice"])
                    for d in r.extras["decisions"]} >= {
                        ("pivot_method", method)}
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bitonic_holds_no_expanded_samples(self):
        """The bitonic selector reads its pivots off the sample runs, as
        gather does: its host peak stays within a quarter of the
        ``p*p*8`` bytes that expanding the ``p*(p-1)`` samples takes."""
        p = self.P
        assert self._peak("bitonic") < self._peak("gather") + p * p * 8 // 4

    def test_oversample_shares_one_gathered_list(self):
        """The oversample allgather hands every rank one shared list: a
        private ``p``-element list per rank is ``p*p*8`` bytes."""
        p = self.P
        assert self._peak("oversample") < self._peak("gather") + p * p * 8 // 4
