"""Adaptive exchange and final local ordering (Sections 2.6-2.7)."""

import threading

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.exchange import sync_exchange_compute
from repro.mpi import HOST_COUNTERS, Cuts, run_spmd
from repro.mpi.cells import by_destination
from repro.obs import Tracer
from repro.records import RecordBatch
from repro.runner import run_sort
from repro.workloads import uniform

from .oracles_exchange import (
    check_displs,
    exchange_overlapped,
    exchange_sync,
    lane_exchange_sync,
    order_received,
    split_for_sends,
    sync_exchange_compute_dense,
)


def _sorted_shard(rank, n=40):
    rng = np.random.default_rng(rank)
    return RecordBatch(np.sort(rng.random(n)), {"src": np.full(n, rank)})


class TestSplitForSends:
    def test_respects_displs(self):
        b = RecordBatch(np.arange(10.0))
        parts = split_for_sends(b, np.array([0, 4, 4, 10]))
        assert [len(p) for p in parts] == [4, 0, 6]


class TestSyncExchangeAndOrdering:
    @staticmethod
    def _run(tau_s, p=4):
        def prog(comm):
            shard = _sorted_shard(comm.rank)
            n = len(shard)
            bounds = np.linspace(0, n, comm.size + 1).astype(np.int64)
            sends = split_for_sends(shard, bounds)
            chunks = exchange_sync(comm, sends)
            out, stats = order_received(comm, chunks, stable=False,
                                        tau_s=tau_s)
            return shard, out, stats
        return run_spmd(prog, p).results

    def test_merge_path_sorted(self):
        out = self._run(tau_s=10**9)
        for _, o, stats in out:
            assert o.is_sorted()
            assert stats.ordering == "merge"

    def test_sort_path_sorted(self):
        out = self._run(tau_s=1)
        for _, o, stats in out:
            assert o.is_sorted()
            assert stats.ordering == "sort"

    def test_paths_agree(self):
        merge_keys = np.concatenate([o.keys for _, o, _ in self._run(10**9)])
        sort_keys = np.concatenate([o.keys for _, o, _ in self._run(1)])
        assert np.array_equal(merge_keys, sort_keys)

    def test_received_counts(self):
        out = self._run(tau_s=10**9)
        total_in = sum(len(s) for s, _, _ in out)
        total_out = sum(len(o) for _, o, _ in out)
        assert total_in == total_out


class TestFusedSyncExchange:
    """The production sync exchange through LANE == split + dense
    alltoallv + order_received,
    bit-for-bit: outputs, clocks, phase times, counters, mem peaks."""

    P = 5  # non-power-of-two on purpose

    @staticmethod
    def _mk(comm, n=60):
        rng = np.random.default_rng(comm.rank + 5)
        keys = np.sort(rng.integers(0, 12, n).astype(float))  # duplicates
        batch = RecordBatch(keys, {"src": np.full(n, comm.rank),
                                   "pos": np.arange(n)})
        displs = np.searchsorted(
            keys, np.arange(comm.size + 1) * 12.0 / comm.size).astype(np.int64)
        displs[0], displs[-1] = 0, n
        return batch, displs

    @classmethod
    def _legacy(cls, comm, stable, tau_s):
        batch, displs = cls._mk(comm)
        comm.mem.alloc(batch.nbytes)
        sends = split_for_sends(batch, displs)
        with comm.phase("exchange"):
            chunks = exchange_sync(comm, sends)
            comm.mem.free(batch.nbytes)
        with comm.phase("local_ordering"):
            out, stats = order_received(comm, chunks, stable=stable,
                                        tau_s=tau_s, delta_hint=0.0)
        return (out.keys.tobytes(), out.payload["src"].tobytes(),
                out.payload["pos"].tobytes(), comm.clock, stats)

    @classmethod
    def _fused(cls, comm, stable, tau_s):
        batch, displs = cls._mk(comm)
        comm.mem.alloc(batch.nbytes)
        out, stats = lane_exchange_sync(comm, batch, displs, stable=stable,
                                        tau_s=tau_s, delta_hint=0.0)
        return (out.keys.tobytes(), out.payload["src"].tobytes(),
                out.payload["pos"].tobytes(), comm.clock, stats)

    @pytest.mark.parametrize("stable,tau_s", [
        (False, 10**9),  # merge branch
        (True, 10**9),   # merge branch, stable
        (False, 1),      # adaptive-sort branch, unstable quicksort
        (True, 1),       # natural merge sort branch
    ])
    def test_matches_legacy_pipeline(self, stable, tau_s):
        a = run_spmd(self._legacy, self.P, args=(stable, tau_s))
        b = run_spmd(self._fused, self.P, args=(stable, tau_s))
        assert a.results == b.results
        assert a.clocks == b.clocks
        assert a.phase_times == b.phase_times
        # host-time observability counters are the one non-deterministic
        # exception (same exclusion as test_engine_determinism)
        assert ([{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                 for c in a.counters]
                == [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                    for c in b.counters])
        assert a.mem_peaks == b.mem_peaks


def _stage(p, lens, *, seed, int_keys=False, span=50, cuts="random"):
    """One ``((batch, displs), clock)`` deposit per rank.

    ``cuts``: ``"random"`` (sorted random bounds, many empty cells),
    ``"splitters"`` (global value splitters, the realistic layout) or an
    int ``d`` (every record goes to destination ``d``).
    """
    rng = np.random.default_rng(seed)
    split = np.sort(rng.integers(0, span + 1, p - 1))
    stage = []
    for r in range(p):
        n = int(lens[r])
        keys = np.sort(rng.integers(0, span, n))
        if not int_keys:
            keys = keys.astype(np.float64)
        batch = RecordBatch(keys, {"src": np.full(n, r),
                                   "pos": np.arange(n, dtype=np.int32)})
        d = np.zeros(p + 1, dtype=np.int64)
        d[-1] = n
        if isinstance(cuts, int):
            d[cuts + 1:] = n
        elif cuts == "splitters":
            d[1:-1] = np.searchsorted(keys, split)
        else:
            d[1:-1] = np.sort(rng.integers(0, n + 1, p - 1))
        stage.append(((batch, check_displs(d, p, n)), float(rng.random())))
    return stage


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


class TestSparseSyncExchangeCompute:
    """The cell-sparse sync_exchange_compute against the dense p x p
    oracle: every key of the returned dict, value and dtype."""

    ORDERINGS = [(True, False), (True, True), (False, True), (False, False)]

    @staticmethod
    def _check(stage, p, merge, stable):
        # production takes the deposits as cuts, the oracle dense
        sparse = [((b, Cuts.from_displs(d).check(p, len(b))), t)
                  for (b, d), t in stage]
        got = sync_exchange_compute(sparse, p=p, merge=merge, stable=stable)
        want = sync_exchange_compute_dense(stage, p=p, merge=merge,
                                           stable=stable)
        S = want.pop("S")
        got.pop("cuts")
        widths = got.pop("widths")
        assert got.pop("batches") == [b for (b, _), _ in stage]
        # the cells are the non-zero counts, walked (dst, src)-major
        D = np.stack([d for (_, d), _ in stage])
        C = np.diff(D, axis=1)
        dst, src = np.nonzero(C.T)
        for name, cells in (("src", src), ("first", D[src, dst]),
                            ("cnt", C[src, dst]),
                            ("cell", np.searchsorted(dst, np.arange(p + 1)))):
            _assert_same(got.pop(name), cells)
        # production hands each destination its gathered sorted keys;
        # the oracle leaves the gather to the per-rank epilogue
        _assert_same(got.pop("ordered"), want.pop("keys")[want["final"]])
        assert sorted(got) == sorted(want)
        cols, want_cols = got.pop("cols"), want.pop("cols")
        assert sorted(cols) == sorted(want_cols)
        for name in want_cols:
            _assert_same(cols[name], want_cols[name])
        for name in want:
            _assert_same(got[name], want[name])
        # what _sync_exchange_network hands the tracer: the cells' bytes
        sent = np.zeros((p, p), dtype=np.int64)
        sent[src, dst] = C[src, dst] * widths[src]
        _assert_same(sent, S)

    @pytest.mark.parametrize("merge,stable", ORDERINGS)
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 32, 257])
    @pytest.mark.parametrize("cuts", ["random", "splitters"])
    def test_ragged_shards(self, p, cuts, merge, stable):
        rng = np.random.default_rng(p)
        lens = rng.integers(0, 9, p)          # p^2 >> N at p=257
        lens[rng.integers(0, p, max(1, p // 4))] = 0
        self._check(_stage(p, lens, seed=p, cuts=cuts,
                           int_keys=bool(p % 2)), p, merge, stable)

    @pytest.mark.parametrize("merge,stable", ORDERINGS)
    @pytest.mark.parametrize("p,n", [(2, 5000), (7, 3000), (32, 2000)])
    def test_deep_shards(self, p, n, merge, stable):
        lens = np.full(p, n)                  # N >> p^2
        lens[p // 2] = 0
        self._check(_stage(p, lens, seed=n, span=10**6, cuts="splitters"),
                    p, merge, stable)
        self._check(_stage(p, lens, seed=n + 1, span=40, int_keys=True),
                    p, merge, stable)

    @pytest.mark.parametrize("merge,stable", ORDERINGS)
    @pytest.mark.parametrize("p,dst", [(1, 0), (3, 2), (32, 0), (257, 100)])
    def test_everything_to_one_destination(self, p, dst, merge, stable):
        lens = np.random.default_rng(dst).integers(0, 20, p)
        self._check(_stage(p, lens, seed=3, cuts=dst), p, merge, stable)

    @pytest.mark.parametrize("merge,stable", ORDERINGS)
    @pytest.mark.parametrize("int_keys", [False, True])
    def test_all_equal_keys(self, int_keys, merge, stable):
        p = 32
        lens = np.random.default_rng(1).integers(0, 60, p)
        self._check(_stage(p, lens, seed=4, span=1, int_keys=int_keys),
                    p, merge, stable)

    @pytest.mark.parametrize("p", [1, 2, 7, 32, 257])
    @pytest.mark.parametrize("cuts", ["random", "splitters", 0])
    def test_cell_order_is_the_stable_sort_on_destination(self, p, cuts):
        """The (src, dst) cells are unique, so any sort of
        ``dst * p + src`` is the stable argsort on ``dst`` — the
        definition, which also serves where the product could overflow."""
        lens = np.random.default_rng(p).integers(0, 30, p)
        stage = _stage(p, lens, seed=p + 1, cuts=cuts)
        cells = [Cuts.from_displs(d) for (_, d), _ in stage]
        src = np.repeat(np.arange(p, dtype=np.int64),
                        [c.dst.size for c in cells])
        dst = np.concatenate([c.dst for c in cells])
        want = np.argsort(dst, kind="stable")
        _assert_same(by_destination(src, dst, p), want)
        _assert_same(by_destination(src, dst, 1 << 31), want)
        assert ((1 << 31) - 1) ** 2 <= np.iinfo(np.int64).max   # below it

    def test_empty_world(self):
        for p in (1, 7):
            self._check(_stage(p, np.zeros(p, dtype=int), seed=0), p,
                        True, False)

    def test_traced_edge_rows_match_oracle(self):
        """Traced sync edge rows are derived per rank from the rank's
        own cuts; together they must be the oracle's matrix."""
        p = 12
        stage = _stage(p, np.random.default_rng(8).integers(0, 40, p),
                       seed=8, cuts="splitters")

        def prog(comm):
            batch, displs = stage[comm.rank][0]
            comm.mem.alloc(batch.nbytes)
            lane_exchange_sync(comm, batch, displs, stable=True, tau_s=1)

        tracer = Tracer(p)
        assert run_spmd(prog, p, tracer=tracer).ok
        want = sync_exchange_compute_dense(stage, p=p, merge=False,
                                           stable=True)["S"]
        _assert_same(tracer.edge_matrix(), want)


class TestOverlappedExchange:
    @staticmethod
    def _run(p=4):
        def prog(comm):
            shard = _sorted_shard(comm.rank)
            bounds = np.linspace(0, len(shard), comm.size + 1).astype(np.int64)
            sends = split_for_sends(shard, bounds)
            out, stats = exchange_overlapped(comm, sends)
            return shard, out, stats, comm.clock
        return run_spmd(prog, p).results

    def test_output_sorted(self):
        for _, o, stats, _ in self._run():
            assert o.is_sorted()
            assert stats.mode == "overlap"

    def test_multiset_preserved(self):
        out = self._run()
        got = np.sort(np.concatenate([o.keys for _, o, _, _ in out]))
        want = np.sort(np.concatenate([s.keys for s, _, _, _ in out]))
        assert np.array_equal(got, want)

    def test_payload_travels(self):
        out = self._run()
        srcs = np.concatenate([o.payload["src"] for _, o, _, _ in out])
        assert set(np.unique(srcs)) == {0, 1, 2, 3}

    def test_clock_advances(self):
        for _, _, _, clock in self._run():
            assert clock > 0

    def test_matches_sync_result_keys(self):
        over = self._run()
        def sync_prog(comm):
            shard = _sorted_shard(comm.rank)
            bounds = np.linspace(0, len(shard), comm.size + 1).astype(np.int64)
            chunks = exchange_sync(comm, split_for_sends(shard, bounds))
            out, _ = order_received(comm, chunks, stable=False, tau_s=10**9)
            return out
        sync = run_spmd(sync_prog, 4).results
        for (_, o, _, _), s in zip(over, sync):
            assert np.array_equal(o.keys, s.keys)


@pytest.mark.parametrize("tau_o", [0, 4096], ids=["sync", "overlapped"])
def test_a_lane_epilogue_builds_one_batch_and_reads_nothing_world_sized(
        monkeypatch, tau_o):
    # what would make the thread backend quadratic: an epilogue written
    # for a membership doing p-sized work when a lane hands in itself
    p, reads, built, inside = 64, [], [], threading.local()

    class Spy(np.ndarray):
        def tolist(self):
            reads.append(self.size)
            return super().tolist()

    unsafe = RecordBatch._unsafe.__func__

    def counted(cls, *args):
        if getattr(inside, "rank", None) is not None:
            built.append(inside.rank)
        return unsafe(cls, *args)

    def spied(epilogue):
        def run(world, comms, shared, *args, **kwargs):
            assert len(comms) == 1
            shared = {k: v.view(Spy) if getattr(v, "shape", None) == (
                p + (k == "bounds"),) else v for k, v in shared.items()}
            inside.rank = comms[0].rank
            try:
                return epilogue(world, comms, shared, *args, **kwargs)
            finally:
                inside.rank = None
        return run

    monkeypatch.setattr(RecordBatch, "_unsafe", classmethod(counted))
    for name in ("_sync_exchange_network", "_sync_exchange_ordering",
                 "_overlapped_exchange_finish"):
        monkeypatch.setattr(pipeline, name, spied(getattr(pipeline, name)))
    assert run_sort("sds", uniform(), n_per_rank=65, p=p, mem_factor=None,
                    backend="thread", algo_opts={
                        "node_merge_enabled": False, "tau_o": tau_o}).ok
    assert sorted(built) == list(range(p))
    assert reads and max(reads) <= 2
