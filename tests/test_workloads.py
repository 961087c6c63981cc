"""Workload generators: distributions, determinism, paper statistics."""

import ast
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from repro.metrics import replication_ratio
from repro.records import RecordBatch
from repro.workloads import (
    COSMO_DELTA,
    PTF_DELTA,
    ZIPF_UNIVERSE,
    OneUniformPerKey,
    Workload,
    by_name,
    cosmology,
    nearly_sorted,
    partially_ordered,
    ptf,
    uniform,
    zipf,
    zipf_delta,
    zipf_pmf,
)
from repro.workloads import base, seeding
from repro.workloads.seeding import child_states, child_uniforms


class TestShardProtocol:
    def test_deterministic(self):
        wl = uniform()
        a = wl.shard(100, 4, 2, seed=7).keys
        b = wl.shard(100, 4, 2, seed=7).keys
        assert np.array_equal(a, b)

    def test_ranks_differ(self):
        wl = uniform()
        a = wl.shard(100, 4, 0, seed=7).keys
        b = wl.shard(100, 4, 1, seed=7).keys
        assert not np.array_equal(a, b)

    def test_seed_changes_data(self):
        wl = uniform()
        a = wl.shard(100, 4, 0, seed=7).keys
        b = wl.shard(100, 4, 0, seed=8).keys
        assert not np.array_equal(a, b)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            uniform().shard(10, 4, 4)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, [1, 2],
                                      np.int64(-4)])
    @pytest.mark.parametrize("name", ["uniform", "staggered"])
    def test_bad_seed_is_one_error_before_any_rank(self, name, seed):
        # numpy words these three ways (ValueError / TypeError) and
        # takes None for fresh OS entropy
        wl = by_name(name)
        message = "seed must be a non-negative integer, got "
        with pytest.raises(ValueError, match=message):
            wl.shard(5, 4, 0, seed)
        with pytest.raises(ValueError, match=message):
            wl.shards(5, 4, seed)
        with pytest.raises(ValueError, match=message):
            wl.shards(5, 4, seed, [])

    def test_global_batch_concatenates(self):
        wl = uniform()
        g = wl.global_batch(50, 4, seed=1)
        assert len(g) == 200

    def test_by_name(self):
        assert by_name("zipf", alpha=1.1).meta["alpha"] == 1.1
        with pytest.raises(KeyError):
            by_name("wavelet")


class TestZipf:
    def test_pmf_normalised(self):
        pmf = zipf_pmf(0.7)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pmf) <= 0)  # rank 1 most popular

    def test_table2_alpha_delta_mapping(self):
        """Table 2: alpha -> delta(%): 0.4->0.2, 0.6->1.0, 0.9->6.4."""
        assert zipf_delta(0.4) * 100 == pytest.approx(0.24, abs=0.1)
        assert zipf_delta(0.6) * 100 == pytest.approx(1.0, abs=0.3)
        assert zipf_delta(0.9) * 100 == pytest.approx(6.4, abs=2.0)

    def test_table1_high_alpha_deltas(self):
        """Table 1: alpha 1.4 -> ~32% and 2.1 -> ~63% duplicates."""
        assert zipf_delta(1.4) == pytest.approx(0.32, abs=0.03)
        assert zipf_delta(2.1) == pytest.approx(0.63, abs=0.04)

    def test_generated_delta_matches_analytic(self):
        wl = zipf(1.4)
        keys = wl.generate(200_000, seed=3).keys
        assert replication_ratio(keys) == pytest.approx(zipf_delta(1.4), rel=0.05)

    def test_meta_records_delta(self):
        assert zipf(0.7).meta["delta"] == pytest.approx(zipf_delta(0.7))

    @pytest.mark.parametrize("alpha", [0, 0.4, 0.7, 1.4, 2.1])
    def test_keys_are_rng_choice_over_the_pmf(self, alpha):
        # the memoised-CDF draw is ``Generator.choice(p=pmf)`` spelled
        # out: same keys, and the generator left in the same state
        for universe in (10_000, 37):
            wl = zipf(alpha, universe)
            pmf = zipf_pmf(alpha, universe)
            for n in (0, 1, 500, 5000):
                want, got = default_rng(n + 1), default_rng(n + 1)
                keys = want.choice(universe, size=n, p=pmf).astype(np.float64)
                batch = wl.fn(n, got)
                assert batch.keys.dtype == keys.dtype
                assert batch.keys.tobytes() == keys.tobytes()
                assert got.bit_generator.state == want.bit_generator.state

    def test_cdf_is_shared_and_read_only(self):
        from repro.workloads.synthetic import _zipf_cdf
        cdf = _zipf_cdf(0.7, 10_000)
        assert cdf is _zipf_cdf(0.7, 10_000)
        with pytest.raises(ValueError):
            cdf[0] = 0.0

    def test_resident_cdf_bytes_are_bounded_under_a_universe_sweep(self):
        # ``universe`` is a client's number: the memo keeps cdfs up to
        # the default size only, so a daemon cannot be made to hold 32
        # client-sized arrays; what a big universe draws is unchanged
        import gc
        import tracemalloc
        from repro.workloads import ZIPF_UNIVERSE
        from repro.workloads.synthetic import _zipf_cdf

        big = 40 * ZIPF_UNIVERSE                   # 3.2 MB a cdf
        want, got = default_rng(5), default_rng(5)
        keys = want.choice(big, size=300, p=zipf_pmf(0.9, big))
        assert zipf(0.9, big).fn(300, got).keys.tobytes() \
            == keys.astype(np.float64).tobytes()
        assert got.bit_generator.state == want.bit_generator.state

        _zipf_cdf.cache_clear()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for k in range(40):
                zipf(0.9, big + k).shard(64, 4, 0, seed=k)
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 8 * big
            assert _zipf_cdf.cache_info().currsize == 0
            for k in range(40):
                zipf(0.9, ZIPF_UNIVERSE - k).shard(64, 4, 0, seed=k)
            gc.collect()
            info = _zipf_cdf.cache_info()
            assert info.currsize == info.maxsize == 32
            assert tracemalloc.get_traced_memory()[0] - before \
                < (info.maxsize + 1) * 8 * ZIPF_UNIVERSE
        finally:
            tracemalloc.stop()
            _zipf_cdf.cache_clear()

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            zipf_pmf(-1.0)


class TestPartiallyOrdered:
    def test_runs_structure(self):
        from repro.kernels import count_runs
        b = partially_ordered(runs=8).generate(800, seed=2)
        assert count_runs(b.keys) <= 8

    def test_nearly_sorted_high_sortedness(self):
        from repro.kernels import sortedness
        b = nearly_sorted(disorder=0.01).generate(10_000, seed=2)
        assert sortedness(b.keys) > 0.95

    def test_nearly_sorted_rejects_bad_disorder(self):
        import numpy as np
        from repro.workloads import nearly_sorted_batch
        with pytest.raises(ValueError):
            nearly_sorted_batch(10, np.random.default_rng(0), disorder=2.0)


class TestPTF:
    def test_delta_matches_paper(self):
        b = ptf().generate(100_000, seed=5)
        assert replication_ratio(b.keys) == pytest.approx(PTF_DELTA, abs=0.01)

    def test_payload_schema(self):
        b = ptf().generate(100, seed=5)
        assert set(b.columns) == {"ra", "dec", "mjd"}

    def test_scores_in_range(self):
        b = ptf().generate(10_000, seed=5)
        assert b.keys.min() >= 0.0
        assert b.keys.max() <= 1.0

    def test_duplicates_at_low_end(self):
        """The point mass sits at the bottom of the distribution."""
        b = ptf().generate(10_000, seed=5)
        vals, counts = np.unique(b.keys, return_counts=True)
        assert vals[counts.argmax()] == 0.0


class TestCosmology:
    def test_delta_matches_paper(self):
        b = cosmology().generate(200_000, seed=5)
        assert replication_ratio(b.keys) == pytest.approx(COSMO_DELTA, rel=0.15)

    def test_payload_schema(self):
        b = cosmology().generate(100, seed=5)
        assert set(b.columns) == {"x", "y", "z", "vx", "vy", "vz"}
        assert b.payload["x"].dtype == np.float32

    def test_integer_cluster_ids(self):
        b = cosmology().generate(1000, seed=5)
        assert np.array_equal(b.keys, np.round(b.keys))

    def test_record_width_matches_paper(self):
        """Key + 6 float32 payload: position and velocity."""
        b = cosmology().generate(10, seed=0)
        assert b.record_bytes == 8 + 6 * 4

    def test_empty_shard_keeps_the_schema(self):
        empty = by_name("cosmology").shard(0, 4, 0, 1)
        assert len(empty) == 0
        assert empty.schema == cosmology().shard(5, 4, 0, 1).schema

    @pytest.mark.parametrize("backend", ["thread", "flat"])
    def test_empty_world_sorts_end_to_end(self, backend):
        from repro.runner import run_sort
        for algorithm in ("sds", "sds-stable"):   # psrs refuses empty shards
            res = run_sort(algorithm, cosmology(), n_per_rank=0, p=4,
                           backend=backend)       # validate=True
            assert res.ok and res.loads == [0, 0, 0, 0]



# ---------------------------------------------------------------------------
# Workload.shards: exact batched child seeding
# ---------------------------------------------------------------------------

GRID_SEEDS = (0, 1, 5, 123456789, 2**32 - 1, 2**32, 2**40 + 7,
              2**127 + 3, 2**128 + 5, 2**200 + 9)
GRID_RANKS = (0, 1, 2, 17, 255, 4095, 65535, 131071, 2**31, 2**32 - 1)


def _numpy_states(seed, ranks):
    out = []
    for r in ranks:
        state = PCG64(SeedSequence(seed, spawn_key=(r,))).state
        assert (state["has_uint32"], state["uinteger"]) == (0, 0)
        out.append((state["state"]["state"], state["state"]["inc"]))
    return out


def registered_names():
    """Every workload ``by_name`` knows, read off its own error text."""
    try:
        by_name("no-such-workload")
    except KeyError as err:
        names = ast.literal_eval(err.args[0].split("options: ")[1])
    assert "staggered" in names and len(names) >= 11
    return names


def _same_bytes(got: RecordBatch, want: RecordBatch) -> None:
    assert got.keys.dtype == want.keys.dtype
    assert got.keys.tobytes() == want.keys.tobytes()
    assert (got.schema, got.record_bytes, got.nbytes) == \
        (want.schema, want.record_bytes, want.nbytes)
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got.payload[name], want.payload[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _half_word_batch(n, rng):
    # one uint32 and one float32 draw each leave a buffered half-word
    # in the bit generator: it must not leak into the next rank
    head = rng.integers(0, 2**32, dtype=np.uint32)
    tail = rng.random(1, dtype=np.float32)
    return RecordBatch(np.concatenate([[float(head)], tail, rng.random(n)]))


class TestBatchedSeeding:
    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_states_equal_numpy_on_the_grid(self, seed):
        assert child_states(seed, GRID_RANKS) == _numpy_states(seed,
                                                               GRID_RANKS)
        assert child_states(seed, np.array(GRID_RANKS)) == \
            child_states(seed, list(GRID_RANKS))
        assert child_states(seed, []) == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**256 - 1),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_states_equal_numpy(self, seed, ranks):
        assert child_states(seed, ranks) == _numpy_states(seed, ranks)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**256 - 1),
           st.lists(st.integers(0, 2**32 - 1), max_size=4),
           st.integers(0, 130))
    def test_uniforms_equal_numpy(self, seed, ranks, n):
        got = child_uniforms(seed, ranks, n)
        assert got.shape == (len(ranks), n) and got.flags.c_contiguous
        for r, row in zip(ranks, got):
            want = Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))
            assert row.tobytes() == want.random(n).tobytes()

    def test_self_check_agrees_with_this_numpy(self):
        seeding.matches_numpy.cache_clear()
        assert seeding.matches_numpy() is True

    @pytest.mark.parametrize("name", registered_names())
    @pytest.mark.parametrize("n", [0, 1, 7, 63])
    def test_shards_equal_shard_byte_for_byte(self, name, n):
        wl = by_name(name)
        for seed in (0, 3, 2**35 + 1):
            for p in (1, 9):
                got = wl.shards(n, p, seed)
                assert len(got) == p
                for r, batch in enumerate(got):
                    _same_bytes(batch, wl.shard(n, p, r, seed))

    @pytest.mark.parametrize("make", [
        uniform, lambda: zipf(1.1), lambda: zipf(0.7, 3 * ZIPF_UNIVERSE)])
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, base._LOCKSTEP_MAX_KEYS])
    def test_lockstep_shards_equal_shard_byte_for_byte(self, monkeypatch,
                                                       make, n):
        def refuse(*args, **kwargs):
            raise AssertionError("generator built")

        wl = make()
        assert isinstance(wl.fn, OneUniformPerKey)
        ranks = [2**32 - 1, 0, 2**31]                     # out of order
        want = {seed: [wl.shard(n, 2**32, r, seed) for r in ranks]
                for seed in GRID_SEEDS}
        for name in ("Generator", "default_rng"):         # lockstep only
            monkeypatch.setattr(base, name, refuse)
        for seed in GRID_SEEDS:
            got = wl.shards(n, 2**32, seed, ranks)
            assert len(got) == len(ranks)
            for batch, expected in zip(got, want[seed], strict=True):
                _same_bytes(batch, expected)

    def test_longer_shards_take_the_generator_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lockstep route taken")

        wl, top = zipf(1.1), base._LOCKSTEP_MAX_KEYS
        monkeypatch.setattr(base, "child_uniforms", refuse)
        for r, batch in enumerate(wl.shards(top + 1, 3, 4)):
            _same_bytes(batch, wl.shard(top + 1, 3, r, 4))
        with pytest.raises(AssertionError, match="lockstep route taken"):
            wl.shards(top, 3, 4)

    @pytest.mark.parametrize("ranks", [
        [6, 0, 3, 8, 1], [2, 2, 7, 2], [5], [], range(3, 7),
        np.array([8, 0], dtype=np.int32)])
    def test_any_ranks_in_any_order(self, ranks):
        for name in ("cosmology", "ptf", "staggered"):
            wl = by_name(name)
            for given_ranks in (ranks, iter(ranks)):     # one-shot too
                got = wl.shards(7, 9, 3, given_ranks)
                assert len(got) == len(ranks)
                for r, batch in zip(ranks, got):
                    _same_bytes(batch, wl.shard(7, 9, int(r), 3))

    def test_buffered_half_word_does_not_leak(self):
        wl = Workload("half-word", _half_word_batch)
        for r, batch in enumerate(wl.shards(5, 6, 9)):
            _same_bytes(batch, wl.shard(5, 6, r, 9))

    def test_overridden_shard_is_honoured(self):
        calls = []

        class Shifted(Workload):
            def shard(self, n, p, rank, seed=0):
                calls.append(rank)
                return super().shard(n + rank, p, rank, seed)

        wl = Shifted("shifted", uniform().fn)
        assert [len(b) for b in wl.shards(2, 4, 1)] == [2, 3, 4, 5]
        assert calls == [0, 1, 2, 3]

    def test_patched_shard_is_honoured(self, monkeypatch):
        definition = Workload.shard
        calls = []

        def spy(self, n, p, rank, seed=0):
            calls.append(rank)
            return definition(self, n, p, rank, seed)

        wl = uniform()
        want = wl.shards(4, 3, 2)
        monkeypatch.setattr(Workload, "shard", spy)      # on the class
        for got, batch in zip(wl.shards(4, 3, 2), want, strict=True):
            _same_bytes(got, batch)
        assert calls == [0, 1, 2]
        monkeypatch.undo()
        object.__setattr__(wl, "shard",                  # on the instance
                           lambda n, p, rank, seed=0: calls.append(-rank))
        assert wl.shards(4, 3, 2) == [None] * 3
        assert calls[3:] == [0, -1, -2]

    def test_batched_route_builds_no_per_rank_seeding_objects(
            self, monkeypatch):
        # the point of the route: were it taken through ``shard`` these
        # would be called once per rank
        from repro.workloads import base

        def refuse(*args, **kwargs):
            raise AssertionError("per-rank seeding object built")

        monkeypatch.setattr(base, "SeedSequence", refuse)
        monkeypatch.setattr(base, "default_rng", refuse)
        assert len(uniform().shards(4, 300, 1)) == 300
        with pytest.raises(AssertionError):
            uniform().shard(4, 300, 0, 1)

    @pytest.mark.parametrize("seed", [2**128 + 5, 2**200 + 9, np.int64(7),
                                      np.uint8(3), True, False])
    def test_wide_and_non_int_seeds_give_what_shard_gives(self, seed):
        wl = by_name("ptf")
        for r, batch in enumerate(wl.shards(7, 3, seed)):
            _same_bytes(batch, wl.shard(7, 3, r, seed))

    def test_ranks_past_32_bits_give_what_shard_gives(self):
        # two spawn-key words: the definition's business
        wl, p = uniform(), 2**32 + 2
        ranks = [2**32 - 1, 2**32, 2**32 + 1, 3]
        for r, batch in zip(ranks, wl.shards(4, p, 5, ranks)):
            _same_bytes(batch, wl.shard(4, p, r, 5))
        _same_bytes(wl.shards(4, p, 5, [2**32 - 1])[0],
                    wl.shard(4, p, 2**32 - 1, 5))

    def test_out_of_range_rank_is_shard_error(self):
        for ranks in ([0, 4], [-1], [1, 2**40]):
            with pytest.raises(ValueError, match="out of range for p=4"):
                uniform().shards(3, 4, 0, ranks)

    @pytest.mark.parametrize("constant", ["_MULT_A", "_MIX_MULT_R",
                                          "_MULT_B", "_PCG_MULT",
                                          "_ROT_SHIFT", "_DOUBLE_SHIFT"])
    def test_self_check_falls_back_to_shard(self, monkeypatch, caplog,
                                            constant):
        # the last two corrupt only the stream: the start states agree
        monkeypatch.setattr(seeding, constant,
                            getattr(seeding, constant) ^ 2)
        seeding.matches_numpy.cache_clear()
        try:
            with caplog.at_level(logging.WARNING):
                for _ in range(3):
                    for wl in (by_name("cosmology"), zipf(1.1)):
                        got = wl.shards(7, 5, 3)
                        for r, batch in enumerate(got):
                            _same_bytes(batch, wl.shard(7, 5, r, 3))
            warned = [rec for rec in caplog.records
                      if "disagrees with numpy" in rec.getMessage()]
            assert len(warned) == 1          # once per process
            assert warned[0].name == "sdssort.workloads.seeding"
            assert seeding.matches_numpy() is False
        finally:
            monkeypatch.undo()
            seeding.matches_numpy.cache_clear()
        assert seeding.matches_numpy() is True
