"""Memory-ledger accounting and OOM semantics, through a rank's view
(``comm.mem``) and on many ranks at once."""

import pickle

import numpy as np
import pytest

from repro.machine import MemoryLedger, RankMemory, SimOOMError


def _rank(capacity=None, rank=0, p=4) -> RankMemory:
    return RankMemory(MemoryLedger(p, capacity), rank)


class TestAllocation:
    def test_unbounded_by_default(self):
        t = _rank()
        t.alloc(10**15)
        assert t.in_use == 10**15
        assert t.capacity is None

    def test_alloc_accumulates(self):
        t = _rank(capacity=100)
        t.alloc(40)
        t.alloc(40)
        assert t.in_use == 80
        assert t.peak == 80
        assert t.capacity == 100

    def test_oom_on_overflow(self):
        t = _rank(capacity=100, rank=3)
        t.alloc(60)
        with pytest.raises(SimOOMError) as ei:
            t.alloc(50)
        assert ei.value.rank == 3
        assert ei.value.requested == 50
        assert ei.value.in_use == 60
        assert ei.value.capacity == 100
        assert str(ei.value) == ("rank 3: allocation of 50 B would exceed "
                                 "capacity (60 B in use of 100 B)")
        assert (t.in_use, t.peak) == (60, 60)      # the refusal booked nothing

    def test_oom_survives_a_pickle_round_trip(self):
        err = pickle.loads(pickle.dumps(SimOOMError(3, 50, 60, 100)))
        assert (err.rank, err.requested, err.in_use, err.capacity) == (
            3, 50, 60, 100)
        assert str(err) == str(SimOOMError(3, 50, 60, 100))

    def test_oom_is_memory_error(self):
        t = _rank(capacity=1)
        with pytest.raises(MemoryError):
            t.alloc(2)

    def test_exact_fit_ok(self):
        t = _rank(capacity=100)
        t.alloc(100)
        assert t.in_use == t.capacity

    def test_free_releases(self):
        t = _rank(capacity=100)
        t.alloc(80)
        t.free(50)
        assert t.in_use == 30
        t.alloc(60)  # fits again
        assert t.peak == 90

    def test_free_clamps_at_zero(self):
        t = _rank()
        t.alloc(10)
        t.free(100)
        assert t.in_use == 0

    def test_negative_sizes_rejected(self):
        t = _rank()
        with pytest.raises(ValueError):
            t.alloc(-1)
        with pytest.raises(ValueError):
            t.free(-1)

    def test_zero_alloc_ok(self):
        t = _rank(capacity=0)
        t.alloc(0)
        assert t.in_use == 0

    def test_views_hand_out_python_ints(self):
        t = _rank(capacity=100)
        t.alloc(np.int64(7))
        assert all(type(v) is int for v in (t.in_use, t.peak, t.capacity))


class TestLedger:
    def test_many_ranks_refused_in_rank_order_and_the_rest_booked(self):
        mem = MemoryLedger(5, capacity=100)
        mem.alloc(3, 90)
        refused = mem.alloc(np.array([4, 1, 3, 0]), [101, 50, 20, -1])
        assert [(i, type(e).__name__, str(e)) for i, e in refused] == [
            (0, "SimOOMError", "rank 4: allocation of 101 B would exceed "
                               "capacity (0 B in use of 100 B)"),
            (2, "SimOOMError", "rank 3: allocation of 20 B would exceed "
                               "capacity (90 B in use of 100 B)"),
            (3, "ValueError", "allocation size must be non-negative")]
        assert mem.in_use.tolist() == [0, 50, 0, 90, 0]
        assert mem.peak.tolist() == [0, 50, 0, 90, 0]

    def test_frees_clamp_and_keep_peaks(self):
        mem = MemoryLedger(3)
        mem.alloc(np.array([0, 1, 2]), [10, 20, 30])
        refused = mem.free(np.array([0, 1, 2]), [25, 5, -3])
        assert [(i, str(e)) for i, e in refused] == [
            (2, "free size must be non-negative")]
        assert mem.in_use.tolist() == [0, 15, 30]
        assert mem.peak.tolist() == [10, 20, 30]

    def test_one_rank_hook_hears_new_peaks_only(self):
        mem, heard = MemoryLedger(2), []
        mem.on_peak = heard.append
        for nb in (5, 0, 3):
            mem.alloc(1, nb)
        mem.free(1, 8)
        mem.alloc(1, 8)
        assert heard == [5, 8]
