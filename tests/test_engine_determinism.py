"""Determinism regression: virtual time is a pure function of the data.

The engine's contract is that clocks, phase times, logical counters and
sorted outputs never depend on host scheduling — rank threads race for
the GIL, arrive at barriers in arbitrary order, and (since the fused
collectives) whichever rank arrives *last* runs the designated compute
step.  These tests pin that contract at p >= 64 for both exchange
paths, including under artificial scheduling jitter that perturbs
barrier arrival order (and therefore which rank computes each
collective's shared result).

Wall-clock observability counters (``coll.sync_wait``, ``p2p.wait``)
measure *host* time and are the one deliberate exception.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import SdsParams, sds_sort
from repro.core.bitonic import bitonic_sort, bitonic_sort_rounds
from repro.machine import EDISON
from repro.mpi import HOST_COUNTERS, run_spmd
from repro.mpi.comm import Comm
from repro.records import RecordBatch, tag_provenance
from repro.workloads import uniform

from .oracles_exchange import (
    exchange_overlapped,
    lane_exchange_overlapped,
    split_for_sends,
)

#: Host-time observability counters, excluded from determinism claims.


@contextmanager
def scheduling_jitter(scale: float = 2e-4):
    """Delay every barrier entry by a pseudo-random, run-varying amount.

    Sleeping 0-6 * ``scale`` seconds before ``Comm._sync`` reshuffles
    which ranks arrive last (the designated-compute rank) and the
    interleaving of every read/deposit around the barrier — the
    adversarial schedule for the staged-collective protocol.
    """
    orig = Comm._sync

    def jittered(self, action=None):
        time.sleep(((id(object()) >> 4) + 13 * self.grank) % 7 * scale)
        return orig(self, action)

    Comm._sync = jittered
    try:
        yield
    finally:
        Comm._sync = orig


def _sort_prog(comm, n, params):
    shard = uniform().shard(n, comm.size, comm.rank, 0)
    shard = tag_provenance(shard, comm.rank)
    out = sds_sort(comm, shard, params)
    return (out.batch.keys.tobytes(),
            out.batch.payload["_src_rank"].tobytes(),
            out.batch.payload["_src_pos"].tobytes())


def _fingerprint(res):
    counters = [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
                for c in res.counters]
    return (res.clocks, res.phase_times, counters, res.mem_peaks,
            res.results)


# the overlapped (fused) path and the fused synchronous paths: kway
# merge, stable merge (stable layout collective + stable argsort) and
# stable adaptive-sort (tau_s=1 forces the natural-merge-sort branch)
PARAMS = {
    "overlapped": SdsParams(node_merge_enabled=False),
    "sync-kway": SdsParams(node_merge_enabled=False, tau_o=0),
    "sync-stable": SdsParams(node_merge_enabled=False, stable=True),
    "sync-stable-sort": SdsParams(node_merge_enabled=False, stable=True,
                                  tau_s=1),
}


@pytest.mark.parametrize("path", sorted(PARAMS))
def test_identical_runs_are_identical(path):
    a = run_spmd(_sort_prog, 64, machine=EDISON, args=(400, PARAMS[path]))
    b = run_spmd(_sort_prog, 64, machine=EDISON, args=(400, PARAMS[path]))
    assert _fingerprint(a) == _fingerprint(b)


@pytest.mark.parametrize("path", sorted(PARAMS))
def test_scheduling_jitter_changes_nothing(path):
    ref = run_spmd(_sort_prog, 64, machine=EDISON, args=(400, PARAMS[path]))
    with scheduling_jitter():
        jit = run_spmd(_sort_prog, 64, machine=EDISON,
                       args=(400, PARAMS[path]))
    assert _fingerprint(ref) == _fingerprint(jit)


def test_exchange_paths_have_identical_mem_peaks():
    """Memory-accounting audit (regression): both exchange paths charge
    the same sequence of net buffers — ``alltoallv`` allocates
    ``recv_tot`` with the own-rank diagonal excluded, matching the
    overlapped path's incremental chunk accounting — so per-rank peaks
    are identical across the overlapped, sync-kway and sync-stable
    pipelines on the same data."""
    peaks = {
        path: run_spmd(_sort_prog, 16, machine=EDISON,
                       args=(300, PARAMS[path])).mem_peaks
        for path in ("overlapped", "sync-kway", "sync-stable")
    }
    assert peaks["sync-kway"] == peaks["overlapped"]
    assert peaks["sync-stable"] == peaks["overlapped"]


def test_stable_fused_sync_non_power_of_two_p():
    """Stability validated end-to-end through the fused sync exchange
    at p=12 (non-power-of-two: gather pivot selection, uneven chunk
    matrix), on a duplicate-heavy workload — and the run is invariant
    under scheduling jitter, which reshuffles which rank computes the
    stable layout collective and the fused exchange."""
    from repro.metrics import check_sorted
    from repro.workloads import zipf

    def prog(comm):
        shard = zipf(1.3).shard(500, comm.size, comm.rank, 3)
        shard = tag_provenance(shard, comm.rank)
        out = sds_sort(comm, shard,
                       SdsParams(node_merge_enabled=False, stable=True))
        return shard, out.batch

    ref = run_spmd(prog, 12, machine=EDISON)
    assert ref.ok
    check_sorted([r[0] for r in ref.results],
                 [r[1] for r in ref.results], stable=True)
    with scheduling_jitter():
        jit = run_spmd(prog, 12, machine=EDISON)
    assert jit.clocks == ref.clocks
    assert jit.phase_times == ref.phase_times
    assert jit.mem_peaks == ref.mem_peaks
    for (sa, oa), (sb, ob) in zip(ref.results, jit.results):
        assert np.array_equal(oa.keys, ob.keys)
        assert np.array_equal(oa.payload["_src_rank"], ob.payload["_src_rank"])
        assert np.array_equal(oa.payload["_src_pos"], ob.payload["_src_pos"])


def test_fused_bitonic_matches_message_rounds():
    """Closed-form bitonic == the real sendrecv rounds, clocks included.

    Run in separate worlds (same starting clocks): the per-round float
    additions only reproduce bit-for-bit from the same absolute time.
    """

    def prog(comm, impl):
        rng = np.random.default_rng(comm.rank + 3)
        a = np.sort(rng.random(48))
        return impl(comm, a).tobytes(), comm.clock

    fused = run_spmd(prog, 16, machine=EDISON, args=(bitonic_sort,))
    rounds = run_spmd(prog, 16, machine=EDISON, args=(bitonic_sort_rounds,))
    assert fused.results == rounds.results
    assert fused.clocks == rounds.clocks


def test_fused_exchange_matches_legacy_overlapped():
    """Fused alltoallv+merge == split + alltoallv_async + event replay."""
    p, n = 8, 120

    def mk(comm):
        rng = np.random.default_rng(comm.rank + 11)
        keys = np.sort(rng.random(n))
        batch = RecordBatch(keys, {"src": np.full(n, comm.rank)})
        displs = np.arange(p + 1, dtype=np.int64) * (n // p)
        return batch, displs

    def legacy(comm):
        batch, displs = mk(comm)
        t0 = comm.clock
        out, stats = exchange_overlapped(comm, split_for_sends(batch, displs))
        return (out.keys.tobytes(), out.payload["src"].tobytes(),
                comm.clock - t0, stats)

    def fused(comm):
        batch, displs = mk(comm)
        t0 = comm.clock
        out, stats = lane_exchange_overlapped(comm, batch, displs)
        return (out.keys.tobytes(), out.payload["src"].tobytes(),
                comm.clock - t0, stats)

    a = run_spmd(legacy, p, machine=EDISON)
    b = run_spmd(fused, p, machine=EDISON)
    assert a.results == b.results
