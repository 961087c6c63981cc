"""Thread and flat runs are one, on random shapes.

A hypothesis differential over the registered algorithms, workloads
(the lockstep draw and the generator route, payload columns included),
world sizes (1, primes, non-multiples of 24), shard lengths (empty,
one record, fewer records than ranks, past the lockstep bound), node
merge and memory capacity.  Both backends must agree on every simulated
observable — outputs byte for byte, clocks, phase times, counters,
memory peaks and decisions — and a run that completes must validate
from either backend's inputs: the flat world's tables and the rank
threads' batches.  A run fails on both or neither; ranks that fail in
one step all fail on the flat engine, while a rank thread may be
unwound by a peer's failure first, so the threads' failures are some of
the flat run's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import EDISON
from repro.metrics import check_sorted
from repro.mpi import run_spmd
from repro.records import RecordBatch
from repro.runner import ALGORITHMS, _SortProgram
from repro.workloads import Workload, by_name

from .test_world_forms import _assert_same, _observed_bytes, _run


@settings(max_examples=80, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)),
       workload=st.sampled_from(["uniform", "zipf", "ptf", "cosmology"]),
       p=st.sampled_from([1, 2, 3, 7, 13, 23, 25, 29, 47]),
       n=st.sampled_from([0, 1, 5, 40, 97, 130]),
       node_merge=st.booleans(),
       mem_factor=st.sampled_from([None, 1.5, 3.0, 6.7]))
def test_thread_and_flat_runs_are_one(algorithm, workload, p, n, node_merge,
                                      mem_factor):
    wl = by_name(workload)
    opts = ({"node_merge_enabled": node_merge}
            if algorithm.startswith("sds") else {})
    record_bytes = wl.shard(max(1, min(n, 64)), p, 0, 3).record_bytes + 12
    capacity = (None if mem_factor is None
                else int(mem_factor * n * record_bytes))
    runs = {backend: _run(algorithm, wl, n, p, backend, opts=opts,
                          capacity=capacity)
            for backend in ("flat", "thread")}
    flat, thread = (_observed_bytes(res) for res in runs.values())
    if flat["failure"] or thread["failure"]:
        assert set(thread["failure"] or [None]) <= set(flat["failure"] or [])
        return
    _assert_same(flat, thread, f"{algorithm} {workload} p={p} n={n}")
    for res in runs.values():
        if res.failure is None:
            check_sorted([r[0] for r in res.results],
                         [r[1].batch for r in res.results],
                         stable=ALGORITHMS[algorithm].stable)


def _raises_on_a_low_first_draw(n, rng):
    u = rng.random(n)
    if u[0] < 0.3:
        raise RuntimeError("generator blew up")
    return RecordBatch(u)


def test_a_generator_raising_inside_a_block_fails_its_own_ranks():
    # the re-seated generator route: the ranks drawn before the raising
    # one keep their rows, the rest of the block goes rank by rank, and
    # exactly the raising ranks fail, as on rank threads
    prog = _SortProgram("sds", Workload("raises", _raises_on_a_low_first_draw),
                        100, 0, {})
    failed = {backend: run_spmd(prog, 16, machine=EDISON, check=False,
                                backend=backend).failure.ranks
              for backend in ("flat", "thread")}
    assert failed["flat"] == failed["thread"]
    assert 0 < len(failed["flat"]) < 16 and failed["flat"][0] > 0
