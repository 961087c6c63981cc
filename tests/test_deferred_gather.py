"""A rank's payload is gathered once, where it is first read: node merge
and the exchange gather from the local sort's tables, a rank that goes
on alone its own row.  Flat and thread runs must equal the path this
replaced — a per-rank ``take`` after the local sort, ``kway_merge_batches``
per node — on every simulated observable, failures included.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.faults import CrashFault, FaultSpec
from repro.machine import EDISON
from repro.mpi import HOST_COUNTERS, run_spmd
from repro.records import SRC_RANK, SortedRows, kway_merge_batches
from repro.runner import _SortProgram
from repro.workloads import Workload, cosmology, ptf, uniform


@dataclass(frozen=True)
class _Ragged(Workload):
    """Shards of ``n``, ``n - 1`` and ``n - 2`` records, by rank."""

    def shard(self, n, p, rank, seed=0):
        return super().shard(max(0, n - rank % 3), p, rank, seed)


WORKLOADS = {"uniform": uniform, "uniform2": lambda: uniform(payload_floats=2),
             "ptf": ptf, "cosmology": cosmology,
             "ragged": lambda: _Ragged("ragged", uniform().fn)}

#: ``tau_o`` 0 takes the synchronous exchange (as a stable sort always
#: does), 2**20 the overlapped one; ``tau_s`` 1 the sync sort branch.
EXCHANGES = {"sync": {"tau_o": 0}, "sync-sort": {"tau_o": 0, "tau_s": 1},
             "overlapped": {"tau_o": 1 << 20}}


def _oracle_merge(run_lists):
    def merge(runs):
        try:
            return kway_merge_batches(runs)
        except Exception as exc:
            return exc
    return [merge(runs) for runs in run_lists]


def _taking_local_sort(self, world, ctxs, _local_sort=pipeline.LocalSort.run):
    _local_sort(self, world, ctxs)
    for ctx in ctxs:
        ctx.own_batch()


def _run(algorithm, workload, n, p, opts, fault, backend, oracle=False):
    prog = _SortProgram(algorithm, WORKLOADS[workload](), n, 5, opts)
    faults = (FaultSpec(crashes=(CrashFault(rank=fault[0], phase=fault[1]),))
              .compile(p, 3) if fault and fault[1] != "open" else None)
    # a shard of 20-byte uniform records is refused at open if it is full
    capacity = (n - 1) * 20 if fault and fault[1] == "open" else None
    gathered, take = [], SortedRows.row

    def spy(rows, k):
        gathered.extend(rows.rows.payload[SRC_RANK][rows.lo + k, :1].tolist())
        return take(rows, k)

    # blocks of 16 records: one row a block from n=16 on, edges inside
    with mock.patch("repro.records.batch.BLOCK_RECORDS", 16), \
            mock.patch.object(SortedRows, "row", spy), \
            mock.patch.object(pipeline, "merge_sorted_rows", _oracle_merge
                              if oracle else pipeline.merge_sorted_rows), \
            mock.patch.object(pipeline.LocalSort, "run", _taking_local_sort
                              if oracle else pipeline.LocalSort.run):
        res = run_spmd(prog, p, machine=EDISON, check=False, backend=backend,
                       faults=faults, mem_capacity=capacity)
    outs = [None if r is None else r[1] for r in res.results]
    observed = {
        "failure": None if res.failure is None else str(res.failure),
        "clocks": res.clocks, "phase_times": res.phase_times,
        "counters": [{k: v for k, v in c.items()
                      if k not in HOST_COUNTERS}
                     for c in res.counters],
        "mem_peaks": res.mem_peaks,
        "outcomes": [o and (o.active, o.info.get("decisions"),
                            o.batch.keys.dtype.str, o.batch.keys.tolist(),
                            {k: (v.dtype.str, v.shape, v.tolist())
                             for k, v in o.batch.payload.items()})
                     for o in outs]}
    return observed, outs, sorted(gathered)


@settings(max_examples=30, deadline=None)
@given(algorithm=st.sampled_from(["sds", "sds-stable", "psrs"]),
       workload=st.sampled_from(sorted(WORKLOADS)),
       p=st.sampled_from([1, 2, 7, 13, 23, 25, 47, 49]),  # 1, primes, 24k±1
       n=st.sampled_from([1, 6, 40]), node_merge=st.booleans(),
       exchange=st.sampled_from(sorted(EXCHANGES)),
       fault=st.none() | st.tuples(st.integers(0, 48), st.sampled_from(
           ["open", "pivot_select", "exchange"])))
@example(algorithm="sds", workload="uniform2", p=25, n=40, node_merge=True,
         exchange="overlapped", fault=None)
@example(algorithm="psrs", workload="ragged", p=13, n=6, node_merge=False,
         exchange="sync", fault=(4, "exchange"))
@example(algorithm="sds", workload="ragged", p=25, n=40, node_merge=False,
         exchange="sync-sort", fault=(0, "open"))
def test_deferred_gather_equals_the_per_rank_take(algorithm, workload, p, n,
                                                  node_merge, exchange, fault):
    fault = fault and (fault[0] % p, fault[1])
    opts = ({} if algorithm == "psrs" else
            {"node_merge_enabled": node_merge, **EXCHANGES[exchange]})
    args = (algorithm, workload, n, p, opts, fault)
    want, _, _ = _run(*args, "flat", oracle=True)
    flat, outs, gathered = _run(*args, "flat")
    assert flat == want
    thread, _, thread_gathered = _run(*args, "thread")
    assert thread == want
    # only a rank that goes on alone with data gathers its own row
    alone = [r for r, o in enumerate(outs)
             if o and o.active and o.info.get("p_active") == 1 and len(o.batch)
             and not any(d["decision"] == "node_merge" and d["choice"] == "merge"
                         for d in o.info.get("decisions") or ())]
    if want["failure"] is None:
        assert gathered == thread_gathered == alone
