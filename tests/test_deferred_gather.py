"""A rank's payload is gathered once, where it is first read.

The local sort leaves every rank a :class:`~repro.records.SortedRows`
(input, permutation, sorted keys); node merge gathers each node's
payload from its members' inputs through the composed permutation, and
every other rank gathers its own at its first payload read.  The
oracle is the path this replaced: a per-rank ``take`` in the local sort
and ``kway_merge_batches`` of the members' sorted batches.  Flat and
thread runs must both equal it on every simulated observable, and the
only ranks that gather their own payload are the ones that go on to
the exchange without a node merge.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.faults import CrashFault, FaultSpec
from repro.machine import EDISON
from repro.mpi import run_spmd
from repro.records import SRC_RANK, SortedRows, kway_merge_batches
from repro.runner import _SortProgram
from repro.workloads import cosmology, ptf, uniform

WORKLOADS = {"uniform": uniform, "uniform2": lambda: uniform(payload_floats=2),
             "ptf": ptf, "cosmology": cosmology}


def _oracle_merge(run_lists):
    out = []
    for runs in run_lists:
        try:
            out.append(kway_merge_batches(runs))
        except Exception as exc:
            out.append(exc)
    return out


def _run(algorithm, workload, n, p, node_merge, crash, backend, oracle=False):
    prog = _SortProgram(algorithm, WORKLOADS[workload](), n, 5,
                        {"node_merge_enabled": node_merge})
    faults = (FaultSpec(crashes=(CrashFault(rank=crash,
                                            phase="pivot_select"),))
              .compile(p, 3) if crash is not None else None)
    gathered: list[int] = []
    take = SortedRows.batch

    def spy(rows):
        gathered.append(int(rows.rows.payload[SRC_RANK][0]))
        return take(rows)

    with mock.patch.object(SortedRows, "batch", spy):
        if oracle:  # the replaced path: per-rank take, per-node merge
            with mock.patch.object(pipeline, "SortedRows",
                                   lambda rows, perm, keys:
                                   rows.take(perm, keys=keys)), \
                    mock.patch.object(pipeline, "merge_sorted_rows",
                                      _oracle_merge):
                res = run_spmd(prog, p, machine=EDISON, check=False,
                               backend=backend, faults=faults)
        else:
            res = run_spmd(prog, p, machine=EDISON, check=False,
                           backend=backend, faults=faults)
    assert res.failure is None, res.failure
    outcomes = [r[1] for r in res.results]
    observed = {
        "clocks": res.clocks, "phase_times": res.phase_times,
        "counters": [{k: v for k, v in c.items()
                      if k not in ("coll.sync_wait", "p2p.wait")}
                     for c in res.counters],
        "mem_peaks": res.mem_peaks,
        "active": [o.active for o in outcomes],
        "decisions": [o.info.get("decisions") for o in outcomes],
        "keys": [(o.batch.keys.dtype.str, o.batch.keys.tolist())
                 for o in outcomes],
        "payload": [{k: (v.dtype.str, v.shape, v.tolist())
                     for k, v in o.batch.payload.items()} for o in outcomes],
    }
    return observed, outcomes, sorted(gathered)


@settings(max_examples=12, deadline=None)
@given(algorithm=st.sampled_from(["sds", "sds-stable"]),
       workload=st.sampled_from(sorted(WORKLOADS)),
       p=st.sampled_from([1, 7, 25, 48]), n=st.sampled_from([1, 6, 40]),
       node_merge=st.booleans(), crash=st.none() | st.integers(0, 47))
@example(algorithm="sds", workload="uniform2", p=25, n=40, node_merge=True,
         crash=None)
@example(algorithm="sds-stable", workload="ptf", p=7, n=6, node_merge=False,
         crash=None)
@example(algorithm="sds", workload="cosmology", p=48, n=6, node_merge=False,
         crash=5)
def test_deferred_gather_equals_the_per_rank_take(algorithm, workload, p, n,
                                                  node_merge, crash):
    crash = None if crash is None else crash % p
    args = (algorithm, workload, n, p, node_merge, crash)
    want, _, _ = _run(*args, "flat", oracle=True)
    flat, outcomes, gathered = _run(*args, "flat")
    assert flat == want
    thread, _, thread_gathered = _run(*args, "thread")
    assert thread == want
    # a crash victim frees and leaves without a gather; so does every
    # rank that handed its data to a node leader, and a leader merges
    # its node straight from the members' inputs
    merged = any(o.info.get("node_merged") for o in outcomes) or any(
        d["decision"] == "node_merge" and d["choice"] == "merge"
        for o in outcomes for d in o.info.get("decisions") or ())
    expected = [] if merged else [r for r, o in enumerate(outcomes)
                                  if o.active]
    assert gathered == thread_gathered == expected
