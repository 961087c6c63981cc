"""Golden-value acceptance for the engine overhaul (fused collectives).

The seed engine — per-rank reduction loops, polling barriers, real
message rounds — was run on the reference host to record virtual
clocks, phase breakdowns and sorted outputs for four configurations
(``tests/data/golden_engine.json``).  The overhauled engine must
reproduce every one of those numbers **bit-for-bit**: virtual time is
a pure function of the data, so any drift here means the optimisation
changed simulation semantics, not just wall-clock.

``p512_n2000`` is the ISSUE's acceptance configuration (the seed took
14.3-46.6 s on it depending on host; the fused engine runs it in under
a second, which is what lets this live in tier-1).

The seed cases force ``node_merge_enabled=False``.  The ``*_merge``
cases turn the node-level funnel (Section 2.3) on, on both backends,
on Edison's 24-wide nodes: a one-rank last node (p=25, whose lone rank
vetoes the merge in the consensus), a two-rank one (p=50) and a skewed
input (p=64 zipf).  They also pin ``trace_hash``:
the tracer's per-rank ``split`` / ``gather`` spans and its per-rank
counters.  Record cases that are missing from the file (never rewrite
a recorded one) with::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import SdsParams, sds_sort, sds_sort_world
from repro.machine import EDISON
from repro.mpi import ColumnarWorld, run_spmd
from repro.obs import Tracer
from repro.records import tag_provenance
from repro.workloads import uniform, zipf

DATA = Path(__file__).parent / "data" / "golden_engine.json"
GOLDEN = json.loads(DATA.read_text())

WORKLOADS = {"uniform": uniform, "zipf": zipf}

#: node-merge cases, recorded on the thread backend and pinned on both
MERGE_CASES = {
    "p25_n300_merge": dict(p=25, n_per_rank=300, workload="uniform"),
    "p50_n300_merge": dict(p=50, n_per_rank=300, workload="uniform"),
    "p64_n300_zipf_merge": dict(p=64, n_per_rank=300, workload="zipf"),
}


class _Prog:
    """The golden rank program, with both engine entry points."""

    def __init__(self, n, workload, params):
        self.n, self.workload = n, WORKLOADS[workload]()
        self.params = SdsParams(**{"node_merge_enabled": False, **params})

    def _shard(self, comm):
        shard = self.workload.shard(self.n, comm.size, comm.rank, 0)
        return tag_provenance(shard, comm.rank)

    def __call__(self, comm):
        return _summary(sds_sort(comm, self._shard(comm), self.params))

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        outs = sds_sort_world(world, comms, [self._shard(c) for c in comms],
                              self.params)
        return [None if o is None else _summary(o) for o in outs], \
            world.failures


def _summary(out):
    return float(out.batch.keys.sum()), len(out.batch)


def trace_hash(tracer: Tracer) -> str:
    """Digest of every rank's ``split`` / ``gather`` spans and counters."""
    rows = [[[s for s in spans if s[2] == "coll"
              and s[3] in ("split", "gather")], counters]
            for spans, counters in zip(tracer.rank_spans(),
                                       tracer.counters.rows())]
    blob = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_case(ref, backend="thread", traced=False):
    tracer = Tracer(ref["p"]) if traced else None
    res = run_spmd(
        _Prog(ref["n_per_rank"], ref.get("workload", "uniform"),
              ref.get("params", {})),
        ref["p"], machine=EDISON, tracer=tracer, backend=backend)
    return res, tracer


def _backends(case):
    return ("thread", "flat") if case in MERGE_CASES else ("thread",)


# tracing is purely observational: the golden gate holds with it on
@pytest.mark.parametrize("case,traced,backend", [
    pytest.param(case, traced, backend,
                 id=case + "-traced" * traced + "-flat" * (backend == "flat"))
    for case in sorted(GOLDEN) for traced in (False, True)
    for backend in _backends(case)])
def test_matches_seed_engine_exactly(case, traced, backend):
    ref = GOLDEN[case]
    res, tracer = run_case(ref, backend, traced)
    assert res.ok
    # == on float lists is exact equality — no tolerance, by design
    assert res.clocks == ref["clocks"]
    assert res.elapsed == ref["elapsed"]
    assert res.phase_breakdown() == ref["phase_breakdown"]
    assert [r[0] for r in res.results] == ref["keysums"]
    assert [r[1] for r in res.results] == ref["out_lens"]
    if traced and "trace_hash" in ref:
        assert trace_hash(tracer) == ref["trace_hash"]


def test_every_merge_case_is_recorded():
    for case in MERGE_CASES:
        ref = GOLDEN[case]
        assert ref["params"] == {"node_merge_enabled": True}
        # one leader per 24-wide node holds data, everybody else retired;
        # a node of one rank has nothing to funnel and vetoes the merge
        nodes = -(-ref["p"] // 24)
        assert sum(n > 0 for n in ref["out_lens"]) == (
            ref["p"] if ref["p"] % 24 == 1 else nodes)


if __name__ == "__main__":
    for case, shape in MERGE_CASES.items():
        if case in GOLDEN:
            continue
        ref = dict(shape, params={"node_merge_enabled": True})
        res, tracer = run_case(ref, traced=True)
        ref.update(clocks=res.clocks, elapsed=res.elapsed,
                   phase_breakdown=res.phase_breakdown(),
                   keysums=[r[0] for r in res.results],
                   out_lens=[r[1] for r in res.results],
                   trace_hash=trace_hash(tracer))
        GOLDEN[case] = ref
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n")
    print(f"wrote {DATA}")
