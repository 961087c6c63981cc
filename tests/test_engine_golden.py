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
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import SdsParams, sds_sort
from repro.machine import EDISON
from repro.mpi import run_spmd
from repro.obs import Tracer
from repro.records import tag_provenance
from repro.workloads import uniform, zipf

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_engine.json").read_text())

WORKLOADS = {"uniform": uniform, "zipf": zipf}


def _prog(comm, n, workload, params):
    shard = WORKLOADS[workload]().shard(n, comm.size, comm.rank, 0)
    shard = tag_provenance(shard, comm.rank)
    out = sds_sort(comm, shard,
                   SdsParams(node_merge_enabled=False, **params))
    return float(out.batch.keys.sum()), len(out.batch)


# tracing is purely observational: the golden gate holds with it on
@pytest.mark.parametrize("case,traced", [
    pytest.param(case, traced, id=case + "-traced" * traced)
    for case in sorted(GOLDEN) for traced in (False, True)])
def test_matches_seed_engine_exactly(case, traced):
    ref = GOLDEN[case]
    res = run_spmd(
        _prog, ref["p"], machine=EDISON,
        args=(ref["n_per_rank"], ref.get("workload", "uniform"),
              ref.get("params", {})),
        tracer=Tracer(ref["p"]) if traced else None,
    )
    assert res.ok
    # == on float lists is exact equality — no tolerance, by design
    assert res.clocks == ref["clocks"]
    assert res.elapsed == ref["elapsed"]
    assert res.phase_breakdown() == ref["phase_breakdown"]
    assert [r[0] for r in res.results] == ref["keysums"]
    assert [r[1] for r in res.results] == ref["out_lens"]
