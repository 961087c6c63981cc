"""The baselines' runs pinned to recorded values.

``test_backends`` compares thread against flat; a change to a verb both
backends share (``World.alltoallv``, the exchange epilogues) would move
both the same way and pass it.  These compare HykSort, its
secondary-key variant and radix against values recorded in
``tests/data/baseline_goldens.json``:

* every algorithm x {uniform, zipf, ptf} x p in {16, 48, 131, 256, 1024}
  on the flat engine, and at p=48 on rank threads — simulated makespan,
  phase times, failure string (HykSort's skew OOMs, radix's uniform
  OOMs) and decisions in the clear, a digest of every rank's clock,
  counters, memory peak, load and output keys (on threads only for a
  run that succeeds: how far a failed world's other ranks get before
  the abort reaches them depends on host scheduling);
* the traced run at p=48 (a digest of ``TraceReport.as_dict()``);
* the ``mixed`` fault preset at p=48 (the chaos report hash).

Re-record (only for a change that is meant to move them)::

    PYTHONPATH=src python tests/test_baseline_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro import runner
from repro.faults.chaos import run_chaos
from repro.mpi import HOST_COUNTERS
from repro.workloads import by_name

DATA = Path(__file__).parent / "data" / "baseline_goldens.json"
ALGORITHMS = ("hyksort", "hyksort-sk", "radix")
WORKLOADS = ("uniform", "zipf", "ptf")
N_PER_RANK = 64

RUNS = ([(a, w, p, "flat") for a in ALGORITHMS for w in WORKLOADS
         for p in (16, 48, 131, 256, 1024)]
        + [(a, w, 48, "thread") for a in ALGORITHMS for w in WORKLOADS])
TRACED = [(a, w) for a in ALGORITHMS for w in WORKLOADS]


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_case(algorithm: str, workload: str, p: int, backend: str) -> dict:
    """One run's pinned quantities; the engine's per-rank ledgers are
    read off the ``SpmdResult`` that ``run_sort`` summarises."""
    seen = {}
    real = runner.run_spmd

    def spy(*args, **kwargs):
        seen["res"] = res = real(*args, **kwargs)
        return res

    with mock.patch.object(runner, "run_spmd", spy):
        r = runner.run_sort(algorithm, by_name(workload), p=p,
                            n_per_rank=N_PER_RANK, backend=backend,
                            keep_outputs=True)
    res = seen["res"]
    outputs = r.outputs or []
    pinned = r.ok or backend == "flat"
    return {
        "ok": r.ok,
        "elapsed": r.elapsed,
        "failure": r.failure,
        "phase_times": r.phase_times,
        "decisions": r.extras.get("decisions"),
        "ranks": None if not pinned else _digest({
            "clocks": res.clocks,
            "counters": [{k: v for k, v in sorted(c.items())
                          if k not in HOST_COUNTERS} for c in res.counters],
            "mem_peaks": res.mem_peaks,
            "phase_times": res.phase_times,
            "loads": r.loads,
            "keys": [hashlib.sha256(b.keys.tobytes()).hexdigest()
                     for b in outputs],
        }),
    }


def traced_digest(algorithm: str, workload: str) -> str:
    r = runner.run_sort(algorithm, by_name(workload), p=48,
                        n_per_rank=N_PER_RANK, trace=True)
    return _digest(r.extras["trace"].as_dict() if r.ok else r.failure)


def chaos_hash() -> str:
    return run_chaos(p=48, n_per_rank=N_PER_RANK, seeds=[0],
                     specs=["mixed"], algorithms=ALGORITHMS,
                     backend="flat").report_hash


def _key(case) -> str:
    return "/".join(map(str, case))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("case", RUNS, ids=_key)
def test_run_matches_the_recorded_one(case, recorded):
    assert run_case(*case) == recorded["runs"][_key(case)]


@pytest.mark.parametrize("case", TRACED, ids=_key)
def test_trace_matches_the_recorded_one(case, recorded):
    assert traced_digest(*case) == recorded["traced_p48"][_key(case)]


def test_chaos_hash_matches_the_recorded_one(recorded):
    assert chaos_hash() == recorded["chaos_mixed_p48"]


def test_the_skew_failures_are_pinned(recorded):
    """The paper's HykSort OOMs and radix's value-space imbalance are
    part of what is recorded, not an accident of it."""
    runs = recorded["runs"]
    assert "SimOOMError" in runs["hyksort/ptf/48/flat"]["failure"]
    assert "SimOOMError" in runs["hyksort/zipf/1024/flat"]["failure"]
    assert "SimOOMError" in runs["radix/uniform/256/flat"]["failure"]
    assert runs["hyksort/uniform/1024/flat"]["ok"]


if __name__ == "__main__":
    table = {
        "runs": {_key(c): run_case(*c) for c in RUNS},
        "traced_p48": {_key(c): traced_digest(*c) for c in TRACED},
        "chaos_mixed_p48": chaos_hash(),
    }
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
