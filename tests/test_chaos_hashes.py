"""Chaos report hashes pinned to recorded values.

The other chaos checks compare two runs (``test_faults``) or two
backends (``test_backends``); a change that moved every fault verdict
the same way on both would pass them.  These compare against hashes
recorded in ``tests/data/chaos_hashes.json``: every preset at p=64 on
both backends, ``mixed`` at p=1024 on the flat engine, and a campaign
whose collectives are lost, on the flat engine only — which rank a
thread world reports for a lost collective depends on host scheduling.

Re-record (only for a change that is meant to move them)::

    PYTHONPATH=src python tests/test_chaos_hashes.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults import FaultSpec, MessageFaults
from repro.faults.chaos import PRESETS, run_chaos
from repro.faults.report import ChaosReport

DATA = Path(__file__).parent / "data" / "chaos_hashes.json"
ALGORITHMS = ("sds", "sds-stable", "psrs", "hyksort")

#: name -> (run_chaos keywords, backends it is pinned on)
CAMPAIGNS = {
    "presets_p64": (dict(p=64, n_per_rank=128, seeds=[0],
                         algorithms=ALGORITHMS), ("flat", "thread")),
    "mixed_p1024": (dict(p=1024, n_per_rank=64, seeds=[0, 1],
                         specs=["mixed"], algorithms=ALGORITHMS[:3]),
                    ("flat",)),
    "lossy_p48": (dict(p=48, n_per_rank=64, seeds=[0, 1], specs=["lossy"],
                       algorithms=("sds", "psrs"),
                       extra_specs={"lossy": FaultSpec(
                           messages=MessageFaults(drop_rate=0.6))}),
                  ("flat",)),
}


def spec_hashes(campaign: str, backend: str) -> dict[str, str]:
    """Report hash per fault spec: each equals the hash of a
    ``run_chaos`` over that spec alone (baselines are per cell)."""
    kw, _ = CAMPAIGNS[campaign]
    rep = run_chaos(**kw, backend=backend)
    return {name: ChaosReport(rep.p, rep.n_per_rank, rep.workload,
                              rep.seeds, recs).report_hash
            for name, recs in rep.by_spec().items()}


CASES = [(c, b) for c, (_, backends) in CAMPAIGNS.items() for b in backends]


@pytest.mark.parametrize("campaign,backend", CASES)
def test_chaos_hashes_match_the_recorded_ones(campaign, backend):
    recorded = json.loads(DATA.read_text())[campaign][backend]
    assert spec_hashes(campaign, backend) == recorded


def test_every_preset_is_pinned():
    recorded = json.loads(DATA.read_text())["presets_p64"]
    for backend in CAMPAIGNS["presets_p64"][1]:
        assert set(recorded[backend]) == set(PRESETS)


if __name__ == "__main__":
    table: dict[str, dict[str, dict[str, str]]] = {}
    for c, b in CASES:
        table.setdefault(c, {})[b] = spec_hashes(c, b)
    DATA.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
