"""Every sort driver runs on one skeleton, under one failure rule.

The drivers (SDS-Sort and the five baselines) share
:class:`repro.core.pipeline.Run`: it opens the contexts, banks finished
and failed ranks, is the ``FlatAbort`` boundary and assembles the
outcomes; a per-rank statement that may fail goes through
``World.each``.  Two checks pin that:

* a failure-shape matrix — every algorithm on both backends, under a
  lost collective and under a capacity below the input shard, fails
  with the same cause type, and nothing escapes ``run_sort``;
* an AST guard — no driver module keeps its own copy of the
  scaffolding (a ``prune`` / ``harvest`` / ``settle`` closure, a
  ``BaseException`` or ``FlatAbort`` handler, a string-keyed lane dict).
"""

from __future__ import annotations

import ast
import inspect
import re

import pytest

from repro.baselines import bitonic_full, hyksort, psrs, radix, secondary
from repro.core import sdssort
from repro.faults import FaultSpec, MessageFaults, RetryPolicy
from repro.runner import ALGORITHMS, run_sort
from repro.workloads import uniform

#: A message lost for good a third of the time: with the default
#: budget of 8 retries a p=8 world of a few collectives often survives.
LOSSY = FaultSpec(messages=MessageFaults(drop_rate=0.6),
                  retry=RetryPolicy(max_retries=1))


def _cause(failure: str) -> str:
    """``"rank 3: SimOOMError('...')"`` -> ``"SimOOMError"``."""
    match = re.match(r"rank \d+: (\w+)\(", failure)
    assert match, failure
    return match.group(1)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("fault_seed", [0, 1, 2])
def test_a_lost_collective_fails_every_driver_alike(algorithm, fault_seed):
    causes = {}
    for backend in ("thread", "flat"):
        r = run_sort(algorithm, uniform(), p=8, n_per_rank=64,
                     mem_factor=None, faults=LOSSY, fault_seed=fault_seed,
                     backend=backend)
        assert not r.ok and not r.oom, (backend, r.failure)
        causes[backend] = _cause(r.failure)
    # which rank a thread world reports for a lost collective depends on
    # host scheduling; the cause does not
    assert causes["thread"] == causes["flat"], causes


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_a_capacity_below_the_shard_fails_every_driver_alike(algorithm):
    failures = {}
    for backend in ("thread", "flat"):
        r = run_sort(algorithm, uniform(), p=8, n_per_rank=64,
                     mem_factor=0.5, backend=backend)
        assert not r.ok and r.oom, (backend, r.failure)
        failures[backend] = r.failure
    assert _cause(failures["thread"]) == _cause(failures["flat"]) \
        == "SimOOMError", failures


DRIVERS = (sdssort, psrs, hyksort, secondary, radix, bitonic_full)
SCAFFOLDING = {"prune", "harvest", "settle"}
CAUGHT = {"BaseException", "FlatAbort"}


def _offences(module) -> list[str]:
    tree = ast.parse(inspect.getsource(module))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.FunctionDef) and node is not fn
                    and node.name.lstrip("_") in SCAFFOLDING):
                found.append(f"{fn.name} defines {node.name}")
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type)
                         if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node.type)
                          if isinstance(n, ast.Attribute)}
                for name in sorted(names & CAUGHT):
                    found.append(f"{fn.name} catches {name}")
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                found.append(f"{fn.name} reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", DRIVERS, ids=lambda m: m.__name__)
def test_no_driver_keeps_its_own_run_scaffolding(module):
    assert _offences(module) == []
