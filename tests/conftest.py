"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import LAPTOP, MachineSpec
from repro.mpi import engine, run_spmd


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def machine() -> MachineSpec:
    return LAPTOP


@pytest.fixture
def fresh_pool(monkeypatch):
    """The engine's default pool, reset: the test's first ``thread`` run
    builds it (read it as ``engine._default_pool``), and it is shut
    down after the test, when the process's own pool comes back."""
    monkeypatch.setattr(engine, "_default_pool", None)
    yield
    if engine._default_pool is not None:
        engine._default_pool.shutdown()


def spmd(fn, p, **kwargs):
    """Run a rank program and return per-rank results."""
    return run_spmd(fn, p, **kwargs).results
