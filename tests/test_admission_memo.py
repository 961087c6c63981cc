"""Admission's load model is memoised; its values are not touched.

``estimate_job_bytes`` runs under the service's submit lock for every
job.  What it reads from the count-space model that does not depend on
the job's seed — the ``UniverseModel`` of a workload family, its cdf,
the pivot indices and cumulative counts of one ``(model, n, p)`` — is
built once, kept on the model and shared read-only; the per-seed jitter, the run walk and
the clamp run every time.  ``tests/data/admission_estimates.json`` was
generated at the commit *before* the memo (PR 20) over the grid it
names, so every estimate here is checked against the unmemoised code.
"""

import gc
import itertools
import json
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.service import JobSpec, estimate_job_bytes
from repro.simfast import UniverseModel, analytic_model_for, countspace_loads
from repro.simfast import countspace, scaling
from repro.workloads import ZIPF_UNIVERSE, by_name, synthetic, zipf

PINNED = json.loads(
    (Path(__file__).parent / "data" / "admission_estimates.json").read_text())


def _grid():
    return itertools.product(
        PINNED["workloads"], PINNED["algorithms"], PINNED["p"],
        PINNED["n_per_rank"], PINNED["seeds"])


def _spec(workload, opts, algorithm, p, n, seed, merge=True) -> JobSpec:
    off = not merge and algorithm.startswith("sds")
    return JobSpec(algorithm=algorithm, workload=workload,
                   workload_opts=opts, p=p, n_per_rank=n, seed=seed,
                   algo_opts={"node_merge_enabled": False} if off else {})


def test_pinned_grid_covers_models_and_the_fallback():
    assert [w for w, _ in PINNED["workloads"]] == [
        "uniform", "zipf", "zipf", "zipf", "ptf", "cosmology", "gaussian"]
    assert analytic_model_for(by_name("gaussian")) is None  # the 2x fallback
    assert PINNED["seeds"] == [0, 7, 2 ** 35]
    assert len(PINNED["estimates"]) == 7 * 4 * 4 * 4 * 3


def test_estimates_equal_the_unmemoised_parent():
    # the pinned grid predates the node-merge leader model: what it pins
    # is the per-rank model, SDS's with node merge off
    got = [estimate_job_bytes(_spec(w, o, a, p, n, s, merge=False))
           for (w, o), a, p, n, s in _grid()]
    assert got == PINNED["estimates"]
    # and again, now that every cache is warm
    assert [estimate_job_bytes(_spec(w, o, a, p, n, s, merge=False))
            for (w, o), a, p, n, s in _grid()] == got
    # node merge on adds the leader model: never less, the same on one node
    merged = [estimate_job_bytes(_spec(w, o, a, p, n, s))
              for (w, o), a, p, n, s in _grid()]
    assert all(m >= g for m, g in zip(merged, got))
    assert all(m == g for m, g, cell in zip(merged, got, _grid()) if cell[2] <= 24)


def test_loads_equal_a_model_built_from_scratch():
    shared = analytic_model_for(by_name("ptf"))
    for method in ("classic", "fast", "stable", "hyksort"):
        for seed in (0, 3):
            fresh = UniverseModel.point_mass(0.2802, name="ptf")
            assert np.array_equal(
                countspace_loads(shared, 1000, 32, method=method, seed=seed),
                countspace_loads(fresh, 1000, 32, method=method, seed=seed))


def test_same_name_different_meta_never_share_a_model():
    a, b = zipf(0.7), zipf(0.7000001)
    assert a.name == b.name == "zipf-0.7"
    ma, mb = analytic_model_for(a), analytic_model_for(b)
    assert ma is not mb
    assert not np.array_equal(ma.pmf, mb.pmf)
    assert analytic_model_for(zipf(0.7)) is ma
    assert analytic_model_for(zipf(0.7, universe=5000)).pmf.size == 5000
    # families that share a pmf share the model, whatever their name
    assert analytic_model_for(by_name("uniform")) \
        is analytic_model_for(by_name("graysort"))


def test_memoised_arrays_are_read_only():
    model = analytic_model_for(by_name("cosmology"))
    countspace_loads(model, 200, 16, seed=1)
    assert {200 * 16, (200, 16)} <= set(model._tables)
    for arr in (model.pmf, model.cdf, *model._tables.values()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # a caller's own model is not frozen behind its back
    assert UniverseModel.uniform(64).pmf.flags.writeable


def test_caches_are_bounded():
    assert 1 <= scaling._shared_model.cache_info().maxsize <= 8
    assert 1 <= countspace.TABLES_PER_MODEL <= 8
    model = analytic_model_for(by_name("uniform"))
    for p in range(2, 40):
        countspace_loads(model, 50, p, seed=p)
        assert len(model._tables) <= countspace.TABLES_PER_MODEL
    for k in range(12):
        analytic_model_for(zipf(0.5 + k / 100))
    info = scaling._shared_model.cache_info()
    assert info.currsize <= info.maxsize


def _numpy_bytes() -> int:
    # the shard generator keeps its own ``(alpha, universe)`` cdfs (PR 20,
    # 32 entries, admission's probe shard fills it): not this memo's
    synthetic._zipf_cdf.cache_clear()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_resident_bytes_stay_bounded_under_a_universe_sweep():
    # ``universe`` is the one array size a client chooses (through
    # ``workload_opts``).  Above the default the model is built per
    # call, as before the memo, and nothing of it may stay behind: not
    # in the model memo, not as a table, not through a table's key.
    # At or below the default, what stays is what the bounds allow.
    big = 40 * ZIPF_UNIVERSE                       # 3.2 MB an array
    shapes = [(16, 200), (128, 200), (16, 2000)]
    estimate_job_bytes(_spec("zipf", {"universe": big}, "sds", 16, 200, 0))
    tracemalloc.start()
    try:
        before = _numpy_bytes()
        for k, (p, n) in itertools.product(range(12), shapes):
            opts = {"alpha": 0.9, "universe": big + k}
            estimate_job_bytes(_spec("zipf", opts, "sds", p, n, k))
        assert _numpy_bytes() - before < big       # not one array of them
        model = analytic_model_for(zipf(0.9, universe=big))
        assert analytic_model_for(zipf(0.9, universe=big)) is not model
        alive = weakref.ref(model)
        countspace_loads(model, 200, 16, seed=1)
        del model
        assert alive() is None                     # by refcount: no cycle

        before = _numpy_bytes()
        for k, (p, n) in itertools.product(range(40), shapes):
            opts = {"alpha": 0.9, "universe": ZIPF_UNIVERSE - k}
            estimate_job_bytes(_spec("zipf", opts, "sds", p, n, k))
        models = scaling._shared_model.cache_info().maxsize
        arrays = models * (3 + countspace.TABLES_PER_MODEL)  # pmf, cdf, zipf's
        assert _numpy_bytes() - before <= arrays * 8 * ZIPF_UNIVERSE
    finally:
        tracemalloc.stop()


def test_concurrent_estimates_agree_with_serial():
    specs = [_spec(w, o, a, p, 200, seed)
             for seed, ((w, o), a, p) in enumerate(itertools.product(
                 PINNED["workloads"], ("sds", "hyksort"), (16, 128)))]
    serial = [estimate_job_bytes(s) for s in specs]
    scaling._shared_model.cache_clear()  # the threads below race to fill it
    got: dict[int, list[int]] = {}

    def estimate(k: int) -> None:
        order = specs[k:] + specs[:k]  # every thread its own order
        values = {id(s): estimate_job_bytes(s) for s in order}
        got[k] = [values[id(s)] for s in specs]

    threads = [threading.Thread(target=estimate, args=(7 * k,))
               for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert list(got.values()) == [serial] * 4
