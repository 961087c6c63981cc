"""Cross-backend equivalence: every engine is bit-for-bit the thread one.

One suite, parametrized over the alternative execution backends — today
only ``flat``, the columnar engine: no rank threads at all, each phase
runs as one batched numpy invocation over the whole world through the
:class:`~repro.mpi.flatworld.ColumnarWorld` view of the ``World``
protocol.

None of that machinery may be observable in the results.  These tests
pin the determinism contract: virtual clocks, outputs, phase times,
deterministic counters, memory peaks, decision traces, chaos report
hashes and trace reports are identical to the thread backend — only
the host-wall counters (``coll.sync_wait``, ``p2p.wait``), which a
threadless engine never accrues (and which differ between *any* two
threaded runs), are excluded.

Because every registered algorithm is now written in world form, the
flat leg extends beyond SDS: PSRS, HykSort (plain and secondary-key),
bitonic, radix and histogram-pivot SDS all run columnar and must match
their thread twins bit-for-bit.

Backend resolution (``--backend auto``) and the eligibility report are
covered here too, as is the engine's coarse-switch hygiene.  The
removed ``proc`` / ``hybrid`` backends and the ``procs`` option must be
*rejected* at every entry point, with the remaining options listed.
"""

from __future__ import annotations

import pytest

from repro.machine import EDISON
from repro.mpi import HOST_COUNTERS, run_spmd
from repro.runner import (
    ALGORITHMS,
    eligible_backends,
    resolve_backend,
    run_sort,
)
from repro.workloads import by_name

from .test_engine_golden import GOLDEN, _Prog

#: Host-wall-clock counters, excluded from the determinism contract.

#: The alternative backends under test (thread is the reference).
BACKENDS = ("flat",)


def _strip_wall(counters):
    return [{k: v for k, v in c.items() if k not in HOST_COUNTERS}
            for c in counters]


class _FlatOnlyProg(_Prog):
    """A program whose per-rank path must never be entered."""

    def __call__(self, comm):  # pragma: no cover - must never run
        raise AssertionError("flat backend must not spawn rank threads")


def _spmd(backend, ref, prog_cls=_Prog):
    prog = prog_cls(ref["n_per_rank"], ref.get("workload", "uniform"),
                    ref.get("params", {}))
    return run_spmd(prog, ref["p"], machine=EDISON, backend=backend)


# ---------------------------------------------------------------------------
# golden equivalence (the acceptance bar: same numbers as the seed engine)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", ["p64_n2000", "p64_n2000_stable_zipf",
                                  "p256_n2000"])
def test_matches_golden(backend, case):
    ref = GOLDEN[case]
    res = _spmd(backend, ref)
    assert res.ok
    assert res.clocks == ref["clocks"]
    assert res.elapsed == ref["elapsed"]
    assert res.phase_breakdown() == ref["phase_breakdown"]
    assert [r[0] for r in res.results] == ref["keysums"]
    assert [r[1] for r in res.results] == ref["out_lens"]


def test_flat_never_spawns_rank_threads():
    res = _spmd("flat", GOLDEN["p64_n2000"], prog_cls=_FlatOnlyProg)
    assert res.ok


# ---------------------------------------------------------------------------
# full-run equivalence through the runner (counters, faults, traces)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_run_sort_equals_thread(backend):
    wl = by_name("zipf")
    kw = dict(n_per_rank=300, p=64, mem_factor=None)
    t = run_sort("sds", wl, **kw, backend="thread")
    b = run_sort("sds", wl, **kw, backend=backend)
    assert t.ok and b.ok
    assert t.elapsed == b.elapsed
    assert t.loads == b.loads
    assert t.phase_times == b.phase_times
    assert t.extras["bytes_sent"] == b.extras["bytes_sent"]
    assert t.extras["messages"] == b.extras["messages"]
    assert t.extras["decisions"] == b.extras["decisions"]
    assert t.extras["mem_peaks"] == b.extras["mem_peaks"]


#: Algorithms newly eligible for the columnar engine, with a workload
#: and options that exercise their distinctive code paths, at ``(p, n)``:
#: a fixed-strategy baseline and the iterative pivot selector run four
#: nodes wide.
CROSS_CASES = [
    ("psrs", "zipf", None, (64, 500)),
    ("hyksort", "zipf", None, (16, 200)),
    ("hyksort-sk", "zipf", None, (16, 200)),
    ("bitonic", "uniform", None, (16, 200)),
    ("radix", "staggered", None, (16, 200)),
    ("sds", "zipf", {"pivot_method": "histogram"}, (64, 500)),
]


@pytest.mark.parametrize(
    "algorithm,workload,opts,shape", CROSS_CASES,
    ids=[f"{a}-histogram" if o else a for a, _, o, _ in CROSS_CASES])
def test_flat_equals_thread_newly_eligible(algorithm, workload, opts, shape):
    p, n = shape
    kw = dict(n_per_rank=n, p=p, mem_factor=None, algo_opts=opts)
    t = run_sort(algorithm, by_name(workload), **kw, backend="thread")
    f = run_sort(algorithm, by_name(workload), **kw, backend="flat")
    assert t.ok and f.ok
    assert t.extras["engine"]["backend"] == "thread"
    assert f.extras["engine"]["backend"] == "flat"
    assert t.elapsed == f.elapsed
    assert t.loads == f.loads
    assert t.phase_times == f.phase_times
    assert t.extras["bytes_sent"] == f.extras["bytes_sent"]
    assert t.extras["messages"] == f.extras["messages"]
    assert t.extras["decisions"] == f.extras["decisions"]
    assert t.extras["mem_peaks"] == f.extras["mem_peaks"]


#: The hooks (tracer, fault plan) live once, in the ``World`` verbs both
#: backends run; what differs is the rendezvous (``Comm.staged`` between
#: rank threads, ``ColumnarWorld.collective`` over a membership, which
#: also hands out the fault verdicts).  These two tests compare whole
#: reports across it, so they cover every algorithm
#: with a world form, both exchanges (``sds`` overlaps at these widths,
#: ``tau_o=0`` and the others synchronise), a sub-node world, one node
#: plus one rank and a power of two.
HOOKED_ALGORITHMS = ("sds", "sds-stable", "psrs", "hyksort")
HOOKED_WORLD_SIZES = (3, 25, 64)


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_hash_is_backend_invariant(backend):
    from repro.faults.chaos import run_chaos
    for p in HOOKED_WORLD_SIZES:
        kw = dict(p=p, n_per_rank=128, seeds=[0],
                  specs=["drop", "mixed", "crash-exchange"],
                  algorithms=HOOKED_ALGORITHMS)
        rt = run_chaos(**kw)
        rb = run_chaos(**kw, backend=backend)
        assert rt.report_hash == rb.report_hash, p


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_report_is_backend_invariant(backend):
    wl = by_name("uniform")
    for algorithm, opts in [(a, {}) for a in HOOKED_ALGORITHMS] + [
            ("sds", {"tau_o": 0})]:
        for p in HOOKED_WORLD_SIZES:
            kw = dict(n_per_rank=200, p=p, mem_factor=None, trace=True,
                      algo_opts=opts)
            t = run_sort(algorithm, wl, **kw, backend="thread")
            b = run_sort(algorithm, wl, **kw, backend=backend)
            # as_dict() leaves the host-wall counters out itself
            assert t.extras["trace"].as_dict() == \
                b.extras["trace"].as_dict(), (algorithm, opts, p)


@pytest.mark.parametrize("backend", BACKENDS)
def test_failure_surfaces_identically(backend):
    # Simultaneous multi-rank OOM: *which* rank records its failure
    # before siblings unwind is host-scheduling dependent on the
    # thread backend (the flat ordering is deterministic — ranks
    # fail in collective order), so the cross-backend contract covers
    # the failure's kind and shape, not the reporting rank.
    wl = by_name("uniform")
    kw = dict(n_per_rank=500, p=64, mem_factor=1.0)
    t = run_sort("sds", wl, **kw, backend="thread")
    b = run_sort("sds", wl, **kw, backend=backend)
    assert not t.ok and not b.ok
    assert t.oom and b.oom
    assert "SimOOMError" in t.failure and "SimOOMError" in b.failure
    assert "would exceed capacity" in b.failure


def _raising_workload(bad_ranks):
    from repro.workloads import Workload, uniform

    class Raising(Workload):
        def shard(self, n, p, rank, seed=0):
            if rank in bad_ranks and n == 50:  # not run_sort's probe
                raise RuntimeError("generator blew up")
            return super().shard(n, p, rank, seed)

    return Raising("bad", uniform().fn)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad_ranks", [(5,), (2, 5, 6)])
def test_raising_shard_generator_fails_identically(backend, bad_ranks):
    # a rank whose shard generator raises is a failed rank on every
    # backend — the flat engine used to let the exception escape
    from repro.runner import _SortProgram

    wl = _raising_workload(bad_ranks)
    kw = dict(n_per_rank=50, p=8, mem_factor=None)
    for be in ("thread", backend):
        res = run_sort("sds", wl, **kw, backend=be)
        assert not res.ok and not res.oom, be
        assert res.failure == (f"rank {bad_ranks[0]}: "
                               "RuntimeError('generator blew up')"), be
        # every raising rank is on the ledger, lowest first
        spmd = run_spmd(_SortProgram("sds", wl, 50, 0, {}), 8,
                        machine=EDISON, check=False, backend=be)
        assert spmd.failure.ranks == bad_ranks, be
        assert all(isinstance(e, RuntimeError)
                   for _, e in spmd.failure.failures), be


def test_raising_shard_generator_fails_the_service_job():
    from repro.service import JobSpec, SortService
    from repro.workloads import Workload

    shard = Workload.shard

    def bad_shard(self, n, p, rank, seed=0):
        if rank == 5 and n == 50:
            raise RuntimeError("generator blew up")
        return shard(self, n, p, rank, seed)

    for backend in ("thread", "flat"):
        svc = SortService(workers=1)
        try:
            Workload.shard = bad_shard
            job = svc.submit(JobSpec(p=8, n_per_rank=50, backend=backend,
                                     mem_factor=None))
            svc.wait(job.id, timeout=30)
            assert job.status == "failed", backend
            assert "generator blew up" in (job.error or ""), backend
        finally:
            Workload.shard = shard
            svc.close()


# ---------------------------------------------------------------------------
# extras metadata
# ---------------------------------------------------------------------------

def test_extras_report_backend_topology():
    ref = GOLDEN["p64_n2000"]
    t = run_spmd(_Prog(ref["n_per_rank"], "uniform", ref.get("params", {})),
                 64, machine=EDISON)
    assert t.extras["backend"] == "thread"
    assert t.extras["workers"] == 1
    assert t.extras["shards"] == [[0, 64]]
    assert t.extras["coarse_switch"] is True
    f = _spmd("flat", ref)
    assert f.extras["backend"] == "flat"
    assert f.extras["workers"] == 0
    assert f.extras["pool_threads"] == 0
    assert f.extras["shards"] == [[0, 64]]
    assert f.extras["coarse_switch"] is False


def test_flat_requires_flat_run():
    with pytest.raises(TypeError, match="flat_run"):
        run_spmd(lambda comm: None, 2, backend="flat")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_spmd(lambda comm: None, 2, backend="mpi")


# ---------------------------------------------------------------------------
# the removed ``proc`` / ``hybrid`` backends and the ``procs`` option: typed
# rejection at every entry point, with the remaining options listed (never
# a silent default)
# ---------------------------------------------------------------------------

REMOVED_BACKENDS = ("proc", "hybrid")


def test_removed_proc_rejected_by_engine_and_runner():
    for name in REMOVED_BACKENDS:
        with pytest.raises(
                ValueError,
                match=rf"unknown backend '{name}'.*'thread', 'flat'$"):
            run_spmd(lambda comm: None, 2, backend=name)
        with pytest.raises(
                ValueError,
                match=rf"unknown backend '{name}'.*'thread', 'flat', 'auto'$"):
            run_sort("sds", by_name("uniform"), n_per_rank=10, p=2,
                     backend=name)
    with pytest.raises(TypeError, match="procs"):
        run_spmd(lambda comm: None, 2, procs=2)
    with pytest.raises(TypeError, match="procs"):
        run_sort("sds", by_name("uniform"), n_per_rank=10, p=2, procs=2)


def test_removed_proc_rejected_by_jobspec_and_daemon():
    import io
    import json

    from repro.service import JobSpec, JobValidationError, SortService
    from repro.service.daemon import serve_stdio

    for name in REMOVED_BACKENDS:
        with pytest.raises(
                JobValidationError,
                match=rf"unknown backend '{name}'.*'thread', 'flat', 'auto'"):
            JobSpec.from_dict({"backend": name})
    with pytest.raises(JobValidationError,
                       match=r"unknown job fields: \['procs'\]"):
        JobSpec.from_dict({"procs": 2})

    # the same specs on the wire: typed ``invalid`` rejections that
    # commit no admission budget
    bad = [{"procs": 2}, *({"backend": name} for name in REMOVED_BACKENDS)]
    requests = [*({"op": "submit", "spec": {"p": 4, "n_per_rank": 50, **b}}
                  for b in bad),
                {"op": "stats"}]
    wfile = io.StringIO()
    serve_stdio(SortService(workers=1),
                io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
                wfile)
    *submitted, stats = map(json.loads, wfile.getvalue().splitlines())
    assert stats["ok"] and len(submitted) == len(bad)
    for reply, word in zip(submitted, ("procs", *REMOVED_BACKENDS)):
        assert reply["ok"]
        assert reply["job"]["status"] == "rejected"
        assert reply["job"]["admission"]["code"] == "invalid"
        assert word in reply["job"]["error"]
    assert stats["stats"]["counts"]["rejected"] == len(bad)
    assert stats["stats"]["admission"]["committed_bytes"] == 0


@pytest.mark.parametrize("argv", [["sort", "--backend", "proc"],
                                  ["sort", "--procs", "2"],
                                  ["chaos", "--backend", "proc"],
                                  ["sort", "--backend", "hybrid"],
                                  ["submit", "--socket", "none",
                                   "--backend", "hybrid"],
                                  ["serve", "--cold-pools"],
                                  ["serve", "--max-pools", "8"]])
def test_removed_proc_rejected_by_cli(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert argv[-1] in err and ("invalid choice" in err
                                or "unrecognized arguments" in err)


# ---------------------------------------------------------------------------
# pre-start cancellation: one check serves every backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 8])
@pytest.mark.parametrize("backend", ["thread", "flat"])
def test_cancel_before_start_is_honoured(backend, p):
    import threading

    class _Sink:
        def __init__(self):
            self.worlds = []

        def record_world(self, **kw):
            self.worlds.append(kw)

        def record_run(self, **kw):
            pass

    cancel = threading.Event()
    cancel.set()
    sink = _Sink()
    r = run_sort("sds", by_name("uniform"), n_per_rank=200, p=p,
                 mem_factor=None, backend=backend, cancel=cancel,
                 metrics=sink)
    assert r.ok is False and not r.oom
    assert "RunCancelled" in r.failure
    executing = "flat" if backend == "flat" and p > 1 else "thread"
    assert sink.worlds == [{"backend": executing, "p": p, "cancelled": True}]


# ---------------------------------------------------------------------------
# backend resolution (--backend auto) and eligibility
# ---------------------------------------------------------------------------

def test_resolve_backend_auto_routes_every_algorithm_to_flat():
    # every registered algorithm is written in world form, so auto
    # always picks the columnar engine
    for algorithm in ALGORITHMS:
        resolved, reason = resolve_backend("auto", algorithm)
        assert resolved == "flat", algorithm
        assert "batched" in reason


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("mpi", "sds")


def test_eligible_backends_per_algorithm():
    for algorithm in ALGORITHMS:
        assert eligible_backends(algorithm) == ["thread", "flat"]


def test_run_sort_auto_records_resolution():
    wl = by_name("uniform")
    kw = dict(n_per_rank=100, p=32, mem_factor=None)
    a = run_sort("sds", wl, **kw, backend="auto")
    assert a.ok
    assert a.extras["engine"]["backend"] == "flat"
    assert a.extras["backend"] == {
        "requested": "auto", "resolved": "flat",
        "reason": a.extras["backend"]["reason"],
        "eligible": ["thread", "flat"]}
    t = run_sort("sds", wl, **kw, backend="thread")
    assert t.extras["backend"]["requested"] == "thread"
    assert t.extras["backend"]["resolved"] == "thread"
    assert t.extras["backend"]["reason"] == "explicitly requested"
    assert a.elapsed == t.elapsed  # auto's flat run is still bit-equal


def test_run_sort_auto_routes_psrs_to_flat():
    wl = by_name("zipf")
    kw = dict(n_per_rank=150, p=16, mem_factor=None)
    a = run_sort("psrs", wl, **kw, backend="auto")
    assert a.ok
    assert a.extras["engine"]["backend"] == "flat"
    assert a.extras["backend"]["resolved"] == "flat"
    assert a.extras["backend"]["eligible"] == ["thread", "flat"]
    t = run_sort("psrs", wl, **kw, backend="thread")
    assert a.elapsed == t.elapsed


# ---------------------------------------------------------------------------
# engine hygiene satellites
# ---------------------------------------------------------------------------

def test_coarse_switch_refcount_restores_interval():
    import sys
    from repro.mpi.engine import _coarse_enter, _coarse_exit
    before = sys.getswitchinterval()
    _coarse_enter()
    _coarse_enter()  # nested (two pools running concurrently)
    assert sys.getswitchinterval() >= 0.045
    _coarse_exit()
    assert sys.getswitchinterval() >= 0.045  # still held by outer
    _coarse_exit()
    assert sys.getswitchinterval() == before
