"""The ledger's five workloads: job streams, the sim digest, the verdict.

A workload is an endless, fixed stream of sort jobs numbered by a
*global job number* ``g``.  A run with ``--seed S`` is the window of that
stream starting at ``g = S``: job ``i`` of the run is stream job
``S + i`` and sorts the dataset with data seed ``S + i``.  Everything
about a job (shape, seed, trace/fault flags) is a function of ``g``
alone, so one reference table keyed by ``(workload, g)`` pins every run
whose window it covers, whatever seed the run was started with.

The program under test only ever sees the generated spec dict — the
same wire form ``sdssort submit`` sends — never ``g`` or the workload
name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

#: Sort-document fields the simulation alone determines.  ``engine``
#: (pool sizes), ``timing`` (host wall) and ``trace`` (present only when
#: asked for) are host- or request-dependent and stay out of the digest.
DIGEST_FIELDS = ("ok", "oom", "elapsed", "rdfa", "phases", "decisions",
                 "faults", "crashed_ranks")

#: Stored digests are the first 16 hex digits of the sha256: 64 bits is
#: ample to catch a changed program and keeps the reference file small.
DIGEST_HEX = 16

_NO_MERGE = {"node_merge_enabled": False}


@dataclass(frozen=True)
class Workload:
    """One named job stream.

    ``shapes`` are served round-robin by ``g``; ``service`` routes jobs
    through a ``sdssort serve`` daemon instead of direct ``run_sort``
    calls; ``pin`` keeps the sorting process on one CPU (see README:
    the thread backend is bimodal when its rank threads straddle cores);
    ``keep_heap`` runs it with a never-trimmed glibc heap (README: the
    flat workloads' big arrays otherwise page-fault at random cost, while
    rank threads' per-thread arenas would only bloat RSS).
    """

    name: str
    why: str
    shapes: tuple[dict[str, Any], ...]
    quick_shapes: tuple[dict[str, Any], ...]
    service: bool = False
    pin: bool = True
    keep_heap: bool = True

    def cycle(self, quick: bool = False) -> tuple[dict[str, Any], ...]:
        """The shapes the stream serves round-robin."""
        return self.quick_shapes if quick else self.shapes

    def spec(self, g: int, *, quick: bool = False) -> dict[str, Any]:
        """The job spec of stream job ``g`` (JobSpec wire form)."""
        shapes = self.cycle(quick)
        spec = dict(shapes[g % len(shapes)])
        spec["seed"] = g
        if self.service:
            # every 12th job traced, every 12th under the mixed fault
            # preset: the only workload where tracer and fault hooks run
            if g % 12 == 5:
                spec["trace"] = True
            if g % 12 == 11:
                spec["faults"] = "mixed"
                spec["fault_seed"] = g
        return spec

    @property
    def min_jobs(self) -> int:
        """Fewest timed jobs a round reports, however short its budget:
        for the service one full cycle of shapes and trace/fault flags."""
        return 12 if self.service else 3

    def warmup_jobs(self, first: int, *, quick: bool = False) -> list[int]:
        """Two untimed jobs per shape, taken from the run's own window."""
        return list(range(first, first + 2 * len(self.cycle(quick))))


def _shape(algorithm: str, workload: str, p: int, n: int,
           **extra: Any) -> dict[str, Any]:
    return {"algorithm": algorithm, "workload": workload, "p": p,
            "n_per_rank": n, **extra}


_SERVICE_SHAPES = (
    # no ``backend`` field: the service default decides
    _shape("sds", "uniform", 16, 2000, algo_opts=_NO_MERGE),
    _shape("sds", "zipf", 64, 500, algo_opts=_NO_MERGE),
    _shape("sds-stable", "ptf", 32, 1000, algo_opts=_NO_MERGE),
    _shape("psrs", "uniform", 128, 200),
    _shape("hyksort", "uniform", 16, 2000),
    _shape("sds", "uniform", 128, 200, algo_opts=_NO_MERGE),
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "wide_sds",
        "p=4096 x 64 rec flat SDS, node merge on: interpreter-bound "
        "per-rank Python (ROADMAP item 2); kernels do almost nothing",
        (_shape("sds", "uniform", 4096, 64, backend="flat",
                mem_factor=None),),
        (_shape("sds", "uniform", 256, 64, backend="flat",
                mem_factor=None),)),
    Workload(
        "wide_psrs",
        "p=2048 x 64 rec flat PSRS: dense p x p sync exchange stage "
        "dominates time and memory; per-rank Python is secondary",
        (_shape("psrs", "uniform", 2048, 64, backend="flat",
                mem_factor=None),),
        (_shape("psrs", "uniform", 128, 64, backend="flat",
                mem_factor=None),)),
    Workload(
        "deep_skew",
        "p=32 x 100k rec stable SDS on duplicate-heavy ptf: numpy-bound "
        "kernels, validation, stable partition; per-rank work ~0",
        (_shape("sds-stable", "ptf", 32, 100000, backend="flat",
                algo_opts=_NO_MERGE),),
        (_shape("sds-stable", "ptf", 8, 5000, backend="flat",
                algo_opts=_NO_MERGE),)),
    Workload(
        "lane_thread",
        "p=256 x 2000 rec SDS on rank threads: LaneWorld, Comm.staged, "
        "SpmdPool, overlapped exchange - the true-concurrency oracle",
        (_shape("sds", "uniform", 256, 2000, backend="thread",
                algo_opts=_NO_MERGE),),
        (_shape("sds", "uniform", 32, 500, backend="thread",
                algo_opts=_NO_MERGE),),
        keep_heap=False),
    Workload(
        "svc_mixed",
        "closed loop, 2 connections to a 2-worker sdssort serve daemon, "
        "six small shapes: socket, admission, queue, pools, telemetry",
        _SERVICE_SHAPES,
        tuple({**s, "p": min(s["p"], 16), "n_per_rank": 200}
              for s in _SERVICE_SHAPES),
        service=True, pin=False, keep_heap=False),
)}


def sim_digest(doc: dict[str, Any]) -> str:
    """sha256 prefix of the canonical JSON of the sim-determined fields."""
    sim = {k: doc.get(k) for k in DIGEST_FIELDS}
    blob = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def verdict(spec: dict[str, Any], doc: dict[str, Any] | None,
            expected: str | None) -> tuple[str | None, str | None]:
    """Judge one finished job: ``(failure reason or None, digest)``.

    ``doc`` is the job's ``sdssort.sort`` document (``None`` when the
    job produced none).  Sortedness, multiset and stability were already
    checked by ``check_sorted`` on the sorting side — a violation raises
    there and the job arrives here without a document.
    """
    if doc is None:
        return "no result document", None
    digest = sim_digest(doc)
    if not doc.get("ok"):
        return f"not ok: {doc.get('failure')}", digest
    opts = spec.get("algo_opts") or {}
    if (spec["algorithm"] in ("sds", "sds-stable")
            and opts.get("node_merge_enabled") is False
            and not doc.get("crashed_ranks")
            and doc["rdfa"] > 4.0):
        # Theorem 1: max load <= 4N/p, i.e. max/avg <= 4
        return f"load bound violated: rdfa {doc['rdfa']:.3f} > 4", digest
    if expected is not None and digest != expected:
        return f"sim digest {digest} != reference {expected}", digest
    return None, digest
