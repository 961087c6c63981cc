"""Direct-call probes: one layer at a time, outside any job.

Each probe calls a module's public function on inputs shaped like a
workload's and returns ``{metric: value}``.  They run only in a traced
run, after the timed jobs, so nothing here touches an end-to-end number.
"""

from __future__ import annotations

import cProfile
import statistics
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from repro.core.partition import (
    partition_fast,
    partition_stable_arrays,
    run_dup_counts,
)
from repro.kernels import batched_argsort_rows, kway_merge, sequential_sort
from repro.workloads import by_name

from spans import direct_run_sort


def _median_ns(fn: Callable[[], Any], reps: int) -> float:
    """Median wall ns of ``fn()`` over ``reps`` calls (after one warm call)."""
    fn()
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


def kernel_probes(seed: int, *, quick: bool = False) -> dict[str, float]:
    """Kernels and partitions on ``deep_skew``- and ``wide_sds``-shaped arrays.

    Deep: one rank's 100k duplicate-heavy ptf keys (sort, stable sort,
    the 32-run merge a rank does after the exchange, both skew-aware
    partitions against 31 regular-sample pivots).  Wide: the 4096 x 64
    stack ``LocalSort`` argsorts in one call.
    """
    n, p, wide = (5000, 8, 256) if quick else (100_000, 32, 4096)
    reps = 3 if quick else 5
    keys = by_name("ptf").shard(n, p, 0, seed).keys
    sorted_keys = np.sort(keys, kind="stable")
    runs = [np.sort(c) for c in np.array_split(keys, p)]
    pivots = sorted_keys[(np.arange(1, p) * n) // p]
    counts = run_dup_counts(sorted_keys, pivots)
    rows = by_name("uniform").shard(wide * 64, 1, 0, seed).keys.reshape(wide, 64)
    return {
        "kernels.sort_ns_per_rec":
            _median_ns(lambda: sequential_sort(keys), reps) / n,
        "kernels.stable_sort_ns_per_rec":
            _median_ns(lambda: sequential_sort(keys, stable=True), reps) / n,
        "kernels.kway_merge_ns_per_rec":
            _median_ns(lambda: kway_merge(runs), reps) / n,
        "kernels.batched_argsort_ns_per_rec":
            _median_ns(lambda: batched_argsort_rows(rows), reps) / rows.size,
        "core.partition_fast_us":
            _median_ns(lambda: partition_fast(sorted_keys, pivots),
                       5 * reps) / 1e3,
        # every rank holding this shard's duplicate counts: rank 5 of p
        "core.partition_stable_us":
            _median_ns(lambda: partition_stable_arrays(
                sorted_keys, pivots, 5 * counts, p * counts), 5 * reps) / 1e3,
    }


def py_calls_per_rank(spec: dict[str, Any]) -> float:
    """Python-level calls cProfile counts in one ``run_sort``, per rank.

    An exact count on the single-threaded flat backend (it repeats
    bit-for-bit for the same spec); cProfile does not follow rank
    threads, so the thread backend is not probed.  Summed per code
    object: ``pstats.Stats.total_calls`` keys functions by (file, line,
    name), under which every dataclass-generated ``__init__`` is the same
    ``<string>:2`` entry and all but one are dropped — which one depends
    on import order (README, "traps").
    """
    prof = cProfile.Profile()
    prof.enable()
    direct_run_sort(spec)
    prof.disable()
    return sum(entry.callcount for entry in prof.getstats()) / spec["p"]


def service_probes(specs: list[dict[str, Any]]) -> dict[str, float]:
    """The service's per-job functions called directly, once per shape.

    Medians over the shapes of: ``JobSpec.from_dict``, ``estimate_job_bytes``,
    ``AdmissionController.admit`` + ``release``, ``jsondoc.sort_doc``; and
    the admission model's slack — its per-rank estimate over the heaviest
    rank's recorded peak from a direct run of the same spec.
    """
    from repro.service.admission import AdmissionController, estimate_job_bytes
    from repro.service.jsondoc import sort_doc
    from repro.service.spec import JobSpec

    gate = AdmissionController()

    def admit_release(job: JobSpec) -> None:
        gate.release(gate.admit(job, queue_depth=0))

    parse, estimate, admit, doc, slack = [], [], [], [], []
    for spec in specs:
        job = JobSpec.from_dict(spec)
        result = job.run()
        parse.append(_median_ns(lambda: JobSpec.from_dict(spec), 5))
        estimate.append(_median_ns(lambda: estimate_job_bytes(job), 5))
        admit.append(_median_ns(lambda: admit_release(job), 5))
        doc.append(_median_ns(lambda: sort_doc(
            result, machine=job.machine, seed=job.seed), 5))
        slack.append(estimate_job_bytes(job)
                     / (job.p * max(result.extras["mem_peaks"])))
    return {
        "service.spec_parse_us": statistics.median(parse) / 1e3,
        "service.estimate_bytes_us": statistics.median(estimate) / 1e3,
        "service.admission_us": statistics.median(admit) / 1e3,
        "service.sort_doc_us": statistics.median(doc) / 1e3,
        "service.admission_slack_ratio": statistics.median(slack),
    }
