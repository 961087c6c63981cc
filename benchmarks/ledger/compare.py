"""Compare two ledger result files: ``compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the change; both come from
``run.py --out`` (``--repeat K`` gives each side K runs).  Anything that
means *a different program was timed* — a sim digest that differs for
the same stream job, or more failed jobs — is reported first and makes
the exit code non-zero.  Then one row per workload x end-to-end metric:
both medians, the ratio B/A, the bound from ``BENCHMARK.json`` and a
verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` not worse, but either side's run-to-run spread (IQR over
  median) is wider than the bound — unless every run of B beats every
  run of A, which is ``better``;
* ``better``     B's median beats A's by more than both sides' spread;
* ``same``       otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def _by_workload(doc: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    out: dict[str, list[dict[str, Any]]] = {}
    for run in doc["runs"]:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def spread(values: list[float]) -> float:
    """Run-to-run spread as the acceptance driver takes it: IQR / median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def integrity(a: dict[str, list], b: dict[str, list]) -> list[str]:
    """Digest differences and raised failure fractions, workload by workload."""
    findings = []
    for workload in sorted(set(a) & set(b)):
        da = {g: d for run in a[workload] for g, d in run["digests"].items()}
        db = {g: d for run in b[workload] for g, d in run["digests"].items()}
        diff = sorted((g for g in set(da) & set(db) if da[g] != db[g]),
                      key=int)
        if diff:
            findings.append(
                f"{workload}: sim digest differs on {len(diff)} of "
                f"{len(set(da) & set(db))} shared jobs (first: job {diff[0]} "
                f"{da[diff[0]]} -> {db[diff[0]]})")

        def fail_frac(runs: list[dict[str, Any]]) -> float:
            return (sum(r["result"]["failed"] for r in runs)
                    / sum(r["result"]["attempted"] for r in runs))

        if fail_frac(b[workload]) > fail_frac(a[workload]):
            findings.append(
                f"{workload}: job_fail_frac rose "
                f"{fail_frac(a[workload]):.4f} -> {fail_frac(b[workload]):.4f}")
    return findings


def verdict(va: list[float], vb: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """``(B/A, verdict)`` for one metric on one workload."""
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma
    noise = max(spread(va), spread(vb))
    all_beat = (max(vb) < min(va)) if better == "lower" else (min(vb) > max(va))
    if worse_by > bound:
        word = "worse"
    elif noise > bound:
        word = "better" if all_beat else "unresolved"
    elif worse_by < -noise and worse_by < 0:
        word = "better"
    else:
        word = "same"
    return mb / ma, word


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[0])
    a, b = (_by_workload(json.loads(Path(p).read_text())) for p in argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    findings = integrity(a, b)
    for line in findings:
        print("DIFFERENT PROGRAM:", line)
    print(f"{'workload':<12} {'metric':<14} {'A':>10} {'B':>10} "
          f"{'B/A':>7} {'bound':>6}  verdict   (runs A/B)")
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            va, vb = ([r["result"]["metrics"][m["name"]]["value"]
                       for r in side[workload]] for side in (a, b))
            ratio, word = verdict(va, vb, m["better"], m["bound"])
            print(f"{workload:<12} {m['name']:<14} "
                  f"{statistics.median(va):>10.4g} "
                  f"{statistics.median(vb):>10.4g} {ratio:>7.3f} "
                  f"{m['bound']:>6.2f}  {word:<10}({len(va)}/{len(vb)}) "
                  f"[{m['unit']}, {m['better']} is better; base A]")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
