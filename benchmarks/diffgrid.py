"""Bit-for-bit grid of sort runs against another commit.

    python3 benchmarks/diffgrid.py --against HEAD~ [--quick]

Runs every registered algorithm over p in {1, 3, 7, 8, 24, 50, 64, 128},
the uniform, zipf and ptf workloads, no faults and the ``crash-exchange``
and ``mixed`` presets, and ``mem_factor`` None, 6 and the default, on the
flat engine, plus a rank-thread subset.  Each run is hashed field by
field: outputs, clocks, counters, memory (peaks and what is left in
use), decisions, loads and failure shape (of a failed rank-thread run
only the failure, outputs, decisions and loads: its other ranks stop
wherever the abort finds them).  The same grid then runs on
``<rev>``, extracted with ``git archive`` into a temporary directory,
and every cell whose hashes differ is printed with the fields that
differ.  Exit status 1 when any cell differs.  No ``PYTHONPATH`` is
needed: each side runs this script with its own ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PS = (1, 3, 7, 8, 24, 50, 64, 128)
WORKLOADS = ("uniform", "zipf", "ptf")
FAULTS = (None, "crash-exchange", "mixed")
MEM = (None, 6, "default")
N_PER_RANK = (64, 200)


def grid(quick: bool) -> list[tuple]:
    """``(algorithm, workload, p, n, faults, mem, backend)`` cells."""
    from repro.runner import ALGORITHMS
    algorithms = sorted(ALGORITHMS)
    ps, ns = ((3, 8, 50), (64,)) if quick else (PS, N_PER_RANK)
    flat = itertools.product(algorithms, WORKLOADS, ps, ns, FAULTS, MEM,
                             ("flat",))
    thread = itertools.product(algorithms, ("uniform", "ptf"), (3, 8, 24),
                               (64,), (None, "mixed"), ("default",),
                               ("thread",))
    return list(flat) + ([] if quick else list(thread))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def observe(cell: tuple, spmd: list) -> dict[str, str]:
    """One cell's run, hashed field by field."""
    from repro.faults.chaos import PRESETS
    from repro.runner import run_sort
    from repro.workloads import by_name
    try:
        from repro.mpi import HOST_COUNTERS
    except ImportError:  # a revision from before the name
        HOST_COUNTERS = ("coll.sync_wait", "p2p.wait")
    algorithm, workload, p, n, faults, mem, backend = cell
    kw = {} if mem == "default" else {"mem_factor": mem}
    try:
        r = run_sort(algorithm, by_name(workload), p=p, n_per_rank=n, seed=p,
                     faults=PRESETS[faults] if faults else None, fault_seed=p,
                     backend=backend, keep_outputs=True, **kw)
    except Exception as exc:      # a raise is a failure shape too
        return {"raised": _digest(type(exc).__name__, str(exc))}
    res = spmd.pop()
    x = r.extras
    fields = {
        "failure": _digest(r.ok, r.oom, r.failure),
        "outputs": _digest(*(part for b in r.outputs or () for part in (
            str(b.keys.dtype), b.keys.tobytes(),
            *(c.tobytes() for _, c in sorted(b.payload.items())))),
            x.get("crashed_ranks")),
        "decisions": _digest(x.get("decisions")),
        "loads": _digest(r.loads, x.get("p_active"), x.get("bytes_sent"),
                         x.get("messages"), x.get("faults")),
    }
    if r.ok or backend == "flat":   # rank threads abort where they stand
        fields.update(
            clocks=_digest(r.elapsed, res.clocks, r.phase_times),
            # host seconds left out; names sorted, so that a revision
            # whose rows listed them in booking order hashes the same
            counters=_digest([sorted((k, v) for k, v in c.items()
                                     if k not in HOST_COUNTERS)
                              for c in res.counters]),
            memory=_digest(res.mem_peaks, res.world.mem.in_use.tolist()))
    return fields


def emit(quick: bool) -> dict[str, dict[str, str]]:
    """Every cell's hashes, keyed by the cell's JSON form."""
    from repro import runner
    spmd: list = []
    real = runner.run_spmd

    def spy(*args, **kwargs):
        spmd.append(real(*args, **kwargs))
        return spmd[-1]

    runner.run_spmd = spy
    out = {}
    for cell in grid(quick):
        spmd.clear()
        out[json.dumps(cell)] = observe(cell, spmd)
    return out


def side(root: Path, quick: bool) -> dict[str, dict[str, str]]:
    """:func:`emit` run by this script on the ``src/`` under ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--emit"]
    proc = subprocess.run(argv + (["--quick"] if quick else []), env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="git revision to compare with")
    ap.add_argument("--quick", action="store_true",
                    help="a small flat grid (3 values of p, n=64)")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        json.dump(emit(args.quick), sys.stdout)
        return 0
    if not args.against:
        ap.error("--against REV is required")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = side(Path(tmp), args.quick)
    mine = side(ROOT, args.quick)
    differ = 0
    for cell, fields in mine.items():
        other = theirs.get(cell, {})
        bad = sorted(k for k in fields.keys() | other.keys()
                     if fields.get(k) != other.get(k))
        if bad:
            differ += 1
            print(f"{cell}: {', '.join(bad)}")
    print(f"{len(mine)} cells against {args.against}: {differ} differing")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
