"""In-situ distributed validation — no gathering required.

The validators in :mod:`repro.metrics.validate` read every rank's
data on one host, which is fine for tests but impossible at the
paper's scale (52 TB).  This module validates the same properties the
way a production run would: O(1) boundary metadata per rank plus
order-independent checksums reduced across the communicator.

Collective call::

    report = validate_distributed(comm, my_input, my_output, stable=True)

All ranks receive the same :class:`DistributedReport`; any violation is
attributed to the first rank that observed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi import Comm
from ..records import SRC_POS, SRC_RANK, RecordBatch

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def multiset_checksum(keys: np.ndarray) -> int:
    """Order-independent 64-bit checksum of a key multiset.

    Each key is hashed individually (bit pattern through an FNV-style
    mix) and the hashes are summed mod 2^64 — commutative, so shards
    can be checksummed independently and reduced.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return 0
    if np.issubdtype(keys.dtype, np.floating):
        bits = keys.astype(np.float64).view(np.uint64)
    else:
        bits = keys.astype(np.int64).view(np.uint64)
    h = (bits ^ _FNV_OFFSET) * _FNV_PRIME
    h ^= h >> np.uint64(31)
    h *= _FNV_PRIME
    return int(h.sum(dtype=np.uint64))


@dataclass(frozen=True)
class DistributedReport:
    """Outcome of one in-situ validation (identical on every rank)."""

    ok: bool
    locally_sorted: bool
    globally_ordered: bool
    multiset_preserved: bool
    stable: bool | None            # None when stability wasn't checked
    first_bad_rank: int | None


def validate_distributed(comm: Comm, inputs: RecordBatch,
                         outputs: RecordBatch, *,
                         stable: bool = False) -> DistributedReport:
    """Validate a distributed sort without gathering any data.

    Checks, in one boundary allgather plus two scalar reductions:

    1. local sortedness of this rank's output;
    2. global order across rank boundaries (via per-rank min/max);
    3. multiset preservation (count + order-independent checksum);
    4. optionally stability (adjacent equal keys in (rank, pos) order
       locally, and across rank boundaries via the boundary metadata).
    """
    keys = outputs.keys
    local_sorted = bool(keys.size <= 1 or np.all(keys[1:] >= keys[:-1]))

    stable_local: bool | None = None
    lo_tag = hi_tag = (-1, -1)
    if stable:
        if SRC_RANK not in outputs.payload or SRC_POS not in outputs.payload:
            raise ValueError("stability validation needs provenance columns")
        ranks = outputs.payload[SRC_RANK].astype(np.int64)
        pos = outputs.payload[SRC_POS].astype(np.int64)
        if keys.size > 1:
            same = keys[1:] == keys[:-1]
            later = (ranks[1:] > ranks[:-1]) | (
                (ranks[1:] == ranks[:-1]) & (pos[1:] > pos[:-1]))
            stable_local = bool(np.all(~same | later))
        else:
            stable_local = True
        if keys.size:
            lo_tag = (int(ranks[0]), int(pos[0]))
            hi_tag = (int(ranks[-1]), int(pos[-1]))

    meta = comm.allgather({
        "n": int(keys.size),
        "min": float(keys[0]) if keys.size else None,
        "max": float(keys[-1]) if keys.size else None,
        "lo_tag": lo_tag,
        "hi_tag": hi_tag,
        "local_sorted": local_sorted,
        "stable_local": stable_local,
    })

    globally_ordered = True
    stable_global: bool | None = True if stable else None
    prev = None
    for m in meta:
        if m["n"] == 0:
            continue
        if prev is not None:
            if m["min"] < prev["max"]:
                globally_ordered = False
            elif stable and m["min"] == prev["max"]:
                if m["lo_tag"] <= prev["hi_tag"]:
                    stable_global = False
        prev = m

    count_in = comm.allreduce(len(inputs))
    count_out = comm.allreduce(len(outputs))
    sum_in = comm.allreduce(multiset_checksum(inputs.keys)) % (1 << 64)
    sum_out = comm.allreduce(multiset_checksum(outputs.keys)) % (1 << 64)
    multiset_ok = count_in == count_out and sum_in == sum_out

    all_local = all(m["local_sorted"] for m in meta)
    all_stable: bool | None = None
    if stable:
        all_stable = (all(m["stable_local"] for m in meta)
                      and bool(stable_global))

    ok = all_local and globally_ordered and multiset_ok and (
        all_stable is not False)
    first_bad = None
    if not ok:
        for r, m in enumerate(meta):
            if not m["local_sorted"] or m["stable_local"] is False:
                first_bad = r
                break
    return DistributedReport(
        ok=ok,
        locally_sorted=all_local,
        globally_ordered=globally_ordered,
        multiset_preserved=multiset_ok,
        stable=all_stable,
        first_bad_rank=first_bad,
    )
