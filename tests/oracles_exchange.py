"""The dense p x p synchronous-exchange compute, kept verbatim as a test oracle.

This was the production ``core/exchange.py::sync_exchange_compute`` up
to PR 11: the full counts matrix ``C``, the byte matrix ``S`` and the
transposed ``(dst, src)`` start/length layouts, about ten p x p
temporaries in all.  Production now addresses only the non-empty
``(src, dst)`` cells; the dense formulation stays here so
``tests/test_exchange.py`` keeps checking the sparse one against it,
key for key (``S`` is the oracle for the per-rank traced edge rows).

``check_displs`` is the dense displacement validator production ran up
to PR 14; ``repro.core.partition.Cuts.check`` must reject exactly what
it rejects.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import natural_merge_sort_perm, sequential_argsort
from repro.mpi import Comm
from repro.records import concat_batch_arrays


def check_displs(displs: np.ndarray, p: int, n: int) -> np.ndarray:
    """Validate and canonicalise a rank's partition displacements."""
    d = np.asarray(displs, dtype=np.int64)
    if len(d) != p + 1 or d[0] != 0 or d[-1] != n:
        raise ValueError("displacements must span [0, len) with p+1 bounds")
    if np.any(np.diff(d) < 0):
        raise ValueError("displacements must be non-decreasing")
    return d


def sync_exchange_compute_dense(stage: list, *, p: int, merge: bool,
                                stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange.

    ``stage`` holds one ``((batch, displs), clock)`` deposit per rank in
    group-rank order — exactly what :meth:`Comm.staged` hands the
    designated-rank action.  Shared by the thread backend (as the
    staged collective's action) and the flat backend (called directly on
    a synthesized stage); see :func:`exchange_sync_fused` for the
    exactness audit.
    """
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    D = np.stack([e[0][1] for e in stage])            # (p, p+1) bounds
    C = np.diff(D, axis=1)                            # counts[src, dst]
    widths = np.array([b.row_nbytes for b in batches], dtype=np.int64)
    S = C * widths[:, None]                           # bytes[src, dst]
    max_send, max_recv, total, send_tot, recv_tot = \
        Comm.size_scan_matrix(S)
    all_keys, all_cols, offs = concat_batch_arrays(batches)

    # -- gather indices, destination-major in source order --
    starts = offs[:-1][None, :] + D[:, :p].T          # (dst, src)
    lens = C.T                                        # (dst, src)
    flat_lens = lens.ravel()
    N = int(offs[-1])
    excl = np.cumsum(flat_lens) - flat_lens
    G = (np.repeat(starts.ravel() - excl, flat_lens)
         + np.arange(N, dtype=np.int64))
    m_per_dst = C.sum(axis=0)
    bounds = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(m_per_dst, out=bounds[1:])

    # -- final local ordering of every destination, once --
    keys_g = all_keys[G]
    final = np.empty(N, dtype=np.int64)
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        seg = keys_g[lo:hi]
        if merge:
            perm = np.argsort(seg, kind="stable")
        elif stable:
            _, perm = natural_merge_sort_perm(seg)
        else:
            perm = sequential_argsort(seg, stable=False)
        final[lo:hi] = G[lo:hi][perm]
    return {
        "t": start,
        "max_send": max_send, "max_recv": max_recv, "total": total,
        "send_tot": send_tot, "recv_tot": recv_tot,
        "recv_all": S.sum(axis=0),                    # includes own chunk
        "S": S,                                       # bytes[src, dst]
        "m": m_per_dst,
        "keys": all_keys, "cols": all_cols,
        "final": final, "bounds": bounds,
    }
