"""Earlier generations of the exchange, kept verbatim as test oracles.

**The dense p x p synchronous-exchange compute.**

This was the production ``core/exchange.py::sync_exchange_compute`` up
to PR 11: the full counts matrix ``C``, the byte matrix ``S`` and the
transposed ``(dst, src)`` start/length layouts, about ten p x p
temporaries in all.  Production now addresses only the non-empty
``(src, dst)`` cells; the dense formulation stays here so
``tests/test_exchange.py`` keeps checking the sparse one against it,
key for key (``S`` is the oracle for the per-rank traced edge rows).

``check_displs`` is the dense displacement validator production ran
before the cell-sparse cuts; ``repro.mpi.Cuts.check`` must reject
exactly what it rejects.

**The dense collectives** — :func:`alltoallv_dense` (``p`` send batches
a rank, a p x p size-matrix scan, a p-long received list) and
:func:`alltoallv_async_dense` (the same data movement plus the ring
arrival schedule of the derated async bandwidth model).  They were
``Comm.alltoallv`` / ``Comm.alltoallv_async`` until the cell-sparse
``World.alltoallv`` replaced them; rebuilt here on the public
:meth:`Comm.staged`, they are the reference its accounting — clocks,
counters, memory, traced spans and edge rows — is compared against.

**The first exchange generation** — ``split_for_sends``,
``exchange_sync``, ``order_received``, ``exchange_overlapped``: p^2
materialised sub-batches through the dense collectives, then a per-rank
merge, sort or event replay.  Production (``core/exchange.py``) left
them behind for the fused staged collectives long ago; they are the
differential oracle ``tests/test_exchange.py`` and
``tests/test_engine_determinism.py`` run the fused paths against, clock
for clock.

**The production exchanges as a per-rank call** —
:func:`lane_exchange_sync` / :func:`lane_exchange_overlapped` run the
``Exchange`` phase's computes and epilogues through ``LANE`` on one
rank: not references but the code under test, called like the oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import exchange
from repro.core.exchange import ExchangeStats
from repro.kernels import (
    natural_merge_sort_perm,
    sequential_argsort,
    stable_argsort,
)
from repro.mpi import LANE, Comm, Cuts
from repro.records import (
    RecordBatch,
    adaptive_sort_batch,
    concat_rows,
    kway_merge_batches,
    sort_batch,
)


def check_displs(displs: np.ndarray, p: int, n: int) -> np.ndarray:
    """Validate and canonicalise a rank's partition displacements."""
    d = np.asarray(displs, dtype=np.int64)
    if len(d) != p + 1 or d[0] != 0 or d[-1] != n:
        raise ValueError("displacements must span [0, len) with p+1 bounds")
    if np.any(np.diff(d) < 0):
        raise ValueError("displacements must be non-decreasing")
    return d


def displs_of(cuts: Cuts) -> np.ndarray:
    """The dense ``p+1`` displacement vector a one-row table encodes."""
    assert len(cuts) == 1
    counts = np.zeros(cuts.p, dtype=np.int64)
    counts[cuts.dst] = np.diff(cuts.offs)
    return np.concatenate(([0], np.cumsum(counts)))


def sync_exchange_compute_dense(stage: list, *, p: int, merge: bool,
                                stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange.

    ``stage`` holds one ``((batch, displs), clock)`` deposit per rank in
    group-rank order — exactly what :meth:`Comm.staged` hands the
    designated-rank action.
    """
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    D = np.stack([e[0][1] for e in stage])            # (p, p+1) bounds
    C = np.diff(D, axis=1)                            # counts[src, dst]
    widths = np.array([b.record_bytes for b in batches], dtype=np.int64)
    S = C * widths[:, None]                           # bytes[src, dst]
    max_send, max_recv, total, send_tot, recv_tot = size_scan_matrix(S)
    all_keys, all_cols, offs = concat_rows(batches)

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
        "S": S,                                       # bytes[src, dst]
        "m": m_per_dst,
        "keys": all_keys, "cols": all_cols,
        "final": final, "bounds": bounds,
    }


def size_scan_matrix(sizes: np.ndarray) -> tuple:
    """Alltoallv accounting quantities from a ``(p, p)`` byte matrix.

    Returns ``(max_send, max_recv, total_bytes, send_tot, recv_tot)``
    where the per-rank totals exclude the diagonal (a rank's chunk to
    itself never crosses the wire) while ``total_bytes`` includes it
    (the fabric-cap term of ``CostModel.alltoallv_time`` is calibrated
    on gross volume).
    """
    diag = np.diagonal(sizes)
    send_tot = sizes.sum(axis=1) - diag
    recv_tot = sizes.sum(axis=0) - diag
    return (int(send_tot.max()), int(recv_tot.max()),
            int(sizes.sum()), send_tot, recv_tot)


def _dense_stage(comm: Comm, batches: Sequence[RecordBatch]) -> tuple:
    """Stage ``p`` send batches; ``((t, size scan..., S), received)``
    with ``received[src]`` the batch ``src`` sent this rank."""
    if len(batches) != comm.size:
        raise ValueError(f"alltoallv needs {comm.size} batches, "
                         f"got {len(batches)}")
    me = comm.rank

    def compute(stage: list) -> tuple:
        S = np.array([e[0][1] for e in stage], dtype=np.int64)
        return (max(e[1] for e in stage), *size_scan_matrix(S), S)

    return comm.staged((list(batches), [b.nbytes for b in batches]),
                       compute, lambda stage: [e[0][0][me] for e in stage])


def _book_collective(comm: Comm, name: str, t: float, dt: float,
                     lat: float, sizes) -> None:
    """``set_clock(t + dt)``, and with a tracer the op span, its LogGP
    split and the rank's edge row."""
    tr = comm.tracer
    if tr is None:
        comm.set_clock(t + dt)
        return
    owed = comm._world.debt
    c0, debt = comm.clock, 0.0 if owed is None else owed.item(comm.grank)
    comm.set_clock(t + dt)
    tr.collective(comm.grank, name, c0, comm.clock, t, dt, lat, debt)
    tr.edge(comm.grank, comm._ctx.index, sizes)


def alltoallv_dense(comm: Comm, batches: Sequence[RecordBatch]
                    ) -> list[RecordBatch]:
    """Dense synchronous all-to-all: ``batches[d]`` goes to rank ``d``;
    returns the ``p`` batches received, indexed by source."""
    (t, max_send, max_recv, total, send_tot, recv_tot, S), received = \
        _dense_stage(comm, batches)
    me, cost, rpn = comm.rank, comm.cost, comm.ranks_per_node
    recv = int(recv_tot[me])
    comm.mem.alloc(recv)
    dt = cost.alltoallv_time(comm.size, max(max_send, max_recv),
                             ranks_per_node=rpn, total_bytes=total)
    lat = (cost.alltoallv_time(comm.size, 0, ranks_per_node=rpn,
                               total_bytes=0)
           if comm.tracer is not None else 0.0)
    _book_collective(comm, "alltoallv", t, dt, lat, S[me])
    comm.count("coll.alltoallv")
    comm.count("bytes.recv", recv)
    comm.count("bytes.sent", int(send_tot[me]))
    return received


def alltoallv_async_dense(comm: Comm, batches: Sequence[RecordBatch]
                          ) -> list[tuple[int, RecordBatch, float]]:
    """Nonblocking all-to-all returning a deterministic arrival schedule.

    Returns ``[(source, batch, t_complete), ...]`` sorted by modelled
    completion time.  Data movement itself is staged (and
    memory-charged) up front; only the *timing* is asynchronous: chunks
    "arrive" one by one under the derated async bandwidth, ring order
    from ``rank + 1``.  The rank's clock is advanced only past the
    synchronisation point; callers finish the overlap clock arithmetic.
    """
    (start, *_, recv_tot, S), received = _dense_stage(comm, batches)
    me, size, spec = comm.rank, comm.size, comm.machine
    recv = int(recv_tot[me])
    comm.mem.alloc(recv)
    bw = (spec.nic_bandwidth if comm.ranks_per_node > 1
          else spec.single_stream_bandwidth) * spec.async_bandwidth_factor
    node_factor = min(comm.ranks_per_node, size)
    inbound = S[:, me].tolist()                       # bytes per source
    arrivals = [(me, received[me], start)]            # own chunk at once
    t = start + spec.net_latency
    for src in [(me + off) % size for off in range(1, size)]:
        t += (inbound[src] * node_factor) / bw + spec.per_message_overhead
        arrivals.append((src, received[src], t))
    dt = comm.cost.async_progress_overhead(size)
    # the byte time is overlapped by the caller against the arrival
    # schedule; only the progress CPU is charged here
    _book_collective(comm, "alltoallv_async", start, dt, dt, S[me])
    comm.count("coll.alltoallv_async")
    comm.count("bytes.recv", recv)
    return arrivals


def split_for_sends(batch: RecordBatch, displs: np.ndarray) -> list[RecordBatch]:
    """Cut the sorted local batch at the partition displacements."""
    return batch.split([int(d) for d in displs])


def exchange_sync(comm: Comm, sends: Sequence[RecordBatch]) -> list[RecordBatch]:
    """Synchronous personalised exchange; returns chunks in source order."""
    return alltoallv_dense(comm, list(sends))


def order_received(comm: Comm, chunks: Sequence[RecordBatch], *,
                   stable: bool, tau_s: int, delta_hint: float = 0.0
                   ) -> tuple[RecordBatch, ExchangeStats]:
    """Final local ordering of received runs (Figure 1 lines 17-21)."""
    p = comm.size
    m = sum(len(c) for c in chunks)
    if p < tau_s:
        out = kway_merge_batches(list(chunks))
        dt = comm.cost.merge_time(m, max(2, len(chunks)))
        comm.charge(dt)
        comm.trace_counter("kernel.merge.records", float(m))
        comm.trace_counter("kernel.merge.seconds", dt)
        ordering = "merge"
    else:
        concat = RecordBatch.concat(chunks)
        # functionally: any (stable) sort of the p concatenated runs;
        # cost: the std::sort-style flat curve of Figure 5c
        out = adaptive_sort_batch(concat) if stable else sort_batch(concat)
        dt = comm.cost.final_sort_time(m, len(chunks), stable=stable,
                                       delta=delta_hint)
        comm.charge(dt)
        comm.trace_counter("kernel.sort.records", float(m))
        comm.trace_counter("kernel.sort.seconds", dt)
        ordering = "sort"
    # streaming ordering: consumed chunks are released as the output
    # fills, so peak memory is input + output rather than 2x input
    comm.mem.free(sum(c.nbytes for c in chunks))
    comm.mem.alloc(out.nbytes)
    return out, ExchangeStats("sync", ordering, m, len(chunks))


def exchange_overlapped(comm: Comm, sends: Sequence[RecordBatch]
                        ) -> tuple[RecordBatch, ExchangeStats]:
    """Nonblocking exchange overlapped with pairwise merging.

    Simulates a single-core event loop: chunks become ready at their
    modelled arrival times; whenever two chunks are ready and the CPU
    is idle, they are merged (SdssMergeTwo) and the result re-queued.
    The rank's clock advances to the completion of the last merge,
    i.e. ``max(communication, computation)`` plus the tail merge —
    the overlap benefit Figure 5b measures.

    The merge *schedule* (binary-counter merging: a chunk at "level" L
    has absorbed 2^L original chunks, equal levels merge immediately —
    balanced O(m log p) pairwise work that still consumes chunks the
    moment they arrive) is replayed on chunk **lengths only**, keeping
    the virtual-clock arithmetic bit-identical to actually performing
    each pairwise merge.  The data itself is then materialised in one
    pass: every ``merge_two`` resolves ties in favour of its left
    (earlier) operand, so the schedule's result equals the chunks
    concatenated in the merge tree's left-to-right leaf order, stably
    sorted — which one stable argsort computes without the ``p - 1``
    per-rank python merge calls the seed engine paid.
    """
    arrivals = alltoallv_async_dense(comm, list(sends))
    t_cpu = comm.clock
    m = sum(len(b) for _, b, _ in arrivals)
    # replay: levels hold (records absorbed, leaf order) per counter bit
    levels: dict[int, tuple[int, list[int]]] = {}
    for i, (_, chunk, t_arr) in enumerate(arrivals):
        t_cpu = max(t_cpu, t_arr)
        cur_len, cur_leaves, lvl = len(chunk), [i], 0
        while lvl in levels:
            prev_len, prev_leaves = levels.pop(lvl)
            cur_len += prev_len
            cur_leaves = prev_leaves + cur_leaves  # earlier chunks win ties
            t_cpu += comm.cost.merge_time(cur_len, 2)
            lvl += 1
        levels[lvl] = (cur_len, cur_leaves)
    order: list[int] | None = None
    out_len = 0
    for lvl in sorted(levels):
        lvl_len, lvl_leaves = levels[lvl]
        if order is None:
            order, out_len = lvl_leaves, lvl_len
        else:
            out_len += lvl_len
            order = order + lvl_leaves  # accumulated result wins ties
            t_cpu += comm.cost.merge_time(out_len, 2)
    if order is None:
        out = RecordBatch(np.zeros(0))
    else:
        cat = RecordBatch.concat([arrivals[i][1] for i in order])
        perm, out_keys = stable_argsort(cat.keys)
        out = cat.take(perm, keys=out_keys)
    tr = comm.tracer
    if tr is None:
        comm.set_clock(max(comm.clock, t_cpu))
    else:
        # oracle path: the arrival/merge interleave past the async
        # progress charge (attributed inside alltoallv_async_dense) is one
        # bandwidth-bucket advance
        c0 = comm.clock
        comm.set_clock(max(comm.clock, t_cpu))
        adv = comm.clock - c0
        if adv > 0.0:
            g = comm.grank
            tr.span(g, "coll", "overlap_merge", c0, comm.clock,
                    {"records": m})
            tr.add(g, "cost.bandwidth", adv)
        comm.trace_counter("kernel.merge.records", float(m))
    comm.mem.free(sum(b.nbytes for _, b, _ in arrivals))
    comm.mem.alloc(out.nbytes)
    return out, ExchangeStats("overlap", "overlap-merge", m, len(arrivals))


# ----------------------------------------------------------------------
# the production exchanges, as a lane's per-rank call
# ----------------------------------------------------------------------

def lane_exchange_sync(comm: Comm, batch: RecordBatch, displs: np.ndarray,
                       *, stable: bool, tau_s: int, delta_hint: float = 0.0
                       ) -> tuple[RecordBatch, ExchangeStats]:
    """Production's synchronous exchange on one rank: the ``Exchange``
    phase's compute and epilogues through ``LANE`` (what the phase runs
    for a lane), phases as there — the ``alltoallv`` advance and the
    send-buffer release in ``exchange``, the ordering charge after it."""
    p = comm.size
    merge = p < tau_s
    with comm.phase("exchange"):
        shared, _ = comm.staged(
            (batch, Cuts.from_displs(displs).check(p, len(batch))),
            lambda stage: exchange.sync_exchange_compute(
                stage, p=p, merge=merge, stable=stable))
        exchange._sync_exchange_network(LANE, [comm], shared, [batch.nbytes])
    with comm.phase("local_ordering"):
        table, row, stats = exchange._sync_exchange_ordering(
            LANE, [comm], shared, merge=merge, stable=stable,
            delta_hints=[delta_hint])[0]
    return table.row(row), stats


def lane_exchange_overlapped(comm: Comm, batch: RecordBatch,
                             displs: np.ndarray
                             ) -> tuple[RecordBatch, ExchangeStats]:
    """Production's overlapped exchange on one rank, through ``LANE``."""
    p = comm.size

    def compute(stage: list) -> dict:
        return exchange.overlapped_exchange_compute(
            stage, p=p, group=comm._ctx.group, spec=comm.machine,
            rate=comm.cost.spec.merge_cost_per_elem,
            progress=comm.cost.async_progress_overhead(p),
            traced=comm.tracer is not None)

    shared, _ = comm.staged(
        (batch, Cuts.from_displs(displs).check(p, len(batch))), compute)
    table, row, stats = exchange._overlapped_exchange_finish(
        LANE, [comm], shared, [batch.nbytes])[0]
    return table.row(row), stats
