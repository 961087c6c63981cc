"""Adaptive all-to-all exchange and final local ordering (Sections 2.6-2.7).

Two exchange modes:

* **synchronous** (``MPI_Alltoallv``) — required for stable sorting
  (delivery in source-rank order is what carries the stability
  guarantee) and preferred at large ``p`` where nonblocking progress
  overhead dominates;
* **overlapped** — nonblocking exchange whose arrivals are merged two
  at a time as they land (SdssAlltoallvAsync + SdssMergeTwo), a win at
  small ``p`` where the network is the bottleneck.

Two final-ordering modes (the ``tau_s`` decision):

* **merge** — k-way merge of the ``p`` received runs, ``O(m log p)``;
* **sort** — adaptive sort of the concatenation; because the input is
  ``p`` runs, the natural-merge sort does ``O(m log p)`` too but with
  the sequential-sort constant, so it wins once ``p`` is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..kernels import (
    natural_merge_sort_perm,
    sequential_argsort,
    stable_argsort,
)
from ..mpi import Comm
from ..records import (
    RecordBatch,
    adaptive_sort_batch,
    concat_batch_arrays,
    kway_merge_batches,
    sort_batch,
)
from .partition import Cuts


@dataclass(frozen=True)
class ExchangeStats:
    """What one rank saw during exchange + local ordering."""

    mode: str            # "sync" or "overlap"
    ordering: str        # "merge", "sort", or "overlap-merge"
    received: int        # records received (the paper's m_i)
    chunks: int          # runs entering local ordering


def split_for_sends(batch: RecordBatch, displs: np.ndarray) -> list[RecordBatch]:
    """Cut the sorted local batch at the partition displacements."""
    return batch.split([int(d) for d in displs])


def exchange_sync(comm: Comm, sends: Sequence[RecordBatch]) -> list[RecordBatch]:
    """Synchronous personalised exchange; returns chunks in source order."""
    return comm.alltoallv(list(sends))


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


def sync_exchange_compute(stage: list, *, p: int, merge: bool,
                          stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    group-rank order — exactly what :meth:`Comm.staged` hands the
    designated-rank action; ``cuts`` is the rank's checked
    :class:`~repro.core.partition.Cuts`.  Shared by the thread backend
    (as the staged collective's action) and the flat backend (called
    directly on a synthesized stage); see :func:`exchange_sync_fused`
    for the exactness audit.

    Cell-sparse (CSR): of the p x p ``(src, dst)`` chunks at most
    ``min(N, p^2)`` are non-empty; the deposits list exactly those, and
    every array here is O(N + p).
    """
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    cuts = [e[0][1] for e in stage]
    widths = np.array([b.row_nbytes for b in batches], dtype=np.int64)
    all_keys, all_cols, offs = concat_batch_arrays(batches)
    N = int(offs[-1])

    # -- non-empty cells: the deposits, concatenated source-major --
    src = np.repeat(np.arange(p, dtype=np.int64),
                    [c.dst.size for c in cuts])
    dst = np.concatenate([c.dst for c in cuts])
    edges = np.concatenate([c.offs for c in cuts])    # one closer per rank
    at = np.arange(src.size, dtype=np.int64) + src
    first = edges[at]
    cnt = edges[at + 1] - first
    own = np.zeros(p, dtype=np.int64)                 # chunk to itself
    diag = src == dst
    own[src[diag]] = cnt[diag] * widths[src[diag]]

    # -- destination-major in source order --
    by_dst = np.argsort(dst, kind="stable")           # keeps source order
    src, dst = src[by_dst], dst[by_dst]
    first, cnt = first[by_dst], cnt[by_dst]
    cell = np.searchsorted(dst, np.arange(p + 1))     # first cell per dst
    excl = np.concatenate(([0], np.cumsum(cnt)))      # records before cell
    G = (np.repeat(offs[src] + first - excl[:-1], cnt)
         + np.arange(N, dtype=np.int64))
    bounds = excl[cell]
    nbytes = np.concatenate(([0], np.cumsum(cnt * widths[src])))
    recv_all = np.diff(nbytes[cell])                  # includes own chunk

    # -- alltoallv accounting (the integers of Comm.size_scan_matrix):
    #    per-rank totals exclude the rank's chunk to itself --
    sent = np.diff(offs) * widths                     # cuts span [0, n]
    send_tot, recv_tot = sent - own, recv_all - own

    # -- final local ordering of every destination, once --
    keys_g = all_keys[G]
    final = np.empty(N, dtype=np.int64)
    ordered = np.empty_like(keys_g)                   # every dst's sorted keys
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        seg = keys_g[lo:hi]
        if merge:
            perm, ordered[lo:hi] = stable_argsort(seg)
        elif stable:
            ordered[lo:hi], perm = natural_merge_sort_perm(seg)
        else:
            perm = sequential_argsort(seg, stable=False)
            np.take(seg, perm, out=ordered[lo:hi])
        final[lo:hi] = G[lo:hi][perm]
    return {
        "t": start,
        "max_send": int(send_tot.max()), "max_recv": int(recv_tot.max()),
        "total": int(sent.sum()),
        "send_tot": send_tot, "recv_tot": recv_tot, "recv_all": recv_all,
        "cuts": cuts, "widths": widths,               # traced edge rows
        "m": np.diff(bounds),
        "ordered": ordered, "cols": all_cols,
        "final": final, "bounds": bounds,
    }


def _sync_exchange_network(comm: Comm, shared: dict,
                           send_nbytes: int) -> None:
    """Per-rank ``alltoallv`` epilogue of the fused synchronous exchange.

    Runs inside the ``exchange`` phase: memory for the received data is
    allocated, the clock advances by the rank's own ``alltoallv_time``
    replay, byte/collective counters land, and the send buffer is
    released.  Shared by :func:`exchange_sync_fused` and the flat
    backend's exchange path.
    """
    p, me = comm.size, comm.rank
    recv_bytes = int(shared["recv_tot"][me])
    comm.mem.alloc(recv_bytes)
    dt = comm.cost.alltoallv_time(
        p, max(shared["max_send"], shared["max_recv"]),
        ranks_per_node=comm.ranks_per_node,
        total_bytes=shared["total"])
    if comm.tracer is None:
        comm.set_clock(shared["t"] + dt)
    else:
        comm.trace_collective(
            "alltoallv", shared["t"], dt, comm.cost.alltoallv_time(
                p, 0, ranks_per_node=comm.ranks_per_node, total_bytes=0))
        comm.trace_edges(np.diff(shared["cuts"][me].displs())
                         * shared["widths"][me])
    comm.count("coll.alltoallv")
    comm.count("bytes.recv", recv_bytes)
    comm.count("bytes.sent", int(shared["send_tot"][me]))
    comm.mem.free(send_nbytes)                        # send buffer released


def _sync_exchange_ordering(comm: Comm, shared: dict, *, merge: bool,
                            stable: bool, delta_hint: float
                            ) -> tuple[RecordBatch, ExchangeStats]:
    """Per-rank local-ordering epilogue of the fused synchronous exchange.

    Runs inside the ``local_ordering`` phase: charges the rank's own
    merge/sort cost, materialises the output slice from the whole-world
    permutation, and settles memory.  Shared by
    :func:`exchange_sync_fused` and the flat backend's exchange path.
    """
    p, me = comm.size, comm.rank
    m = int(shared["m"][me])
    if merge:
        dt = comm.cost.merge_time(m, max(2, p))
        comm.charge(dt)
        comm.trace_counter("kernel.merge.records", float(m))
        comm.trace_counter("kernel.merge.seconds", dt)
        ordering = "merge"
    else:
        dt = comm.cost.final_sort_time(m, p, stable=stable,
                                       delta=delta_hint)
        comm.charge(dt)
        comm.trace_counter("kernel.sort.records", float(m))
        comm.trace_counter("kernel.sort.seconds", dt)
        ordering = "sort"
    lo, hi = int(shared["bounds"][me]), int(shared["bounds"][me + 1])
    idx = shared["final"][lo:hi]
    out = RecordBatch._unsafe(
        shared["ordered"][lo:hi],
        {name: col[idx] for name, col in shared["cols"].items()})
    comm.mem.free(int(shared["recv_all"][me]))
    comm.mem.alloc(out.nbytes)
    return out, ExchangeStats("sync", ordering, m, p)


def exchange_sync_fused(comm: Comm, batch: RecordBatch, displs: np.ndarray,
                        *, stable: bool, tau_s: int, delta_hint: float = 0.0
                        ) -> tuple[RecordBatch, ExchangeStats]:
    """The synchronous exchange + local ordering, as one staged collective.

    Bit-for-bit identical (clocks, phase breakdowns, counters, memory
    charges, outputs) to splitting ``batch`` at ``displs`` and running
    :func:`exchange_sync` (``alltoallv``) followed by
    :func:`order_received`, but none of the seed-era per-rank costs are
    paid: the p^2 ``RecordBatch`` sub-batches are never materialised,
    the sizes are derived once from the ``(batch, cuts)`` deposits —
    each rank's non-empty ``(src, dst)`` cells, nothing p x p —
    (counts x row bytes, the same integers ``RecordBatch.split``
    pre-computes), and the final ordering of every destination happens
    once, inside the designated-rank action.  Each rank then reads back
    its clock, counters, memory charges and output slice in O(m + p).
    ``displs`` is validated here, on this rank, before the deposit
    (:meth:`Cuts.check`: p buckets spanning ``[0, len(batch)]``,
    non-decreasing).

    ``stable`` and ``tau_s`` must be SPMD-uniform (they are fields of
    the communicator-uniform ``SdsParams``); ``delta_hint`` is per-rank
    and only enters the rank's own local-ordering charge.

    Exactness notes (audited against the per-rank formulation):

    * ``alltoallv`` accounting reproduces the integers
      :meth:`Comm.size_scan_matrix` yields on the byte matrix
      ``S[s, d] = (D[s, d+1] - D[s, d]) * row_nbytes[s]`` without
      building ``S`` or ``D``: gross received bytes per destination are
      segment differences of one running sum over the non-empty cells,
      sent bytes per rank are ``len(batch_r) * row_nbytes[r]`` (a row
      of counts telescopes to ``D[r, p] - D[r, 0]``, which the entry
      check pins to the batch length), the diagonal is rank ``r``'s
      cell with ``dst == r`` (zero when it has none) and is subtracted
      from both, and the gross total is the sum of the sent bytes.  All
      of it is int64, where addition is associative and empty cells add
      zero, so each value equals the matrix reduction exactly; each
      rank then replays the same scalar ``alltoallv_time`` /
      ordering-cost calls the unfused path makes, so every IEEE
      operation sequence is unchanged;
    * destination ``d``'s input is its chunks concatenated in **source
      order** (the ``alltoallv`` delivery-order guarantee): a rank's
      cuts list its non-empty cells by ascending destination, so the
      deposits concatenated in rank order are the non-empty cells
      source-major — the list ``nonzero`` of the stacked displacement
      matrix used to produce — and a *stable* argsort on ``dst`` keeps
      each destination's sources ascending: the row-major walk of the
      transposed ``(dst, src)`` layout with the empty cells, which hold
      no records, left out;
    * for the ``merge`` branch (``p < tau_s``) the k-way merge of
      sorted source runs with earlier-chunk tie-breaking produces the
      unique stable permutation, so one ``stable_argsort`` per
      destination equals ``kway_merge_batches`` (which calls the same
      kernel), and the sorted keys it returns are the output's key
      column — each rank reads its slice of one ``ordered`` array;
    * the ``sort`` branch applies the *same kernels* the unfused path
      dispatches to (``natural_merge_sort_perm`` when stable,
      ``sequential_argsort`` otherwise) on value-identical key arrays,
      so even the unstable introsort permutation is reproduced.

    Phase attribution mirrors the driver's unfused structure: the
    ``alltoallv`` clock advance and the send-buffer release land in
    ``exchange``, the ordering charge in ``local_ordering``.
    """
    p = comm.size
    cuts = Cuts.from_displs(displs).check(p, len(batch))
    merge = p < tau_s

    def compute(stage: list) -> dict:
        return sync_exchange_compute(stage, p=p, merge=merge, stable=stable)

    with comm.phase("exchange"):
        shared, _ = comm.staged((batch, cuts), compute)
        _sync_exchange_network(comm, shared, batch.nbytes)

    with comm.phase("local_ordering"):
        out, stats = _sync_exchange_ordering(
            comm, shared, merge=merge, stable=stable, delta_hint=delta_hint)
    return out, stats


def _counter_leaf_order(p: int) -> list[int]:
    """Final chunk order of the binary-counter merge over ``p`` arrivals.

    Level merges concatenate earlier chunks before later ones, and the
    final fold walks surviving levels from the lowest up, so the output
    order is: for each set bit of ``p`` from low to high, the contiguous
    run of arrival indices that bit absorbed (higher bits hold *earlier*
    arrivals).  For a power of two this is simply ``0..p-1``.
    """
    bits = [b for b in range(p.bit_length()) if (p >> b) & 1]
    starts: dict[int, int] = {}
    pos = 0
    for b in reversed(bits):
        starts[b] = pos
        pos += 1 << b
    order: list[int] = []
    for b in bits:
        order.extend(range(starts[b], starts[b] + (1 << b)))
    return order


def overlapped_exchange_compute(stage: list, *, p: int, group, spec,
                                rate: float, progress: float,
                                traced: bool) -> dict:
    """Whole-world compute of the fused overlapped exchange.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    group-rank order; ``group`` is the communicator's global-rank tuple,
    ``spec`` the machine, ``rate`` the per-element merge cost and
    ``progress`` the (SPMD-uniform) ``async_progress_overhead(p)``.
    Shared by the thread backend (as the staged collective's
    action) and the flat backend; see :func:`exchange_overlapped_fused`
    for the exactness audit.  The ring arrival schedule is p x p by
    the cost model's definition, so the cuts are expanded here.
    """
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    D = np.stack([e[0][1].displs() for e in stage])   # (p, p+1) bounds
    C = np.diff(D, axis=1)                            # counts[src, dst]
    widths = np.array([b.row_nbytes for b in batches], dtype=np.int64)
    S = C * widths[:, None]                           # bytes[src, dst]
    all_keys, all_cols, offs = concat_batch_arrays(batches)

    # -- per-destination arrival schedules (ring order, from dst+1) --
    nodes = np.asarray(group, dtype=np.int64) // spec.cores_per_node
    rpn = np.bincount(nodes)[nodes]                   # ranks on my node
    bw = (np.where(rpn > 1, spec.nic_bandwidth,
                   spec.single_stream_bandwidth)
          * spec.async_bandwidth_factor)
    node_factor = np.minimum(rpn, p)
    dst = np.arange(p, dtype=np.int64)
    ring = (dst[:, None] + np.arange(1, p)[None, :]) % p   # src by step
    inbound = S[ring, dst[:, None]]                   # bytes per step
    incr = ((inbound * node_factor[:, None]) / bw[:, None]
            + spec.per_message_overhead)
    # t starts at start+latency; each += is one sequential add, which
    # is exactly what a row-wise cumsum performs
    T = np.cumsum(
        np.concatenate(
            [np.full((p, 1), start + spec.net_latency), incr], axis=1),
        axis=1)
    T[:, 0] = start                                   # own chunk: at once

    # -- merge-clock replay, vectorised across destinations --
    L = np.concatenate([C[dst, dst][:, None], C[ring, dst[:, None]]],
                       axis=1)                        # lengths by step
    CS = np.zeros((p, p + 1), dtype=np.int64)
    np.cumsum(L, axis=1, out=CS[:, 1:])
    t_cpu = np.full(p, start + progress)
    msec = np.zeros(p) if traced else None  # merge seconds per dst
    for i in range(p):
        np.maximum(t_cpu, T[:, i], out=t_cpu)
        b = 0
        while (i >> b) & 1:
            runs = CS[:, i + 1] - CS[:, i + 1 - (1 << (b + 1))]
            inc = (runs * 1.0) * rate                 # merge_time(n, 2)
            t_cpu += inc
            if traced:
                msec += inc
            b += 1
    leaf = np.asarray(_counter_leaf_order(p), dtype=np.int64)
    if p & (p - 1):  # non power of two: final fold merges leftovers
        bits = [b for b in range(p.bit_length()) if (p >> b) & 1]
        spans: dict[int, tuple[int, int]] = {}
        pos = 0
        for b_ in reversed(bits):
            spans[b_] = (pos, pos + (1 << b_))
            pos += 1 << b_
        tot = None
        for b_ in bits:  # levels ascending, each append merges once
            lo_, hi_ = spans[b_]
            seg = CS[:, hi_] - CS[:, lo_]
            if tot is None:
                tot = seg
            else:
                tot = tot + seg
                inc = (tot * 1.0) * rate              # merge_time(n, 2)
                t_cpu += inc
                if traced:
                    msec += inc

    # -- global data materialisation --
    s_idx = (dst[:, None] + leaf[None, :]) % p        # src per slot
    starts = (offs[s_idx] + D[s_idx, dst[:, None]]).ravel()
    lens = C[s_idx, dst[:, None]].ravel()
    N = int(offs[-1])
    excl = np.cumsum(lens) - lens
    G = np.repeat(starts - excl, lens) + np.arange(N, dtype=np.int64)
    m_per_dst = CS[:, p]
    bounds = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(m_per_dst, out=bounds[1:])
    keys_g = all_keys[G]
    final = np.empty(N, dtype=np.int64)
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        perm, _ = stable_argsort(keys_g[lo:hi])
        final[lo:hi] = G[lo:hi][perm]
    diag = np.diagonal(S)
    return {
        "t_cpu": t_cpu,
        "start": start,
        "msec": msec,
        "recv_net": S.sum(axis=0) - diag,             # excludes own chunk
        "recv_all": S.sum(axis=0),                    # includes own chunk
        "S": S,                                       # bytes[src, dst]
        "m": m_per_dst,
        "keys": all_keys, "cols": all_cols,
        "final": final, "bounds": bounds,
    }


def _overlapped_exchange_finish(comm: Comm, shared: dict
                                ) -> tuple[RecordBatch, ExchangeStats]:
    """Per-rank epilogue of the fused overlapped exchange.

    Materialises the rank's output slice, advances its clock to the
    replayed merge-completion time (with the traced cost split when a
    tracer is attached) and settles memory/counters.  Shared by
    :func:`exchange_overlapped_fused` and the flat backend's exchange
    path.
    """
    p, me = comm.size, comm.rank
    recv_bytes = int(shared["recv_net"][me])
    comm.mem.alloc(recv_bytes)
    lo, hi = int(shared["bounds"][me]), int(shared["bounds"][me + 1])
    idx = shared["final"][lo:hi]
    out = RecordBatch._unsafe(
        shared["keys"][idx],
        {name: col[idx] for name, col in shared["cols"].items()})
    m = int(shared["m"][me])
    tr = comm.tracer
    if tr is None:
        comm.set_clock(max(comm.clock, float(shared["t_cpu"][me])))
    else:
        # one fused advance covers barrier skew, the async progress
        # CPU, and the network/merge interleave; the interleaved
        # remainder is attributed to bandwidth (the merge CPU it hides
        # is reported separately via kernel.merge.*)
        c0 = comm.clock
        debt = comm._fault_debt if comm.faults is not None else 0.0
        comm.set_clock(max(comm.clock, float(shared["t_cpu"][me])))
        adv = comm.clock - c0
        g = comm.grank
        tr.span(g, "coll", "alltoallv_async+merge", c0, comm.clock,
                {"bytes": recv_bytes, "records": m})
        if adv > 0.0:
            wait = max(0.0, min(adv, float(shared["start"]) - c0))
            lat = min(adv - wait, comm.cost.async_progress_overhead(p))
            tr.add(g, "cost.wait", wait)
            tr.add(g, "cost.latency", lat)
            rest = adv - wait - lat - debt
            if rest > 0.0:
                tr.add(g, "cost.bandwidth", rest)
            if debt:
                tr.add(g, "cost.fault_debt", debt)
        comm.trace_edges(shared["S"][me])
        comm.trace_counter("kernel.merge.records", float(m))
        comm.trace_counter("kernel.merge.seconds",
                           float(shared["msec"][me]))
    comm.mem.free(int(shared["recv_all"][me]))
    comm.mem.alloc(out.nbytes)
    comm.count("coll.alltoallv_async")
    comm.count("bytes.recv", recv_bytes)
    return out, ExchangeStats("overlap", "overlap-merge", m, p)


def exchange_overlapped_fused(comm: Comm, batch: RecordBatch,
                              displs: np.ndarray
                              ) -> tuple[RecordBatch, ExchangeStats]:
    """:func:`exchange_overlapped` without materialising p^2 sub-batches.

    Bit-for-bit identical (clocks, counters, outputs) to splitting
    ``batch`` at ``displs`` and running ``alltoallv_async`` +
    ``exchange_overlapped``, but all O(p^2) work — the size matrix, the
    arrival schedules of every rank, the merge-clock replay, and the
    final stable ordering of every rank's received data — happens once,
    vectorised, inside the staged collective's designated-rank action.
    Each rank then reads back its clock, its output slice, and its
    memory/counter charges in O(m + p).

    Exactness notes (audited against the per-rank formulation):

    * sub-batch sizes are ``count * row_nbytes`` — the same integers
      ``RecordBatch.split`` pre-computes;
    * arrival times are sequential float accumulations; ``np.cumsum``
      accumulates in the same order, so the IEEE rounding sequence is
      unchanged;
    * ``merge_time(n, 2)`` is ``(n * 1.0) * rate``, reproduced
      element-wise on exact int64 run lengths;
    * the stable permutation of each rank's chunk concatenation is
      unique, so one ``stable_argsort`` per destination over the
      globally gathered key array equals the per-rank merge tree.
    """
    p = comm.size
    cuts = Cuts.from_displs(displs).check(p, len(batch))
    spec = comm.machine
    rate = comm.cost.spec.merge_cost_per_elem
    group = comm._ctx.group
    progress = comm.cost.async_progress_overhead(p)
    traced = comm.tracer is not None  # world-uniform: safe in the action

    def compute(stage: list) -> dict:
        return overlapped_exchange_compute(
            stage, p=p, group=group, spec=spec, rate=rate,
            progress=progress, traced=traced)

    shared, _ = comm.staged((batch, cuts), compute)
    return _overlapped_exchange_finish(comm, shared)


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
    arrivals = comm.alltoallv_async(list(sends))
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
        # progress charge (attributed inside alltoallv_async) is one
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
