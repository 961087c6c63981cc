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
    stable_argsort_segments,
)
from ..mpi import Comm, World
from ..records import RecordBatch, concat_batch_arrays
from .partition import Cuts

#: Most records whose whole-form outputs share one gather per column
#: (:func:`_world_outputs`).  World-sized columns that outlive the
#: exchange fragment the heap in front of validation: sds-stable 32 x
#: 100k peaked at 485 MB, against 467 MB with a gather per destination.
_OUTPUT_BLOCK_RECORDS = 1 << 16


@dataclass(frozen=True)
class ExchangeStats:
    """What one rank saw during exchange + local ordering."""

    mode: str            # "sync" or "overlap"
    ordering: str        # "merge", "sort", or "overlap-merge"
    received: int        # records received (the paper's m_i)
    chunks: int          # runs entering local ordering


def _by_destination(src: np.ndarray, dst: np.ndarray, p: int) -> np.ndarray:
    """Order of the source-major non-empty cells by (destination, source).

    Defined as the stable argsort on ``dst``.  The pairs are unique, so
    ranking ``dst * p + src`` with any algorithm, numpy's SIMD sort
    included, is the same permutation without a timsort merge of ``p``
    runs; from ``p = 2**31`` the product could overflow int64.
    """
    if p < 1 << 31:
        return np.argsort(dst * p + src)
    return np.argsort(dst, kind="stable")


def sync_exchange_compute(stage: list, *, p: int, merge: bool,
                          stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    group-rank order — what :meth:`Comm.staged` hands the designated-
    rank action; ``cuts`` is the rank's checked
    :class:`~repro.core.partition.Cuts`.  The thread backend runs it as
    the staged collective's action, the flat backend on a synthesized
    stage; :func:`exchange_sync_fused` holds the exactness audit.
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
    by_dst = _by_destination(src, dst, p)
    src, dst = src[by_dst], dst[by_dst]
    first, cnt = first[by_dst], cnt[by_dst]
    cell = np.searchsorted(dst, np.arange(p + 1))     # first cell per dst
    excl = np.concatenate(([0], np.cumsum(cnt)))      # records before cell
    G = (np.repeat(offs[src] + first - excl[:-1], cnt)
         + np.arange(N, dtype=np.int64))
    bounds = excl[cell]
    nbytes = np.concatenate(([0], np.cumsum(cnt * widths[src])))
    recv_all = np.diff(nbytes[cell])                  # includes own chunk

    # -- alltoallv accounting (Comm.size_scan_matrix's integers; totals
    #    exclude the rank's chunk to itself) --
    sent = np.diff(offs) * widths                     # cuts span [0, n]
    send_tot, recv_tot = sent - own, recv_all - own

    # -- final local ordering of every destination, once --
    keys_g = all_keys[G]
    del all_keys          # eager: the sort's arrays take its place on the heap
    if merge:
        final, ordered = stable_argsort_segments(keys_g, bounds, G)
    else:
        final = np.empty(N, dtype=np.int64)
        ordered = np.empty_like(keys_g)               # every dst's sorted keys
        for r in range(p):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            seg = keys_g[lo:hi]
            if stable:
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
    released.  What lane, traced and fault-injected worlds run.
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


def _sync_exchange_network_whole(world: World, comms: Sequence[Comm],
                                 shared: dict, send_nbytes: Sequence[int]) -> list:
    """:func:`_sync_exchange_network` on a communicator's whole
    membership (no tracer, no fault plan): one ``alltoallv_time`` per
    distinct ``ranks_per_node``, clocks and counters written in place.
    A refused allocation fails its rank where the per-rank form raises —
    before the clock moves — and nobody else."""
    sim = comms[0]._world
    clocks, counters, mem = sim.clocks, sim.counters, sim.mem
    p, t = len(comms), shared["t"]
    biggest = max(shared["max_send"], shared["max_recv"])
    dts: dict[int, float] = {}
    for c, recv, sent, held in zip(comms, shared["recv_tot"].tolist(),
                                   shared["send_tot"].tolist(), send_nbytes):
        g = c.grank
        try:
            mem[g].alloc(recv)
        except BaseException as exc:  # mirrors the engine's catch-all
            world.fail(c, exc)
            continue
        rpn = c.ranks_per_node
        if rpn not in dts:
            dts[rpn] = sim.cost.alltoallv_time(
                p, biggest, ranks_per_node=rpn, total_bytes=shared["total"])
        clocks[g] = t + dts[rpn]
        tally = counters[g]
        for name, value in (("coll.alltoallv", 1.0), ("bytes.recv", recv),
                            ("bytes.sent", sent)):
            tally[name] = (tally[name] if name in tally else 0.0) + value
        mem[g].free(held)                             # send buffer released
    return [None] * p


def _world_outputs(shared: dict) -> list[RecordBatch]:
    """Every rank's output, as slices of shared gathers.

    Consecutive destinations holding up to :data:`_OUTPUT_BLOCK_RECORDS`
    records between them have each payload column gathered once through
    their stretch of ``final``; rank ``r`` gets views of that gather and
    of ``ordered`` (:meth:`RecordBatch.split`, sizes pre-computed) — the
    bytes the per-rank epilogues gather.  A longer destination is
    gathered alone, which *is* the per-rank form.  Runs in the epilogue,
    once the compute's locals are gone, not on top of them.
    """
    final, ordered, sources = shared["final"], shared["ordered"], shared["cols"]
    bounds = shared["bounds"]
    edges = bounds.tolist()
    outs: list[RecordBatch] = []
    while len(outs) < len(edges) - 1:
        r, lo = len(outs), edges[len(outs)]
        stop = max(r + 1, int(np.searchsorted(
            bounds, lo + _OUTPUT_BLOCK_RECORDS, "right")) - 1)
        idx = final[lo:edges[stop]]
        block = RecordBatch._unsafe(ordered[lo:edges[stop]], {
            name: col[idx] for name, col in sources.items()})
        outs += block.split([e - lo for e in edges[r:stop + 1]])
    return outs


def _sync_exchange_ordering(comm: Comm, shared: dict, *, merge: bool,
                            stable: bool, delta_hint: float
                            ) -> tuple[RecordBatch, ExchangeStats]:
    """Per-rank local-ordering epilogue of the fused synchronous exchange.

    Runs inside the ``local_ordering`` phase: charges the rank's own
    merge/sort cost, materialises the output slice from the whole-world
    permutation, and settles memory.
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


def _sync_exchange_ordering_whole(world: World, comms: Sequence[Comm],
                                  shared: dict, *, merge: bool, stable: bool,
                                  delta_hints: Sequence[float]) -> list:
    """:func:`_sync_exchange_ordering` on the ranks handed in (no
    tracer, no fault plan): the cost once per distinct ``(m, delta)``,
    outputs as slices (:func:`_world_outputs`).  A rank whose output is
    refused has paid its charge and released its receive buffer, as in
    the per-rank form, and gets no output."""
    p, sim = comms[0].size, comms[0]._world
    cost, mem = sim.cost, sim.mem
    ranks = [c.rank for c in comms]
    ms, recv_all = shared["m"].tolist(), shared["recv_all"].tolist()
    keys = [(ms[r], d) for r, d in zip(ranks, delta_hints)]
    dts = {(m, d): (cost.merge_time(m, max(2, p)) if merge else
                    cost.final_sort_time(m, p, stable=stable, delta=d))
           for m, d in set(keys)}
    world.charge_compute(comms, [dts[key] for key in keys])
    ordering = "merge" if merge else "sort"
    outs: list = [None] * len(comms)
    batches = _world_outputs(shared)
    for i, (c, r) in enumerate(zip(comms, ranks)):
        if world.failures and not world.alive(c):     # its charge was refused
            continue
        out = batches[r]
        tracker = mem[c.grank]
        try:
            tracker.free(recv_all[r])
            tracker.alloc(out.nbytes)
        except BaseException as exc:  # mirrors the engine's catch-all
            world.fail(c, exc)
            continue
        outs[i] = (out, ExchangeStats("sync", ordering, ms[r], p))
    return outs


def exchange_sync_fused(comm: Comm, batch: RecordBatch, displs: np.ndarray,
                        *, stable: bool, tau_s: int, delta_hint: float = 0.0
                        ) -> tuple[RecordBatch, ExchangeStats]:
    """The synchronous exchange + local ordering, as one staged collective.

    Bit-for-bit identical (clocks, phase breakdowns, counters, memory
    charges, outputs) to the first-generation path — split ``batch`` at
    ``displs``, ``Comm.alltoallv``, a per-rank merge or sort; now the
    oracle in ``tests/oracles_exchange.py`` — without its per-rank
    costs: no p^2 sub-batches, sizes derived once from the ``(batch,
    cuts)`` deposits (each rank's non-empty ``(src, dst)`` cells; counts
    x row bytes, the integers ``RecordBatch.split`` pre-computes), every
    destination ordered once, inside the designated-rank action.  A rank
    reads back its clock, counters, memory and output slice in O(m + p).
    ``displs`` is validated here, on this rank, before the deposit
    (:meth:`Cuts.check`).  ``stable`` and ``tau_s`` must be SPMD-uniform
    (fields of the communicator-uniform ``SdsParams``); ``delta_hint``
    is per-rank and only enters the rank's own local-ordering charge.

    Exactness notes (audited against the per-rank formulation):

    * ``alltoallv`` accounting reproduces the integers
      :meth:`Comm.size_scan_matrix` yields on the byte matrix
      ``S[s, d] = (D[s, d+1] - D[s, d]) * row_nbytes[s]`` without
      building ``S`` or ``D``: gross received bytes per destination are
      segment differences of one running sum over the non-empty cells,
      sent bytes per rank are ``len(batch_r) * row_nbytes[r]`` (a row
      of counts telescopes to ``D[r, p] - D[r, 0]``, pinned to the
      batch length by the entry check), the diagonal is rank ``r``'s
      cell with ``dst == r`` (zero when it has none), subtracted from
      both, and the gross total is the sum of the sent bytes — all
      int64, where addition is associative and empty cells add zero, so
      each value equals the matrix reduction; the scalar
      ``alltoallv_time`` / ordering-cost calls are the unfused path's,
      so every IEEE operation sequence is unchanged;
    * destination ``d``'s input is its chunks concatenated in **source
      order** (the ``alltoallv`` delivery-order guarantee): a rank's
      cuts list its non-empty cells by ascending destination, so the
      deposits concatenated in rank order are the non-empty cells
      source-major, and ordering them by ``(dst, src)``
      (:func:`_by_destination`) is the row-major walk of the transposed
      ``(dst, src)`` layout with the empty cells left out;
    * for the ``merge`` branch (``p < tau_s``) the k-way merge of
      sorted source runs with earlier-chunk tie-breaking produces the
      unique stable permutation of each destination's input, which is
      what :func:`~repro.kernels.stable_argsort_segments` returns for
      all destinations at once (its docstring: why one packed sort of
      many destinations equals their separate sorts); its sorted keys
      are the outputs' key column, one ``ordered`` array read in slices;
    * the ``sort`` branch applies, destination by destination, the
      *same kernels* the unfused path dispatches to
      (``natural_merge_sort_perm`` / ``sequential_argsort``) on
      value-identical keys: the unstable permutation is reproduced too.

    Phases as in the unfused driver: the ``alltoallv`` advance and the
    send-buffer release in ``exchange``, the ordering charge after it.
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


def _counter_spans(p: int) -> list[tuple[int, int]]:
    """Arrival spans of the binary-counter merge over ``p`` arrivals.

    One ``[lo, hi)`` span of arrival indices per set bit of ``p``, low
    bit first (higher bits hold *earlier* arrivals).  The final fold
    appends the surviving levels from the lowest up, so the spans in
    this order are the final chunk order — ``0..p-1`` for a power of 2.
    """
    spans, pos = [], 0
    for b in reversed(range(p.bit_length())):
        if (p >> b) & 1:
            spans.append((pos, pos + (1 << b)))
            pos += 1 << b
    return spans[::-1]


def overlapped_exchange_compute(stage: list, *, p: int, group, spec,
                                rate: float, progress: float,
                                traced: bool) -> dict:
    """Whole-world compute of the fused overlapped exchange.

    ``stage`` holds one ``((batch, cuts), clock)`` deposit per rank in
    group-rank order; ``group`` is the communicator's global-rank tuple,
    ``spec`` the machine, ``rate`` the per-element merge cost and
    ``progress`` the (SPMD-uniform) ``async_progress_overhead(p)``.
    Run by both backends; :func:`exchange_overlapped_fused` holds the
    exactness audit.  The ring arrival schedule is p x p by the cost
    model's definition, so the cuts are expanded here.
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
    spans = _counter_spans(p)
    tot = CS[:, spans[0][1]] - CS[:, spans[0][0]]
    for lo_, hi_ in spans[1:]:  # final fold: each level appended merges once
        tot = tot + (CS[:, hi_] - CS[:, lo_])
        inc = (tot * 1.0) * rate                      # merge_time(n, 2)
        t_cpu += inc
        if traced:
            msec += inc

    # -- global data materialisation --
    leaf = np.concatenate([np.arange(lo_, hi_) for lo_, hi_ in spans])
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
    del all_keys                                      # heap room for the sort
    final, ordered = stable_argsort_segments(keys_g, bounds, G)
    recv_all = S.sum(axis=0)                          # includes own chunk
    return {
        "t_cpu": t_cpu, "start": start, "msec": msec,
        "recv_net": recv_all - np.diagonal(S),        # excludes own chunk
        "recv_all": recv_all,
        "S": S,                                       # bytes[src, dst]
        "m": m_per_dst,
        "ordered": ordered, "cols": all_cols,
        "final": final, "bounds": bounds,
    }


def _overlapped_exchange_finish(comm: Comm, shared: dict
                                ) -> tuple[RecordBatch, ExchangeStats]:
    """Per-rank epilogue of the fused overlapped exchange.

    Materialises the rank's output slice, advances its clock to the
    replayed merge-completion time (with the traced cost split when a
    tracer is attached) and settles memory/counters.
    """
    p, me = comm.size, comm.rank
    recv_bytes = int(shared["recv_net"][me])
    comm.mem.alloc(recv_bytes)
    lo, hi = int(shared["bounds"][me]), int(shared["bounds"][me + 1])
    idx = shared["final"][lo:hi]
    out = RecordBatch._unsafe(
        shared["ordered"][lo:hi],
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


def _overlapped_exchange_finish_whole(world: World, comms: Sequence[Comm], shared: dict,
                                      send_nbytes: Sequence[int]) -> list:
    """:func:`_overlapped_exchange_finish` plus the send-buffer release,
    on a communicator's whole membership (no tracer, no fault plan),
    outputs as slices (:func:`_world_outputs`).  Either allocation can
    be refused: the rank fails there — before its clock moves, or with
    it moved and the receive buffer released — as its per-rank epilogue
    would leave it, and the others go on."""
    sim = comms[0]._world
    clocks, counters, mem = sim.clocks, sim.counters, sim.mem
    p = len(comms)
    outs: list = [None] * p
    for i, (c, out, recv, recv_all, t_cpu, m) in enumerate(zip(
            comms, _world_outputs(shared),
            shared["recv_net"].tolist(), shared["recv_all"].tolist(),
            shared["t_cpu"].tolist(), shared["m"].tolist())):
        g = c.grank
        tracker = mem[g]
        try:
            tracker.alloc(recv)
            if t_cpu > clocks[g]:
                clocks[g] = t_cpu
            tracker.free(recv_all)
            tracker.alloc(out.nbytes)
        except BaseException as exc:  # mirrors the engine's catch-all
            world.fail(c, exc)
            continue
        tally = counters[g]
        for name, value in (("coll.alltoallv_async", 1.0),
                            ("bytes.recv", recv)):
            tally[name] = (tally[name] if name in tally else 0.0) + value
        tracker.free(send_nbytes[i])                  # send buffer released
        outs[i] = (out, ExchangeStats("overlap", "overlap-merge", m, p))
    return outs


def exchange_overlapped_fused(comm: Comm, batch: RecordBatch,
                              displs: np.ndarray
                              ) -> tuple[RecordBatch, ExchangeStats]:
    """The overlapped exchange without materialising p^2 sub-batches.

    Bit-for-bit identical (clocks, counters, outputs) to splitting
    ``batch`` at ``displs`` and replaying ``alltoallv_async`` arrivals
    through a per-rank binary-counter merge (the first generation, now
    the oracle in ``tests/oracles_exchange.py``), but the O(p^2) work —
    size matrix, every rank's arrival schedule, the merge-clock replay —
    and the stable ordering of every rank's received data happen once,
    vectorised, inside the designated-rank action.  A rank reads back
    its clock, output slice and memory/counter charges in O(m + p).

    Exactness notes (audited against the per-rank formulation):

    * sub-batch sizes are ``count * row_nbytes`` — the same integers
      ``RecordBatch.split`` pre-computes;
    * arrival times are sequential float accumulations; ``np.cumsum``
      accumulates in the same order, so the IEEE rounding sequence is
      unchanged;
    * ``merge_time(n, 2)`` is ``(n * 1.0) * rate``, reproduced
      element-wise on exact int64 run lengths;
    * the stable permutation of each rank's chunk concatenation is
      unique, so one :func:`~repro.kernels.stable_argsort_segments`
      over the globally gathered key array equals the per-rank merge
      trees.
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
