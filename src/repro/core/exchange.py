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

Each mode is one staged collective: a whole-world compute
(:func:`sync_exchange_compute` / :func:`overlapped_exchange_compute`,
whose docstrings hold the exactness audits) and an epilogue that books
clocks, counters, memory and outputs — written once, over the ranks
handed in: a columnar world hands in a membership, a lane hands in
itself.  The synchronous mode is ``World.alltoallv``'s cell accounting
and booking plus the final ordering.
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
from ..mpi.cells import alltoallv_cells, dense_table
from ..mpi.world import members, per_rank, values_at
from ..records import BLOCK_RECORDS, RaggedTable, concat_rows, row_tables
from ..records.batch import record_layout


@dataclass(frozen=True)
class ExchangeStats:
    """What one rank saw during exchange + local ordering."""

    mode: str            # "sync" or "overlap"
    ordering: str        # "merge", "sort", or "overlap-merge"
    received: int        # records received (the paper's m_i)
    chunks: int          # runs entering local ordering


def sync_exchange_compute(stage: list, *, p: int, merge: bool,
                          stable: bool) -> dict:
    """Whole-world compute of the fused synchronous exchange.

    ``stage`` holds one ``((rows, cuts), clock)`` deposit per rank in
    group-rank order: its table (:func:`~repro.records.row_tables`) and
    checked :class:`~repro.mpi.cells.Cuts`.  Delivery and accounting are
    :func:`~repro.mpi.cells.alltoallv_cells` (its docstring: why the
    integers equal the p x p matrix reduction); on top of them every
    destination's input — its chunks in source order, addressed in
    :func:`~repro.records.concat_rows` — is ordered once.  Bit-for-bit
    what splitting each batch, a dense p-slot alltoallv and a per-rank
    merge or sort produce (the oracle in ``tests/oracles_exchange.py``):

    * for the ``merge`` branch (``p < tau_s``) the k-way merge of
      sorted source runs with earlier-chunk tie-breaking produces the
      unique stable permutation of each destination's input, which is
      what :func:`~repro.kernels.stable_argsort_segments` returns for
      all destinations at once (its docstring: why one packed sort of
      many destinations equals their separate sorts); its sorted keys
      are the outputs' key column, one ``ordered`` array read in slices;
    * the ``sort`` branch applies, destination by destination, the
      *same kernels* the per-rank path dispatches to
      (``natural_merge_sort_perm`` / ``sequential_argsort``) on
      value-identical keys: the unstable permutation is reproduced too.
    """
    shared = alltoallv_cells(stage, p)
    all_keys, all_cols, offs = concat_rows(shared["batches"])
    N = int(offs[-1])
    src, first, cnt = shared["src"], shared["first"], shared["cnt"]
    excl = np.concatenate(([0], np.cumsum(cnt)))      # records before cell
    G = (np.repeat(offs[src] + first - excl[:-1], cnt)
         + np.arange(N, dtype=np.int64))
    bounds = excl[shared["cell"]]

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
    shared.update(m=np.diff(bounds), ordered=ordered, cols=all_cols,
                  final=final, bounds=bounds)
    return shared


def _sync_exchange_network(world: World, comms: Sequence[Comm],
                           shared: dict, send_nbytes: Sequence[int]) -> list:
    """``alltoallv`` epilogue of the fused synchronous exchange, on the
    ranks handed in (a lane: itself): ``World.alltoallv``'s booking, then
    the send buffer of every rank it booked is released.
    """
    world._book_alltoallv(comms, shared)
    at = members(comms)[0]
    _, at, held = world._live(comms, at, values_at(at, send_nbytes))
    comms[0]._world.mem.free(at, held)                # send buffer released
    return [None] * len(comms)


def _world_outputs(shared: dict, ranks: Sequence[int]) -> list[tuple]:
    """The outputs of destinations ``ranks`` (ascending), a ``(table,
    row)`` each: consecutive destinations of up to
    :data:`~repro.records.BLOCK_RECORDS` records between them share one
    gather of each payload column through their stretch of ``final``,
    one :class:`~repro.records.RaggedTable` (a longer one, and a lane's
    own, is gathered alone).  Runs in the epilogue, once the compute's
    locals are gone."""
    if not ranks:
        return []
    first, n = ranks[0], len(ranks)
    if ranks[-1] - first != n - 1:                    # a failed rank between
        return [_world_outputs(shared, [r])[0] for r in ranks]
    final, ordered, sources = shared["final"], shared["ordered"], shared["cols"]
    bounds = shared["bounds"]
    edges = bounds[first:first + n + 1]               # of the n asked for
    outs: list[tuple] = []
    k = 0
    while k < n:
        lo = int(edges[k])
        stop = min(n, max(k + 1, int(np.searchsorted(
            bounds, lo + BLOCK_RECORDS, "right")) - 1 - first))
        idx = final[lo:edges[stop]]
        table = RaggedTable(ordered[lo:edges[stop]], {
            name: col[idx] for name, col in sources.items()},
            edges[k:stop + 1] - lo)
        outs += [(table, row) for row in range(stop - k)]
        k = stop
    return outs


def _sync_exchange_ordering(world: World, comms: Sequence[Comm],
                            shared: dict, *, merge: bool, stable: bool,
                            delta_hints: Sequence[float]) -> list:
    """Local-ordering epilogue of the fused synchronous exchange, on the
    ranks handed in: per-rank ``(table, row, ExchangeStats)``.

    Charges each rank's merge/sort cost (once per distinct ``(m,
    delta)``), releases its receive buffer, allocates and hands out its
    output (:func:`_world_outputs`).  A rank whose output is refused has
    paid its charge and released its receive buffer, and gets none.
    """
    p, sim = comms[0].size, comms[0]._world
    cost, mem = sim.cost, sim.mem
    at, ranks, pos = members(comms)
    ms = per_rank(shared["m"][ranks])[0]
    keys = list(zip(ms, delta_hints))
    dts = {(m, d): (cost.merge_time(m, max(2, p)) if merge else
                    cost.final_sort_time(m, p, stable=stable, delta=d))
           for m, d in set(keys)}
    seconds = [dts[key] for key in keys]
    ordering = "merge" if merge else "sort"
    world.charge_compute(comms, seconds)
    world.trace_counter(comms, f"kernel.{ordering}.records", ms)
    world.trace_counter(comms, f"kernel.{ordering}.seconds", seconds)
    live, at, ranks, pos = world._live(comms, at, ranks, pos)  # charge refused
    mem.free(at, shared["recv_tot"][ranks])           # the receive buffer
    width = record_layout(shared["ordered"], shared["cols"])[1]  # outputs'
    live, at, ranks, pos = world._refuse(
        live, mem.alloc(at, shared["m"][ranks] * width), at, ranks, pos)
    outs: list = [None] * len(comms)
    ranks, pos = per_rank(ranks, pos)
    stats = {m: ExchangeStats("sync", ordering, m, p) for m in set(ms)}
    for i, out in zip(pos, _world_outputs(shared, ranks)):
        outs[i] = (*out, stats[ms[i]])
    return outs


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
    Run by both backends.  The ring arrival schedule is p x p by the
    cost model's definition, so the world's cuts table is scattered
    into dense counts and first-record matrices here, once
    (:func:`~repro.mpi.cells.dense_table`; an empty chunk's start is
    never read).  Bit-for-bit
    what splitting each batch, the dense ring arrival schedule
    and a per-rank binary-counter merge produce (the oracle in
    ``tests/oracles_exchange.py``), with the O(p^2) work — size matrix,
    every rank's arrival schedule, the merge-clock replay — and the
    stable ordering of every rank's received data done once, vectorised:

    * sub-batch sizes are ``count * record_bytes`` — the same integers
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
    start = max(e[1] for e in stage)
    batches = [e[0][0] for e in stage]
    # counts[src, dst] and each chunk's first record in its sender's batch
    C, D = dense_table([e[0][1] for e in stage])
    widths = row_tables(batches)[2]
    S = C * widths[:, None]                           # bytes[src, dst]
    all_keys, all_cols, offs = concat_rows(batches)

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


def _overlapped_exchange_finish(world: World, comms: Sequence[Comm],
                                shared: dict,
                                send_nbytes: Sequence[int]) -> list:
    """Epilogue of the fused overlapped exchange plus the send-buffer
    release, on the ranks handed in: per-rank ``(table, row,
    ExchangeStats)``.  Advances each clock to its replayed
    merge-completion time (a tracer gets the fused span, cost split,
    the nonzeros of ``S`` as edges and merge counters), settles memory
    and counters and hands out the outputs (:func:`_world_outputs`).  A refused allocation
    fails its rank there, before its clock moves or with the receive
    buffer released, and the others go on.
    """
    sim = comms[0]._world
    mem, tr = sim.mem, sim.tracer
    p = comms[0].size
    progress = sim.cost.async_progress_overhead(p) if tr is not None else 0.0
    at, ranks, pos = members(comms)
    live, at, ranks, pos, held = world._live(comms, at, ranks, pos,
                                             values_at(at, send_nbytes))
    recv = shared["recv_net"][ranks]
    live, at, ranks, pos, held, recv = world._refuse(
        live, mem.alloc(at, recv), at, ranks, pos, held, recv)
    m, c0 = shared["m"], sim.clock[at]
    debt = sim.set_clocks(at, np.maximum(c0, shared["t_cpu"][ranks]))
    if tr is not None:
        tr.overlapped(at, c0, sim.clock[at], shared["start"], progress, debt,
                      {"bytes": recv, "records": m[ranks]})
        S = shared["S"]
        sent = S if np.size(ranks) == len(S) else S[np.atleast_1d(ranks)]
        i, d = np.nonzero(sent)
        tr.edge(np.atleast_1d(at)[i], comms[0]._ctx.index[d], sent[i, d])
        tr.add(at, "kernel.merge.records", m[ranks])
        tr.add(at, "kernel.merge.seconds", shared["msec"][ranks])
    mem.free(at, shared["recv_all"][ranks])
    width = record_layout(shared["ordered"], shared["cols"])[1]  # outputs'
    live, at, ranks, pos, held, recv = world._refuse(
        live, mem.alloc(at, m[ranks] * width), at, ranks, pos, held, recv)
    sim.counters.add(at, "coll.alltoallv_async", 1.0)
    sim.counters.add(at, "bytes.recv", recv)
    mem.free(at, held)                                # send buffer released
    outs: list = [None] * len(comms)
    ranks, pos, m = per_rank(ranks, pos, m[ranks])
    stats = {mr: ExchangeStats("overlap", "overlap-merge", mr, p)
             for mr in set(m)}
    for i, out, mr in zip(pos, _world_outputs(shared, ranks), m):
        outs[i] = (*out, stats[mr])
    return outs
