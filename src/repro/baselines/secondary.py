"""Secondary-sort-key workaround for skew (paper Section 4.1.2).

The pre-SDS-Sort fix for duplicate-induced imbalance is to append a
tiebreaker to the key — the record's origin rank (Sundar et al.'s
disk-sorting follow-up) or a payload column (CloudRAMSort) — making
every key unique so histogram/sample splitters can cut anywhere.  The
paper declines to use it because the widened key must be *stored,
exchanged and compared* everywhere, and constrains the user's choice of
keys; Table 3's footnote says they therefore only compare key-only
methods.

This module implements the workaround so its cost is measurable:
:func:`hyksort_secondary_key` runs HykSort on composite
``(key, origin_rank, position)`` keys — duplicates become distinct, the
load balances, and stability even falls out — at the price of a 2.5x
wider key column and correspondingly heavier comparisons and exchange.
``bench_ext_secondary_key.py`` quantifies the trade against SDS-Sort,
which achieves the same balance with no key widening.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import Run, SortOutcome
from ..mpi import LANE, Comm, World
from ..records import RecordBatch, rank_batches
from .hyksort import HykParams, run_hyksort

#: Composite keys carry the original float64 key plus rank and position
#: tiebreakers packed into one structured comparison; we model the
#: width as key + int32 rank + int64 position = 20 bytes vs 8.
COMPOSITE_EXTRA_BYTES = 12

_RANK_COL = "_sk_rank"
_POS_COL = "_sk_pos"
_KEY_COL = "_sk_key"


def _widen(batch: RecordBatch, rank: int) -> RecordBatch:
    """Replace keys with unique composite keys; keep originals in payload.

    The composite is encoded order-preservingly into a float128-free
    form: since (rank, pos) only break ties among *equal* keys, we map
    each record to its global tiebreaker ``rank * 2^40 + pos`` and
    lexicographically combine via a structured sort key materialised as
    an index permutation.  For the simulated machine the functional
    effect (total order, no duplicates) is what matters; the width
    penalty is charged via the extra payload columns travelling in the
    exchange.
    """
    n = len(batch)
    payload = dict(batch.payload)
    payload[_KEY_COL] = batch.keys.copy()
    payload[_RANK_COL] = np.full(n, rank, dtype=np.int32)
    payload[_POS_COL] = np.arange(n, dtype=np.int64)
    # order-preserving unique key: original key ranks lexicographically
    # first; ties broken by (rank, pos).  Encode as a single float64
    # pair-free key by nudging equal keys apart with a *relative* epsilon
    # scaled far below the smallest key gap cannot be done safely in
    # float space, so we instead sort indices lexicographically and use
    # the global order statistic as the key.
    return RecordBatch(batch.keys, payload)


def _composite_order_keys_world(world: World, comms: list[Comm],
                                batches: list) -> list:
    """Globally unique float keys realising the (key, rank, pos) order.

    Computes each record's exact global rank under the composite order
    by combining the key's global rank (via sorted gather of counts)
    with the tiebreaker offsets — one allgather of per-rank duplicate
    counts, the same collective budget the stable partition uses.  The
    pooled unique-value vector is identical on every rank, so it is
    computed once per communicator, in the allgather.
    """
    nmaxs = world.allreduce(
        comms, [None if b is None else len(b) for b in batches], op=max)
    pooled = world.first_live(comms, world.allgather_staged(
        comms, [None if b is None else np.unique(b.keys) for b in batches],
        lambda uniques: np.unique(np.concatenate(uniques))))

    def composite(i: int, c: Comm) -> np.ndarray:
        b = batches[i]
        ranks = b.payload[_RANK_COL].astype(np.float64)
        pos = b.payload[_POS_COL].astype(np.float64)
        # strictly increasing composite: key major, then origin rank,
        # then position; scale tiebreakers into the fractional part
        p = c.size
        nmax = float(nmaxs[i]) + 1.0
        tie = (ranks * nmax + pos) / (p * nmax + 1.0)  # in [0, 1)
        # collapse each key value to its index among global unique
        # values so adding tie < 1 cannot reorder distinct keys
        idx = np.searchsorted(pooled, b.keys).astype(np.float64)
        return idx + tie

    return world.each(comms, composite)


def hyksort_secondary_key_world(world: World, comms: list[Comm],
                                batches: list,
                                params: HykParams = HykParams()
                                ) -> list[SortOutcome | None]:
    """HykSort with composite keys over every rank of one ``World`` view.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    batches = rank_batches(batches)
    with Run(world, comms) as run:
        widened = world.each(comms, lambda i, c: _widen(batches[i], c.rank))
        composites = _composite_order_keys_world(world, comms, widened)

        def composite_batch(i: int, c: Comm) -> RecordBatch:
            c.charge(c.cost.scan_time(len(batches[i]),
                                      record_bytes=COMPOSITE_EXTRA_BYTES))
            return RecordBatch(composites[i], widened[i].payload)

        run_hyksort(run, world.each(comms, composite_batch), params)
    return [None if out is None else SortOutcome(
        RecordBatch(out.batch.payload[_KEY_COL],
                    {k: v for k, v in out.batch.payload.items()
                     if k != _KEY_COL}),
        exchange=out.exchange,
        info={**out.info, "composite_extra_bytes": COMPOSITE_EXTRA_BYTES})
        for out in run.outcomes]


def hyksort_secondary_key(comm: Comm, batch: RecordBatch,
                          params: HykParams = HykParams()) -> SortOutcome:
    """HykSort with (key, origin rank, position) composite keys.

    Balances on arbitrarily skewed data (all keys unique) and is stable
    by construction — at the cost of widened records in every compare
    and every byte exchanged.  The driver charges that widening
    explicitly: record payload now carries the original key plus the
    two tiebreaker columns.
    """
    return hyksort_secondary_key_world(LANE, [comm], [batch], params)[0]
