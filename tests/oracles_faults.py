"""Replaced fault-plan formulations, kept as test oracles.

**The per-rank collective verdict.**  Each rank of a staged collective
built its own ``Generator(Philox(key=...))`` keyed on ``(seed, group,
seq, rank)`` and re-drew the membership's transient failures for
itself.  Production draws a membership's verdicts in one pass
(``FaultPlan.collective_penalties``): one re-seated generator per
thread, the key prefix and the transient verdict once.  This is the
definition it must reproduce bit for bit, ``detect_seconds`` float
order included.

**The eager schedule.**  Compiling a plan sorted all ``p`` ranks twice,
once per draw family, whether or not a seed-drawn straggler or crash
read the order; production sorts only for a draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.faults import FaultSpec
from repro.faults.plan import (
    _DOM_COLL_DROP,
    _DOM_COLL_FAIL,
    _DOM_CRASH,
    _DOM_STRAGGLER,
    CollectivePenalty,
    FaultPlan,
    _mix,
    _unit,
)


def schedule(spec: FaultSpec, p: int, seed: int
             ) -> tuple[list[float], dict[int, str]]:
    """``(per-rank slowdown, {rank: crash boundary})`` of a compile."""
    slow = [1.0] * p
    order = sorted(range(p), key=lambda r: _mix(seed, _DOM_STRAGGLER, r))
    drawn = 0
    for s in spec.stragglers:
        if s.rank >= 0:
            if s.rank < p:
                slow[s.rank] = max(slow[s.rank], s.slowdown)
        else:
            for _ in range(min(s.count, p)):
                slow[order[drawn % p]] = max(slow[order[drawn % p]],
                                             s.slowdown)
                drawn += 1
    crashes: dict[int, str] = {}
    corder = sorted(range(p), key=lambda r: _mix(seed, _DOM_CRASH, r))
    cdrawn = 0
    for c in spec.crashes:
        if c.rank >= 0:
            victim = c.rank
        else:
            victim = corder[cdrawn % p]
            cdrawn += 1
        if victim < p and victim not in crashes:
            crashes[victim] = c.phase
    return slow, crashes


def collective_penalty(plan: FaultPlan, group: Sequence[int], seq: int,
                       rank: int) -> CollectivePenalty | None:
    """Faults ``rank`` observes in the ``seq``-th collective of ``group``."""
    size = len(group)
    if size <= 1:
        return None
    m = plan.spec.messages
    r = plan.spec.retry
    detect = 0.0
    resend = 0
    dropped = 0
    lost = False
    if m.drop_rate > 0:
        gh = plan._group_hash(group)
        gen = np.random.Generator(np.random.Philox(
            key=_mix(plan.seed, _DOM_COLL_DROP, gh, seq, rank)))
        pending = size - 1
        attempt = 0
        while pending:
            fell = int(gen.binomial(pending, m.drop_rate))
            if fell == 0:
                break
            if attempt >= r.max_retries:
                lost = True
                break
            detect += r.timeout * r.backoff ** attempt
            dropped += fell
            resend += fell
            pending = fell
            attempt += 1
    resync = 0
    rate = plan.spec.collectives.transient_rate
    if rate > 0:
        gh = plan._group_hash(group)
        while (resync < r.max_retries
               and _unit(plan.seed, _DOM_COLL_FAIL, gh, seq, resync)
               < rate):
            detect += r.timeout * r.backoff ** resync
            resync += 1
    if not (detect or resend or resync or lost):
        return None
    return CollectivePenalty(detect, resend, resync, dropped, lost)
