"""Deterministic fault schedules: the compiled form the engine consults.

A :class:`FaultPlan` is a :class:`~repro.faults.spec.FaultSpec` resolved
against a world shape ``(p, seed)``.  Every fault event is a pure
function of ``(seed, structural position)`` — the structural position
being *which* message (source, destination, tag, per-edge sequence
number) or *which* collective (communicator group, per-communicator
collective sequence number, rank) — never of host time or thread
scheduling.  Two runs of the same program under the same plan therefore
observe the identical fault schedule, which is the determinism contract
``sdssort chaos`` report hashes and the resilience tests pin.

Randomness sources, both seeded and counter-based:

* scalar decisions (straggler membership, crash victims, per-message
  drop/delay/duplicate trials, transient collective failures) use a
  SplitMix64 hash chain over the event coordinates — pure integer
  arithmetic, identical on every platform;
* aggregate decisions (how many of a collective's ``p - 1`` per-peer
  messages dropped) use a Philox counter-based generator keyed from the
  same coordinates, so one vectorised binomial draw replaces ``p - 1``
  scalar trials on the per-collective hot path (one generator per
  thread, re-seated per rank).

The plan prices nothing itself: recovery costs are charged by the
engine hooks through the machine's LogGP cost model, using the
:class:`~repro.faults.spec.RetryPolicy` carried by the spec.
"""

from __future__ import annotations

import threading
from typing import Any, NamedTuple, Sequence

import numpy as np

from .spec import CRASH_BOUNDARIES, FaultSpec

__all__ = ["MessageEvent", "CollectivePenalty", "FaultPlan"]

_MASK = (1 << 64) - 1

# Domain separators: every fault family draws from its own hash stream
# so that e.g. enabling delays never perturbs which messages drop.
_DOM_STRAGGLER = 0x51
_DOM_CRASH = 0x52
_DOM_DROP = 0x53
_DOM_DELAY = 0x54
_DOM_DUP = 0x55
_DOM_COLL_DROP = 0x56
_DOM_COLL_FAIL = 0x57


def _mix(*parts: int, h: int = 0x9E3779B97F4A7C15) -> int:
    """SplitMix64-style avalanche over integer coordinates; ``h`` resumes
    a chain (``_mix(a, b) == _mix(b, h=_mix(a))``)."""
    for part in parts:
        h = (h ^ (part & _MASK)) & _MASK
        h = (h * 0xBF58476D1CE4E5B9) & _MASK
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h


def _unit(*parts: int) -> float:
    """Deterministic uniform in [0, 1) from integer coordinates."""
    return _mix(*parts) / 2.0**64


def _draw_order(seed: int, dom: int, p: int) -> list[int]:
    """All ``p`` ranks in the seed's order for one draw family."""
    h = _mix(seed, dom)
    return sorted(range(p), key=lambda r: _mix(r, h=h))


_LOCAL = threading.local()


def _philox(key: int) -> np.random.Generator:
    """This thread's generator (rank threads share a plan), re-seated to
    the state ``Philox(key=key)`` starts from — without the constructor's
    throwaway ``SeedSequence`` drawn from the OS entropy pool."""
    seat = getattr(_LOCAL, "seat", None)
    if seat is None:
        gen, words = np.random.Generator(np.random.Philox(0)), [0, 0]
        state = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
                 "state": {"counter": [0, 0, 0, 0], "key": words},
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        seat = _LOCAL.seat = (gen, gen.bit_generator, state, words)
    gen, bitgen, state, words = seat
    words[0] = key
    bitgen.state = state
    return gen


class MessageEvent(NamedTuple):
    """What the transport does to one point-to-point message."""

    drops: int        # failed transmission attempts before delivery
    delay: float      # injected extra latency (seconds)
    duplicate: bool   # a spurious second copy is injected
    lost: bool        # dropped more than max_retries times: unrecoverable


class CollectivePenalty(NamedTuple):
    """Faults one rank observed in one staged collective."""

    detect_seconds: float      # timeout latency (retry policy)
    resend_messages: int       # retransmissions to price via p2p_time
    resync_rounds: int         # failed whole-collective attempts
    dropped: int               # per-peer messages dropped (this rank)
    lost: bool                 # a message exhausted max_retries


class FaultPlan:
    """One compiled, fully deterministic fault schedule.

    Construct via :meth:`repro.faults.spec.FaultSpec.compile`.  The
    engine treats the plan as read-only; all methods are pure.
    """

    def __init__(self, spec: FaultSpec, p: int, seed: int):
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        self.spec = spec
        self.p = p
        self.seed = int(seed)
        self._group_hashes: dict[tuple[int, ...], int] = {}

        # ---- resolve stragglers: seed-drawn ranks become concrete ----
        # (a draw order sorts all p ranks: built only when a draw reads it)
        slow = [1.0] * p
        order: list[int] = []
        drawn = 0
        for s in spec.stragglers:
            if s.rank >= 0:
                if s.rank < p:
                    slow[s.rank] = max(slow[s.rank], s.slowdown)
            else:
                order = order or _draw_order(self.seed, _DOM_STRAGGLER, p)
                for _ in range(min(s.count, p)):
                    slow[order[drawn % p]] = max(slow[order[drawn % p]],
                                                 s.slowdown)
                    drawn += 1
        #: compute-charge multiplier of every global rank (>= 1.0)
        self.slowdowns = slow
        self.has_stragglers = max(slow) != 1.0

        # ---- resolve crash victims ----
        crashes: dict[int, str] = {}
        corder: list[int] = []
        cdrawn = 0
        for c in spec.crashes:
            if c.rank >= 0:
                victim = c.rank
            else:
                corder = corder or _draw_order(self.seed, _DOM_CRASH, p)
                victim = corder[cdrawn % p]
                cdrawn += 1
            if victim < p and victim not in crashes:
                crashes[victim] = c.phase
        self._crashes = crashes
        self.has_crashes = bool(crashes)

        m = spec.messages
        self.has_message_faults = m.any
        self.affects_collectives = (m.drop_rate > 0
                                    or spec.collectives.transient_rate > 0)
        self.active = (self.has_stragglers or self.has_crashes
                       or self.has_message_faults or self.affects_collectives)

    # ------------------------------------------------------------------
    # per-family queries (all pure)
    # ------------------------------------------------------------------
    def slowdown(self, grank: int) -> float:
        """Compute-charge multiplier of one global rank (>= 1.0)."""
        return self.slowdowns[grank]

    def crash_at(self, grank: int, boundary: str) -> bool:
        """Does ``grank`` die when it reaches ``boundary``?"""
        if boundary not in CRASH_BOUNDARIES:
            raise ValueError(f"unknown crash boundary {boundary!r}; "
                             f"options: {', '.join(CRASH_BOUNDARIES)}")
        return self._crashes.get(grank) == boundary

    @property
    def crash_schedule(self) -> dict[int, str]:
        """Resolved ``{global rank: boundary}`` crash map (read-only use)."""
        return dict(self._crashes)

    def p2p_event(self, src: int, dst: int, tag: int,
                  seq: int) -> MessageEvent:
        """Transport faults for the ``seq``-th message on one edge.

        ``seq`` counts messages per ``(src, dst, tag)`` edge; sender
        and receiver maintain the counter independently and agree
        because channels are FIFO.
        """
        m = self.spec.messages
        r = self.spec.retry
        drops = 0
        lost = False
        if m.drop_rate > 0:
            while (_unit(self.seed, _DOM_DROP, src, dst, tag, seq, drops)
                   < m.drop_rate):
                drops += 1
                if drops > r.max_retries:
                    lost = True
                    break
        delay = 0.0
        if (m.delay_rate > 0
                and _unit(self.seed, _DOM_DELAY, src, dst, tag, seq)
                < m.delay_rate):
            delay = m.delay
        duplicate = (m.duplicate_rate > 0
                     and _unit(self.seed, _DOM_DUP, src, dst, tag, seq)
                     < m.duplicate_rate)
        return MessageEvent(drops, delay, duplicate, lost)

    def _group_hash(self, group: Sequence[int]) -> int:
        key = tuple(group)
        h = self._group_hashes.get(key)
        if h is None:
            h = _mix(len(key), *key)
            self._group_hashes[key] = h
        return h

    def collective_penalties(self, group: Sequence[int], seq: int,
                             ranks: Sequence[int],
                             ) -> list[CollectivePenalty | None]:
        """Faults each of ``ranks`` observes in the ``seq``-th collective
        of ``group`` (communicator ranks, any subset), aligned with them.

        Two components:

        * **per-peer message drops** — each of the collective's
          ``size - 1`` messages independently drops with
          ``messages.drop_rate`` per attempt.  Retransmission rounds
          run in parallel (one timeout per round, escalating with the
          policy's backoff), while the resends themselves serialise on
          the rank's CPU — the caller prices them via ``p2p_time``.
          Drawn with a Philox generator keyed on ``(seed, group, seq,
          rank)``: one vectorised binomial chain instead of ``size - 1``
          scalar trials.
        * **transient whole-collective failures** — ``k`` consecutive
          failed attempts with ``collectives.transient_rate`` each;
          identical for every member (drawn once, keyed without ``rank``),
          so the re-synchronisation debt keeps the group's clocks aligned.

        ``detect_seconds`` adds drop timeouts first, then each transient
        one; ``None`` marks a rank that observes no fault (the common case).
        """
        size, r, gh = len(group), self.spec.retry, self._group_hash(group)
        drop, rate = self.spec.messages.drop_rate, self.spec.collectives.transient_rate
        timeout, backoff, retries = r.timeout, r.backoff, r.max_retries
        steps = []  # timeout of each failed whole-collective attempt
        while (rate and len(steps) < retries
               and _unit(self.seed, _DOM_COLL_FAIL, gh, seq, len(steps)) < rate):
            steps.append(timeout * backoff ** len(steps))
        if size <= 1 or not (drop or steps):
            return [None] * len(ranks)
        prefix = _mix(self.seed, _DOM_COLL_DROP, gh, seq)
        out: list[CollectivePenalty | None] = []
        for rank in ranks:
            detect = 0.0
            dropped = 0
            lost = False
            if drop:
                binomial = _philox(_mix(rank, h=prefix)).binomial
                pending = size - 1
                attempt = 0
                while pending:
                    fell = int(binomial(pending, drop))
                    if fell == 0:
                        break
                    if attempt >= retries:
                        lost = True
                        break
                    detect += timeout * backoff ** attempt
                    dropped += fell
                    pending = fell
                    attempt += 1
            for step in steps:
                detect += step
            out.append(CollectivePenalty(detect, dropped, len(steps),
                                         dropped, lost)
                       if detect or dropped or steps or lost else None)
        return out

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Resolved schedule summary (for reports; JSON-serialisable)."""
        return {
            "p": self.p,
            "seed": self.seed,
            "stragglers": {str(r): f for r, f in enumerate(self.slowdowns)
                           if f != 1.0},
            "crashes": {str(r): ph for r, ph in sorted(self._crashes.items())},
            "message_faults": {
                "drop_rate": self.spec.messages.drop_rate,
                "delay_rate": self.spec.messages.delay_rate,
                "duplicate_rate": self.spec.messages.duplicate_rate,
            },
            "collective_transient_rate":
                self.spec.collectives.transient_rate,
            "retry": {"timeout": self.spec.retry.timeout,
                      "backoff": self.spec.retry.backoff,
                      "max_retries": self.spec.retry.max_retries},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(p={self.p}, seed={self.seed}, "
                f"stragglers={sum(1 for f in self.slowdowns if f != 1.0)}, "
                f"crashes={self._crashes}, "
                f"msg={self.has_message_faults}, "
                f"coll={self.affects_collectives})")
