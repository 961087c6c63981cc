"""Shared state behind one simulated communicator.

A :class:`CommContext` is created once per communicator (world or
split) and shared by its member ranks' :class:`~repro.mpi.comm.Comm`
handles.  It provides abortable barrier synchronisation and a staging
area for collective data movement.

Collectives follow a single-barrier protocol with a shared compute
step::

    deposit into stage[my_index]
    shared = sync(action)   # everyone deposited; the LAST arriver runs
                            # ``action`` once; its return value is
                            # handed to every waiter of this generation
    read captured stage / shared

The barrier itself carries the collective's result: the last arriver's
``action`` computes it and swaps a *fresh* stage list into the context
before releasing, so readers keep working off their captured reference
to the old list and no release barrier is needed — one barrier cycle
per collective instead of two (at p=1024 the barrier wake storm is the
dominant host cost, so this halves it).

Running the collective's shared result computation exactly once (by
whichever rank happens to arrive last — the inputs are fully staged, so
the result is independent of which thread computes it) replaces the
seed engine's per-rank reduction loops: what used to be O(p) Python
work on each of p ranks (O(p^2) aggregate, O(p^3) for the alltoallv
size scans) is now computed a single time per collective.

The payload hand-off is race-free without extra state: a later
generation's last arriver can only overwrite ``_payload`` after every
party has arrived at that later barrier, which requires each of them to
have first woken from — and read the payload of — the previous one.

All blocking primitives are event-driven: waiters sleep on condition
variables that are notified by barrier release, channel puts, and —
crucially — by :meth:`AbortFlag.set`, so blocked ranks burn zero CPU
and abort latency is bounded by a wakeup, not a polling interval.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import SimAbort

#: Lost-wakeup safety net (real seconds).  Every blocking wait is woken
#: explicitly (barrier release, channel put, abort); this timeout only
#: bounds the damage of a hypothetical missed notification and costs
#: one spurious wakeup every few seconds while blocked.
_SAFETY_TIMEOUT = 5.0


class AbortFlag:
    """World-wide failure flag checked by every blocking primitive.

    Blocking primitives register their condition variables here;
    :meth:`set` notifies all of them, so a failing rank wakes every
    blocked sibling immediately instead of after a polling interval.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._conds: list[threading.Condition] = []

    def register(self, cond: threading.Condition) -> None:
        """Subscribe a condition variable to abort notifications."""
        with self._lock:
            self._conds.append(cond)

    def set(self) -> None:
        self._event.set()
        with self._lock:
            conds = list(self._conds)
        for cond in conds:
            with cond:
                cond.notify_all()

    @property
    def is_set(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise SimAbort("world aborted by a failing rank")


class _CondBarrier:
    """Sense-reversing generation barrier with a last-arriver action.

    Unlike :class:`threading.Barrier`, an aborting rank cannot corrupt
    the barrier for survivors — survivors are woken by the abort flag's
    ``notify_all`` and unwind with :class:`SimAbort`.

    The optional ``action`` runs exactly once per barrier cycle, by the
    last-arriving thread, *before* the others are released — the hook
    the collectives use to compute their shared result while every
    deposit is guaranteed staged and no reader has been released yet.
    Whatever ``action`` returns is handed to every thread of the cycle
    as :meth:`wait`'s return value, which is what lets a collective
    complete in a single barrier.
    """

    def __init__(self, parties: int, abort: AbortFlag):
        self._parties = parties
        self._count = 0
        self._generation = 0
        self._payload: Any = None
        self._cond = threading.Condition()
        abort.register(self._cond)

    def wait(self, abort: AbortFlag,
             action: Callable[[], Any] | None = None) -> Any:
        abort.check()
        with self._cond:
            gen = self._generation
            self._count += 1
            if self._count == self._parties:
                try:
                    payload = action() if action is not None else None
                    self._payload = payload
                except BaseException:
                    # a failing action (e.g. a fused collective's compute
                    # step) aborts the world *before* releasing, so the
                    # siblings unwind with SimAbort instead of reading an
                    # unset payload
                    abort.set()
                    raise
                finally:
                    self._count = 0
                    self._generation = gen + 1
                    self._cond.notify_all()
                return payload
            while self._generation == gen and not abort.is_set:
                self._cond.wait(timeout=_SAFETY_TIMEOUT)
            payload = self._payload
        abort.check()
        return payload


class Channel:
    """Event-driven FIFO message channel for one (src, dst, tag) edge.

    Replaces the seed's ``queue.SimpleQueue`` + poll loop: the receiver
    sleeps on the channel's condition variable and is woken by a put or
    by the world aborting.  Only one thread (the destination rank) ever
    receives from a channel, so :meth:`put` notifies a single waiter.
    """

    __slots__ = ("_items", "_cond")

    def __init__(self, abort: AbortFlag):
        self._items: deque = deque()
        self._cond = threading.Condition()
        abort.register(self._cond)

    def put(self, item: Any) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def get_nowait(self) -> Any | None:
        """Pop the head message, or ``None`` if the channel is empty."""
        with self._cond:
            if self._items:
                return self._items.popleft()
            return None

    def get(self, abort: AbortFlag) -> Any:
        """Block (abortably, event-driven) until a message arrives."""
        with self._cond:
            while not self._items and not abort.is_set:
                self._cond.wait(timeout=_SAFETY_TIMEOUT)
            abort.check()
            return self._items.popleft()


class CommContext:
    """Barrier + staging area shared by the members of one communicator.

    Parameters
    ----------
    group:
        Global rank ids of the members, in communicator rank order.
    abort:
        The world's abort flag; barriers subscribe to it so failures
        elsewhere wake and unwind every member instead of deadlocking.
    """

    def __init__(self, group: Sequence[int], abort: AbortFlag):
        self.group: tuple[int, ...] = tuple(group)
        self.size = len(self.group)
        self.abort = abort
        self._barrier = _CondBarrier(self.size, abort)
        #: Deposit slots for the *current* collective generation.  The
        #: last arriver's barrier action swaps in a fresh list (see
        #: :meth:`repro.mpi.comm.Comm.staged`), so readers holding a
        #: reference to the old list need no release barrier before the
        #: next collective reuses the attribute.
        self.stage: list[Any] = [None] * self.size
        #: every member's count of the collectives it has entered (the
        #: fault plan's verdict key); a rank thread writes only its own
        self.seq = np.zeros(self.size, dtype=np.int64)
        #: ``(node, ranks_per_node)`` per member, filled by the first
        #: :meth:`repro.mpi.comm.SimWorld.node_layout` query.
        self.nodes: tuple[list[int], list[int]] | None = None

    @cached_property
    def index(self) -> np.ndarray:
        """``group`` as an index array, built on first use."""
        return np.array(self.group, dtype=np.intp)

    def sync(self, action: Callable[[], Any] | None = None) -> Any:
        """Abortable barrier; ``action`` runs once, by the last arriver.

        Returns ``action``'s result on every member of the cycle.
        """
        return self._barrier.wait(self.abort, action)

    def fresh_stage(self) -> list:
        """Swap in (and return) a new stage list for the next generation.

        Called from inside a barrier action, i.e. while every member of
        the current generation is still blocked, so no deposit can race
        with the swap.
        """
        self.stage = [None] * self.size
        return self.stage
