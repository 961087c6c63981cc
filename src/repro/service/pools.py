"""Keyed warm-pool cache: persistent engine pools reused across jobs.

The engine's ``SpmdPool`` rank threads already survive runs — until now
only benchmark sweeps exploited that.  The cache makes pool survival a
service feature: jobs lease a pool keyed by ``(backend, p)`` and return
it warm, so a stream of same-shaped requests pays thread start-up once,
not per job.  Leases are exclusive — a pool is handed to one job at a
time (concurrent same-key jobs get their own pools, created on demand), and
the lease refcount on :class:`~repro.mpi.engine.SpmdPool` guarantees
eviction can never tear a pool down under a borrower.

Every job takes a lease, and every lease is counted: a **hit** had no
thread start-up to pay (an idle pool reused, or a pool-less lease for a
backend with no rank threads), a **miss** built a pool.  So ``hits /
(hits + misses)`` is the share of jobs that paid no thread start-up (1.0
on an all-flat stream); ``evictions`` and ``idle`` speak of real pools
only, and no ``SpmdPool`` exists until a ``thread`` job arrives.
"""

from __future__ import annotations

import threading
from typing import Any

from ..mpi.engine import SpmdPool

#: Default cap on idle pools retained across all keys.
DEFAULT_MAX_POOLS = 8


def pool_key(backend: str, p: int) -> tuple[str, int] | None:
    """Cache key of a job's pool, or ``None`` for pool-less backends.

    Only the thread backend runs on a pool (flat has no rank
    threads); its pools are keyed by ``p`` — a pool grown to 4Ki
    threads is wasted on p=16 jobs and vice versa.
    """
    return ("thread", p) if backend == "thread" else None


class PoolLease:
    """One job's exclusive hold on a cached pool (none if pool-less)."""

    def __init__(self, cache: "WarmPoolCache", key: tuple | None,
                 pool: SpmdPool | None):
        self._cache = cache
        self.key = key
        self.pool = pool
        self._released = False

    def release(self) -> None:
        """Return the pool to the cache (idempotent)."""
        if self._released:
            return
        self._released = True
        if self.pool is None:
            return
        self.pool.release()
        self._cache._return(self.key, self.pool)

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class WarmPoolCache:
    """Bounded cache of idle engine pools, keyed by job shape.

    ``lease`` hands out an idle pool for the key, or nothing for a
    pool-less backend (hit), or creates a pool (miss); ``_return``
    re-shelves it unless the idle set is at ``max_pools``, in which
    case the pool is shut down (eviction — safe, because a
    just-released pool holds no leases).  All bookkeeping is under one
    lock; pool *use* happens outside it.
    """

    def __init__(self, max_pools: int = DEFAULT_MAX_POOLS,
                 metrics: Any = None):
        if max_pools < 1:
            raise ValueError("max_pools must be >= 1")
        self.max_pools = max_pools
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[SpmdPool]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # optional ServiceMetrics (duck-typed): mirrors the three
        # counters into the registry; None keeps the cache standalone
        self._metrics = metrics

    def lease(self, backend: str, p: int) -> PoolLease:
        key = pool_key(backend, p)
        with self._lock:
            shelf = self._idle.get(key)
            pool = shelf.pop() if shelf else None
            miss = key is not None and pool is None  # threads to start
            if miss:
                self.misses += 1
            else:
                self.hits += 1
            if self._metrics is not None:
                self._metrics.record_pool_event("miss" if miss else "hit")
        if miss:
            pool = SpmdPool()
        return PoolLease(self, key, None if pool is None else pool.lease())

    def _return(self, key: tuple, pool: SpmdPool) -> None:
        with self._lock:
            total_idle = sum(len(s) for s in self._idle.values())
            if total_idle >= self.max_pools:
                self.evictions += 1
                if self._metrics is not None:
                    self._metrics.record_pool_event("evict")
            else:
                self._idle.setdefault(key, []).append(pool)
                return
        pool.shutdown()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "idle": {"/".join(map(str, k)): len(v)
                         for k, v in sorted(self._idle.items())},
                "max_pools": self.max_pools,
            }

    def shutdown(self) -> None:
        """Shut down every idle pool (service close)."""
        with self._lock:
            pools = [pool for shelf in self._idle.values() for pool in shelf]
            self._idle.clear()
        for pool in pools:
            pool.shutdown()
