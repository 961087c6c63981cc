"""SPMD launcher: run the same function on ``p`` simulated ranks.

``run_spmd(fn, p)`` is the simulation counterpart of
``mpiexec -n p python script.py``: it hands each of ``p`` rank threads
a :class:`~repro.mpi.comm.Comm`, and gathers results, virtual clocks,
phase breakdowns and memory statistics.

Rank threads come from a persistent :class:`SpmdPool` (grown on demand,
reused across ``run_spmd`` invocations), so benchmark sweeps that launch
hundreds of worlds pay thread start-up once instead of per data point.
A pool's rank threads share one CPU of the process's allowed set while
their ranks are shallow (see :class:`SpmdPool`): they hand one GIL to
each other at every collective, and a hand-off across cores costs a
second wake-up.

Failure semantics: if any rank raises, the world aborts; sibling ranks
unwind with :class:`SimAbort` at their next blocking call, and the
engine either raises :class:`RankFailure` (default) or returns a result
object with ``failure`` set (``check=False``) — the latter is how
benches report the paper's HykSort OOM entries instead of crashing.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from functools import cached_property
from typing import Any, Callable, Sequence

from ..machine import LAPTOP, MachineSpec
from .comm import Comm, SimWorld
from .errors import RankFailure, RunCancelled, SimAbort
from .world import per_rank

#: Per-thread stack size; rank programs are shallow, so a small stack
#: lets runs with thousands of ranks stay cheap.
_STACK_BYTES = 512 * 1024

#: Worlds at least this large run under a coarser GIL switch interval.
#: CPython's default 5 ms preemption quantum makes a thousand runnable
#: rank threads thrash: each forced GIL hand-off wakes another thread
#: for a sliver of bytecode; sharing one CPU (see :class:`SpmdPool`)
#: shrinks the convoy but does not remove it.  Rank threads block
#: voluntarily at every collective, so coarse preemption costs nothing
#: in responsiveness.
_COARSE_SWITCH_RANKS = 64
_COARSE_SWITCH_INTERVAL = 0.05

#: The functional engines :func:`run_spmd` executes itself
#: (``repro.runner.BACKENDS`` adds the analytic and resolving names).
ENGINE_BACKENDS = ("thread", "flat")

# ``sys.setswitchinterval`` is process-global, so the coarse-mode toggle
# is refcounted here instead of living inside one pool's lock: two pools
# running concurrently would otherwise each save-and-restore, and the
# second restore could reinstate the *coarse* interval as "the original".
_switch_lock = threading.Lock()
_switch_depth = 0
_switch_saved = 0.0


#: Peak live ledger bytes (``comm.mem``) from which a rank is *deep*: its
#: thread leaves, or stays off, the pool's shared CPU.  Sharing a core
#: saves ~40 us per rank per collective; running free lets the rank's
#: numpy sections, which release the GIL, overlap with its siblings'.
#: On two cores 8 000 uniform records per rank run faster shared and
#: 32 000 about even (CHANGELOG.md); more cores move the crossover
#: down, so the mark sits just above the first shape.
_DEEP_RANK_BYTES = 512 * 1024


def _place() -> tuple[int, list[int]] | None:
    """``(shared cpu, allowed cpus)`` for a new pool; ``None`` = no placement.

    Every pool of a process shares one CPU — they also share one GIL —
    and ``os.getpid()`` spreads sibling processes (xdist workers,
    several daemons) over the allowed set.  With one allowed CPU (a
    pinned process, or a pool created from inside a placed rank thread,
    which inherits its one-CPU mask) or no affinity API there is nothing
    to choose.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        return None
    if len(allowed) < 2:
        return None
    return allowed[os.getpid() % len(allowed)], allowed


class Seat:
    """Which side of :func:`_place`'s rule one thread is on.  The thread
    moves only itself: ``move(True)`` pins the caller to the process's
    shared CPU, ``move(False)`` frees it to the allowed set.  Rank workers
    and the threads ``repro.service`` creates all sit through this."""

    def __init__(self, place: tuple[int, list[int]] | None):
        self.place = place
        self.shared = False  # pinned to the shared CPU

    def move(self, shared: bool) -> None:
        if self.place is None or self.shared == shared:
            return
        cpu, allowed = self.place
        try:
            # pid 0 = the calling *thread* on Linux: the rest of the
            # process keeps its mask
            os.sched_setaffinity(0, {cpu} if shared else allowed)
            self.shared = shared
        except (AttributeError, OSError):  # refused: stay put for good
            self.place, self.shared = None, False


def _rank_grew(peak: int) -> None:
    """``MemoryLedger.on_peak`` of a thread world: tells the rank's thread
    (the allocating one) which side of the mark it is on."""
    me = threading.current_thread()
    if isinstance(me, _Worker):
        me.sized(peak >= _DEEP_RANK_BYTES)


def _coarse_enter() -> None:
    global _switch_depth, _switch_saved
    with _switch_lock:
        if _switch_depth == 0:
            _switch_saved = sys.getswitchinterval()
            if _switch_saved < _COARSE_SWITCH_INTERVAL:
                sys.setswitchinterval(_COARSE_SWITCH_INTERVAL)
        _switch_depth += 1


def _coarse_exit() -> None:
    global _switch_depth
    with _switch_lock:
        _switch_depth -= 1
        if _switch_depth == 0:
            sys.setswitchinterval(_switch_saved)


class _Latch:
    """Count-down completion latch for one SPMD run."""

    def __init__(self, parties: int):
        self._remaining = parties
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            self._remaining -= 1
            if self._remaining == 0:
                self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            while self._remaining:
                self._cond.wait()


class _Worker(threading.Thread):
    """One pool thread hosting a simulated rank for the current run.

    Idles on a condition variable between runs (zero CPU); a submitted
    task is ``(fn, rank, latch)`` and the worker always counts the
    latch down, even if the rank program escapes the engine's own
    exception handling.  ``place`` is the pool's :func:`_place`; the
    worker moves itself between the shared CPU and the allowed set as
    :class:`SpmdPool` describes.
    """

    def __init__(self, index: int, place: tuple[int, list[int]] | None):
        super().__init__(name=f"spmd-worker-{index}", daemon=True)
        self._seat = Seat(place)
        self._sized = False  # the current rank's ledger has spoken
        self._cond = threading.Condition()
        self._task: tuple[Callable[[int], None], int, _Latch] | None = None
        self._halt = False

    def submit(self, fn: Callable[[int], None], rank: int, latch: _Latch) -> None:
        with self._cond:
            self._task = (fn, rank, latch)
            self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._halt = True
            self._cond.notify()

    def sized(self, deep: bool) -> None:
        """The ledger of the rank this thread is running has a new peak."""
        self._sized = True
        self._seat.move(not deep)

    def run(self) -> None:
        while True:
            with self._cond:
                while self._task is None and not self._halt:
                    self._cond.wait()
                if self._halt:
                    return
                fn, rank, latch = self._task
                self._task = None
            try:
                fn(rank)
            except BaseException:  # noqa: BLE001 - runner() already records
                pass  # never let a stray exception kill the pool thread
            finally:
                if not self._sized:  # booked nothing: taken for shallow
                    self.sized(False)
                self._sized = False
                latch.count_down()


class SpmdPool:
    """Persistent pool of rank threads shared by ``run_spmd`` calls.

    The pool grows to the largest ``p`` it has served and never
    shrinks; workers are daemon threads with small stacks that sleep
    between runs, so an idle pool costs memory only.  One pool runs one
    world at a time (``run`` holds the pool lock for the whole
    invocation), so two worlds sharing a pool serialize rather than
    corrupt each other; nested ``run_spmd`` calls from inside a rank
    program must pass their own pool (or rely on the p==1 inline path).

    **Placement.**  Rank threads pass one GIL around at every staged
    collective.  Left free, the kernel spreads them over every allowed
    core, each barrier wake-up lands on a core that finds the GIL still
    held, sleeps again and is woken a second time: 42-61 us per rank per
    barrier against 9-19 us sharing a core (2-core host, p=32..256).
    What free rank threads gain is that numpy's GIL-free sections
    overlap, and those only matter on big arrays.  So the pool picks
    one CPU when it is created (:func:`_place`) and each rank's memory
    ledger (``comm.mem``) says where its thread belongs: a new peak
    under :data:`_DEEP_RANK_BYTES` — for a sort, booking its shard —
    and the worker pins *itself* to the shared CPU, a peak at or over
    it and the worker returns to the whole allowed set; a rank that
    books nothing is taken for shallow when it ends.  Between runs a
    worker stays where its last rank left it (a new worker runs free),
    so ``sched_setaffinity`` is called only when a worker changes
    sides: a stream of small jobs (the service, the test suite) shares
    one core, a stream of deep ones runs as if nothing were placed.
    A rank program that wants the overlap accounts its arrays on the
    ledger, as every algorithm here does.  Only the rank threads are
    placed; the thread that calls :meth:`run` never has its affinity
    changed, and threads a rank program starts inherit the rank's
    current mask.  No pin happens, and no ``sched_setaffinity`` call is
    made, where the process is allowed a single CPU or the platform has
    no affinity API; a worker whose move is refused (``OSError``) stays
    where it is.  Placement moves threads, not work: clocks, counters,
    traces and results cannot see it.
    """

    def __init__(self) -> None:
        self._workers: list[_Worker] = []
        self._place = _place()
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        """Current number of pool threads."""
        return len(self._workers)

    def _grow(self, p: int) -> None:
        if len(self._workers) >= p:
            return
        old_stack = threading.stack_size(_STACK_BYTES)
        try:
            while len(self._workers) < p:
                w = _Worker(len(self._workers), self._place)
                w.start()
                self._workers.append(w)
        finally:
            threading.stack_size(old_stack)

    def run(self, fn: Callable[[int], None], p: int) -> None:
        """Execute ``fn(rank)`` concurrently for every rank in ``[0, p)``."""
        if p < 1:
            return
        with self._lock:
            coarse = p >= _COARSE_SWITCH_RANKS
            if coarse:
                _coarse_enter()
            try:
                self._grow(p)
                latch = _Latch(p)
                for r in range(p):
                    self._workers[r].submit(fn, r, latch)
                latch.wait()
            finally:
                if coarse:
                    _coarse_exit()

    def shutdown(self) -> None:
        """Stop and join all pool threads (tests, interpreter exit)."""
        with self._lock:
            for w in self._workers:
                w.stop()
            for w in self._workers:
                w.join()
            self._workers.clear()


_default_pool: SpmdPool | None = None
_default_pool_lock = threading.Lock()


def default_pool() -> SpmdPool:
    """The process-wide rank-thread pool used by :func:`run_spmd` (and so
    by every ``thread`` job of the sort service)."""
    global _default_pool
    if _default_pool is None:
        with _default_pool_lock:
            if _default_pool is None:
                _default_pool = SpmdPool()
                # join the daemon workers before interpreter teardown
                # starts tearing down the condition variables under them
                atexit.register(_default_pool.shutdown)
    return _default_pool


class SpmdResult:
    """Outcome of one SPMD run, over its world's ledger columns.  The
    per-rank views are built on first read: ``clocks[r]``, ``mem_peaks[r]``,
    ``counters[r]`` / ``phase_times[r]`` (``{name: value}`` of what rank
    ``r`` booked) and ``traces[r]`` (its ``(t0, t1, phase)`` brackets)."""

    def __init__(self, world: SimWorld, results: list[Any],
                 failure: RankFailure | None = None,
                 extras: dict[str, Any] | None = None):
        self.world, self.p, self.results = world, world.p, results
        self.failure, self.extras = failure, extras or {}

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def elapsed(self) -> float:
        """Simulated makespan: the slowest rank's virtual clock."""
        return self.world.clock.max().item()

    clocks = cached_property(lambda self: self.world.clock.tolist())
    mem_peaks = cached_property(lambda self: self.world.mem.peak.tolist())
    counters = cached_property(lambda self: self.world.counters.rows())
    phase_times = cached_property(lambda self: self.world.phase_times.rows())

    @cached_property
    def traces(self) -> list[list[tuple[float, float, str]]]:
        rows: list[list] = [[] for _ in range(self.p)]
        for at, t0, t1, name in self.world.traces:
            for g, a, b in zip(*per_rank(at, t0, t1)):
                rows[g].append((a, b, name))
        return rows

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks virtual time per phase (the paper's stacked bars);
        a rank that never entered a phase counts 0.0 there."""
        return {name: vals.max().item() for name, (vals, seen)
                in sorted(self.world.phase_times.items()) if seen.any()}


def run_spmd(fn: Callable[..., Any], p: int, *,
             machine: MachineSpec = LAPTOP,
             mem_capacity: int | None = None,
             args: Sequence[Any] = (),
             kwargs: dict[str, Any] | None = None,
             check: bool = True,
             pool: SpmdPool | None = None,
             faults: Any = None,
             tracer: Any = None,
             backend: str = "thread",
             cancel: Any = None,
             metrics: Any = None) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``p`` simulated ranks.

    Parameters
    ----------
    fn:
        The rank program.  Called once per rank with that rank's
        :class:`Comm` as first argument.
    p:
        Number of ranks.
    machine:
        Hardware model for cost accounting (default: small LAPTOP).
    mem_capacity:
        Per-rank memory limit in bytes (``None`` = unlimited).  Pass
        e.g. ``machine.mem_per_rank`` scaled to the experiment's data
        scale to reproduce OOM behaviour.
    check:
        If True (default) raise :class:`RankFailure` when a rank fails;
        if False, return the partial :class:`SpmdResult` with
        ``failure`` set instead.
    pool:
        :class:`SpmdPool` hosting the rank threads of the thread
        backend (default: the process-wide :func:`default_pool`).  The
        pool's rank threads share one CPU while their ranks are shallow
        (see :class:`SpmdPool`); this call runs on, and leaves alone,
        the caller's own affinity.
    faults:
        Optional compiled :class:`~repro.faults.plan.FaultPlan` (for
        ``p`` ranks) injected at the Comm hook points.  ``None`` — the
        default — leaves every code path bit-for-bit identical to a
        fault-free engine.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` (allocated for ``p``
        ranks) collecting virtual-time spans, cost-split counters and
        edge bytes.  ``None`` — the default — keeps every hook a single
        attribute check; the tracer is purely observational either way,
        so virtual clocks are identical with tracing on or off.
    backend:
        One of :data:`ENGINE_BACKENDS`.  ``"thread"`` (default) hosts
        every rank as a pool thread in this process; ``"flat"`` drives
        every rank from one interpreter loop with zero threads, running
        each phase's heavy work as batched columnar numpy over the
        whole world (see :mod:`repro.mpi.flatworld` — the rank program
        must expose a ``flat_run`` entry point).  Virtual clocks,
        results and trace counters are bit-for-bit identical across
        backends.
    cancel:
        Optional :class:`threading.Event`, or anything with its
        ``is_set()`` (a service job's token also reads as set once the
        job's deadline has passed).  Set before the world starts
        (any backend), nothing runs and the result carries a
        :class:`RankFailure` whose cause is :class:`RunCancelled`; fired
        mid-run (a service timeout or an explicit cancel), the world
        aborts with the same failure on every backend — rank threads
        are woken by a watcher that polls the event every 10 ms (so an
        in-flight cancel is delivered within 10 ms, and a run that
        completes never waits for the watcher), a flat world polls the
        event at every collective and phase entry.
    metrics:
        Optional telemetry sink (duck-typed: ``record_world(backend=,
        p=, cancelled=)``) counting worlds launched per executing
        backend and cancellations delivered.  ``None`` — the default —
        is a single ``is None`` check, like ``tracer``: clocks and
        results are bit-for-bit identical either way.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if backend not in ENGINE_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; options: "
                         + ", ".join(repr(b) for b in ENGINE_BACKENDS))
    # SimWorld checks too, but a run cancelled below builds it planless
    if faults is not None and getattr(faults, "p", p) != p:
        raise ValueError(f"fault plan compiled for p={faults.p}, "
                         f"world has p={p}")
    kwargs = dict(kwargs or {})
    # p == 1 always runs inline below: one rank needs no batching, and
    # the thread path never spawns a thread for it
    flat = backend == "flat" and p > 1
    if cancel is not None and cancel.is_set():
        # cancelled before the world even started: nothing runs
        executing = "flat" if flat else "thread"
        failure = RankFailure(
            [(0, RunCancelled("run cancelled before start"))])
        if metrics is not None:
            metrics.record_world(backend=executing, p=p, cancelled=True)
        if check:
            raise failure from failure.cause
        return SpmdResult(SimWorld(p, machine), [None] * p, failure,
                          {"backend": executing})
    if flat:
        from .flatworld import run_spmd_flat
        res = run_spmd_flat(
            fn, p, machine=machine, mem_capacity=mem_capacity,
            args=args, kwargs=kwargs, check=False, faults=faults,
            tracer=tracer, cancel=cancel)
        if metrics is not None:
            metrics.record_world(
                backend="flat", p=p,
                cancelled=res.failure is not None and any(
                    isinstance(exc, RunCancelled)
                    for _, exc in res.failure.failures))
        if res.failure is not None and check:
            raise res.failure from res.failure.cause
        return res
    world = SimWorld(p, machine, mem_capacity=mem_capacity, faults=faults,
                  tracer=tracer)
    results: list[Any] = [None] * p
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = Comm(world, world.world_ctx, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except SimAbort:
            pass  # collateral unwind of someone else's failure
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            with failures_lock:
                failures.append((rank, exc))
            world.abort.set()

    done = threading.Event()

    def _cancel_watch() -> None:
        # Block on ``done``, which the engine sets itself, and poll the
        # caller's ``cancel``: completion never waits out a poll tick
        # (the join below is immediate), a cancel lands within one.
        while not done.wait(0.01):
            if cancel.is_set():
                with failures_lock:
                    failures.append((0, RunCancelled(
                        "run cancelled while in flight")))
                world.abort.set()
                return

    watcher = None
    if cancel is not None:
        watcher = threading.Thread(target=_cancel_watch,
                                   name="spmd-cancel-watch", daemon=True)
        watcher.start()

    try:
        if p == 1:
            runner(0)
            pool_threads = 0
        else:
            run_pool = default_pool() if pool is None else pool
            world.mem.on_peak = _rank_grew  # deep ranks leave the shared CPU
            run_pool.run(runner, p)
            pool_threads = run_pool.size
    finally:
        done.set()
        if watcher is not None:
            watcher.join()

    failure: RankFailure | None = None
    if failures:
        failures.sort(key=lambda rf: rf[0])
        failure = RankFailure(failures)
    if metrics is not None:
        metrics.record_world(
            backend="thread", p=p,
            cancelled=any(isinstance(exc, RunCancelled)
                          for _, exc in failures))
    if failure is not None and check:
        raise failure from failure.cause

    return SpmdResult(world, results, failure, {
        "backend": "thread",
        "workers": 1,
        "pool_threads": pool_threads,
        "shards": [[0, p]],
        "coarse_switch": p >= _COARSE_SWITCH_RANKS,
    })
