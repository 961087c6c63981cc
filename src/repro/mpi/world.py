"""The ``World`` execution protocol: one phase implementation, two engines.

Phase strategies, pivot selectors and sort drivers are written exactly
once, in *world form*: a function of ``(world, comms, ...)`` where
``comms`` is a list of :class:`~repro.mpi.comm.Comm` handles and every
per-rank value travels as a list aligned with it.  The ``world`` object
supplies the staged-collective surface — ``barrier`` / ``bcast`` /
``gather`` / ``allreduce`` / ``allgather_staged`` / ``split`` /
``alltoallv`` / ``sendrecv`` — plus phase brackets, the charge verbs
(``charge_compute`` / ``alloc`` / ``free`` / ``trace_counter``: one call
books modelled compute time, memory or a tracer counter on every rank
handed in), abort semantics and fault hooks.  Two interchangeable views
implement it:

* :class:`LaneWorld` — **one logical rank** ("lane").  ``comms`` is a
  singleton and every operation delegates straight to the rank's own
  ``Comm``, whose staged protocol synchronises with sibling rank
  threads.  This view backs the thread backend; per-rank
  exceptions propagate immediately, exactly as a rank thread would
  raise them.
* :class:`~repro.mpi.flatworld.ColumnarWorld` — **the whole world at
  once**.  ``comms`` is a communicator's full membership in rank order;
  each collective snapshots all deposits, runs the designated-rank
  compute a single time, and books the epilogue on the whole
  membership in one loop, tracer and fault plan served inside it.  This
  view backs the zero-thread flat backend; per-rank exceptions are
  recorded in a failure ledger and surface as
  :class:`~repro.mpi.flatworld.FlatAbort` at the next checked
  collective.

An epilogue that both views book (the exchanges') is one function over
the ranks handed in — a membership, or a lane's one — riding as a
:class:`~repro.mpi.flatworld.Epilogue`.  Both views evaluate the same
cost expressions (:func:`~repro.mpi.comm.collective_charge`, the
``CostModel``), so virtual clocks, phase breakdowns, counters, memory
peaks and traces are bit-for-bit identical across backends.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .comm import Comm

__all__ = ["World", "LaneWorld", "LANE"]


class World:
    """Abstract execution view a phase implementation runs against.

    Per-rank values are lists aligned with ``comms``; collective
    results come back the same way (``None`` in slots whose rank is
    dead or excluded, e.g. off-root gathers).  ``check=False`` skips
    the abort point at collective entry (used for collectives that are
    conditionally entered per sub-group, like node-merge gathers).
    """

    #: Failure ledger ``[(global_rank, exception), ...]`` of this run.
    failures: Sequence[tuple[int, BaseException]]

    # -- fault / abort surface -----------------------------------------
    def alive(self, comm: Comm) -> bool:
        raise NotImplementedError

    def fail(self, comm: Comm, exc: BaseException) -> None:
        """Record (columnar) or raise (lane) a per-rank failure."""
        raise NotImplementedError

    def check(self) -> None:
        """Abort point: entering a collective with failures pending."""
        raise NotImplementedError

    def first_live(self, comms: Sequence[Comm], values: Sequence[Any]) -> Any:
        """``values`` entry of the first surviving rank."""
        raise NotImplementedError

    # -- phase brackets ------------------------------------------------
    def phase(self, comms: Sequence[Comm], name: str):
        """Context manager bracketing one named phase on every rank."""
        raise NotImplementedError

    # -- charge verbs --------------------------------------------------
    # Per-rank values are sequences aligned with ``comms`` (any ranks,
    # not necessarily a whole communicator).  A rank whose charge is
    # refused (negative time, simulated OOM) fails exactly as if it had
    # called its own ``Comm``: recorded (columnar) or raised (lane).
    def charge_compute(self, comms: Sequence[Comm],
                       seconds: Sequence[float]) -> None:
        """``comm.charge(seconds[i])`` on every rank."""
        raise NotImplementedError

    def alloc(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        """``comm.mem.alloc(nbytes[i])`` on every rank."""
        raise NotImplementedError

    def free(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        """``comm.mem.free(nbytes[i])`` on every rank."""
        raise NotImplementedError

    def trace_counter(self, comms: Sequence[Comm], name: str,
                      values: Sequence[float]) -> None:
        """``comm.trace_counter(name, values[i])`` on every rank."""
        raise NotImplementedError

    # -- staged collectives --------------------------------------------
    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        """One staged collective: deposit, designated compute, epilogue.

        ``compute(stage)`` sees ``[(deposit, clock), ...]`` once;
        ``finish(i, comm, shared)`` is rank ``i``'s epilogue (an
        :class:`~repro.mpi.flatworld.Epilogue` books all of ``comms``
        in its one call).  Returns ``(shared, outs)``.
        """
        raise NotImplementedError

    def barrier(self, comms: Sequence[Comm], *, check: bool = True) -> None:
        raise NotImplementedError

    def bcast(self, comms: Sequence[Comm], values: Sequence[Any],
              root: int = 0, *, check: bool = True) -> list:
        raise NotImplementedError

    def gather(self, comms: Sequence[Comm], values: Sequence[Any],
               root: int = 0, *, check: bool = True) -> list:
        raise NotImplementedError

    def allreduce(self, comms: Sequence[Comm], values: Sequence[Any],
                  op: Callable[[Any, Any], Any] | None = None, *,
                  check: bool = True) -> list:
        raise NotImplementedError

    def allgather(self, comms: Sequence[Comm], values: Sequence[Any],
                  *, check: bool = True) -> list:
        raise NotImplementedError

    def allgather_staged(self, comms: Sequence[Comm],
                         deposits: Sequence[Any],
                         compute_objs: Callable[[list], Any], *,
                         check: bool = True) -> list:
        raise NotImplementedError

    def split(self, comms: Sequence[Comm], colors: Sequence[Any],
              keys: Sequence[int] | None = None, *,
              check: bool = True) -> list:
        raise NotImplementedError

    def alltoallv(self, comms: Sequence[Comm], sends: Sequence[Any],
                  *, check: bool = True) -> list:
        """Per-rank ``sends[i]`` is the list of batches rank ``i``
        sends (one per destination); returns per-rank received lists."""
        raise NotImplementedError

    def sendrecv(self, comms: Sequence[Comm], objs: Sequence[Any],
                 peers: Sequence[int], tag: int = 0) -> list:
        """Pairwise exchange: rank ``i`` swaps ``objs[i]`` with its
        ``peers[i]`` partner (partners must be symmetric)."""
        raise NotImplementedError


class LaneWorld(World):
    """One logical rank; every operation delegates to its ``Comm``.

    The staged protocol inside ``Comm`` does the synchronising with
    the sibling rank threads, so this view is a stateless passthrough — phase code written in
    world form costs a rank thread nothing extra.
    """

    __slots__ = ()

    #: a lane raises its failure instead of recording it
    failures = ()

    def alive(self, comm: Comm) -> bool:
        return True

    def fail(self, comm: Comm, exc: BaseException) -> None:
        raise exc

    def check(self) -> None:
        pass

    def first_live(self, comms: Sequence[Comm], values: Sequence[Any]) -> Any:
        return values[0]

    def phase(self, comms: Sequence[Comm], name: str):
        return comms[0].phase(name)

    # the charge verbs may be handed no rank at all (this lane is not
    # among the ranks a phase charges), hence loops, not ``comms[0]``
    def charge_compute(self, comms: Sequence[Comm],
                       seconds: Sequence[float]) -> None:
        for comm, s in zip(comms, seconds):
            comm.charge(s)

    def alloc(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        for comm, nb in zip(comms, nbytes):
            comm.mem.alloc(nb)

    def free(self, comms: Sequence[Comm], nbytes: Sequence[int]) -> None:
        for comm, nb in zip(comms, nbytes):
            comm.mem.free(nb)

    def trace_counter(self, comms: Sequence[Comm], name: str,
                      values: Sequence[float]) -> None:
        for comm, v in zip(comms, values):
            comm.trace_counter(name, v)

    def collective(self, comms: Sequence[Comm], deposits: Sequence[Any],
                   compute: Callable[[list], Any],
                   finish: Callable[[int, Comm, Any], Any],
                   *, check: bool = True) -> tuple[Any, list]:
        comm = comms[0]
        shared, _ = comm.staged(deposits[0], compute)
        return shared, [finish(0, comm, shared)]

    def barrier(self, comms: Sequence[Comm], *, check: bool = True) -> None:
        comms[0].barrier()

    def bcast(self, comms: Sequence[Comm], values: Sequence[Any],
              root: int = 0, *, check: bool = True) -> list:
        return [comms[0].bcast(values[0], root)]

    def gather(self, comms: Sequence[Comm], values: Sequence[Any],
               root: int = 0, *, check: bool = True) -> list:
        return [comms[0].gather(values[0], root)]

    def allreduce(self, comms: Sequence[Comm], values: Sequence[Any],
                  op: Callable[[Any, Any], Any] | None = None, *,
                  check: bool = True) -> list:
        return [comms[0].allreduce(values[0], op)]

    def allgather(self, comms: Sequence[Comm], values: Sequence[Any],
                  *, check: bool = True) -> list:
        return [comms[0].allgather(values[0])]

    def allgather_staged(self, comms: Sequence[Comm],
                         deposits: Sequence[Any],
                         compute_objs: Callable[[list], Any], *,
                         check: bool = True) -> list:
        return [comms[0].allgather_staged(deposits[0], compute_objs)]

    def split(self, comms: Sequence[Comm], colors: Sequence[Any],
              keys: Sequence[int] | None = None, *,
              check: bool = True) -> list:
        return [comms[0].split(colors[0],
                               key=None if keys is None else keys[0])]

    def alltoallv(self, comms: Sequence[Comm], sends: Sequence[Any],
                  *, check: bool = True) -> list:
        return [comms[0].alltoallv(sends[0])]

    def sendrecv(self, comms: Sequence[Comm], objs: Sequence[Any],
                 peers: Sequence[int], tag: int = 0) -> list:
        return [comms[0].sendrecv(objs[0], peers[0], tag)]


#: Shared stateless lane view — what ``sds_sort(comm, ...)`` and the
#: other per-rank entry points hand to the world-form implementations.
LANE = LaneWorld()
