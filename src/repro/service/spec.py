"""Job specifications for the sort-as-a-service front end.

A :class:`JobSpec` is the unit of work the service accepts: everything
:func:`repro.runner.run_sort` needs to reproduce one distributed sort,
as a validated, JSON-serialisable value.  Validation resolves against
the same registries the CLI uses (:data:`repro.runner.ALGORITHMS`,
:data:`repro.runner.BACKENDS`, :func:`repro.workloads.by_name`,
:func:`repro.machine.get_machine`), so a spec that validates here runs
identically whether it arrives over the wire, from the in-process
client, or from ``sdssort sort`` directly — and the per-job
``trace`` / ``faults`` / ``explain`` options turn the observability and
chaos subsystems into per-request features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..faults.spec import FaultSpec
from ..machine import get_machine
from ..runner import (
    ALGORITHMS,
    BACKENDS,
    MEM_FACTOR,
    RunResult,
    run_sort,
)
from ..workloads import by_name

#: Priority classes, best first.  The queue drains strictly by class
#: (FIFO within one), so an ``interactive`` job overtakes every queued
#: ``batch`` job but never preempts one that is already running.
PRIORITIES = ("interactive", "batch", "bulk")

#: Default priority class for submissions that don't name one.
DEFAULT_PRIORITY = "batch"


class JobValidationError(ValueError):
    """A job spec failed validation against the runner registries."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise JobValidationError(message)


@dataclass(frozen=True)
class JobSpec:
    """One validated sort request.

    Mirrors :func:`repro.runner.run_sort`'s signature field for field;
    ``workload`` travels by name plus ``workload_opts`` (the generator
    kwargs, e.g. ``{"alpha": 0.9}`` for zipf) so the spec stays a pure
    value that serialises losslessly — each run rebuilds the workload
    deterministically from ``(name, opts, seed)``.  ``backend`` defaults
    to ``"auto"`` (the flat engine); ``"thread"`` asks for rank threads,
    which the service runs on the engine's one warm pool.
    """

    algorithm: str = "sds"
    workload: str = "uniform"
    workload_opts: dict[str, Any] = field(default_factory=dict)
    p: int = 16
    n_per_rank: int = 2000
    backend: str = "auto"
    machine: str = "edison"
    seed: int = 0
    mem_factor: float | None = MEM_FACTOR
    algo_opts: dict[str, Any] = field(default_factory=dict)
    faults: FaultSpec | None = None
    fault_seed: int = 0
    trace: bool = False
    explain: bool = False

    # -- validation ---------------------------------------------------
    def validate(self) -> "JobSpec":
        """Check every field against the registries; returns ``self``.

        Raises :class:`JobValidationError` with a submit-worthy message
        — the service maps it to a typed ``invalid`` rejection instead
        of letting a bad spec reach the engine.
        """
        # types first: the wire hands over any JSON value, and a
        # comparison on the wrong one (``in`` on a list, ``str > 0``)
        # would escape as a TypeError instead of a rejection
        for name in ("algorithm", "backend", "machine", "workload"):
            value = getattr(self, name)
            _require(isinstance(value, str),
                     f"{name} must be a string, got {value!r}")
        for name in ("workload_opts", "algo_opts"):
            value = getattr(self, name)
            _require(isinstance(value, dict),
                     f"{name} must be an object, got {value!r}")
        _require(self.mem_factor is None
                 or isinstance(self.mem_factor, (int, float)),
                 f"mem_factor must be None or a number, "
                 f"got {self.mem_factor!r}")
        _require(self.algorithm in ALGORITHMS,
                 f"unknown algorithm {self.algorithm!r}; "
                 f"options: {sorted(ALGORITHMS)}")
        _require(self.backend in BACKENDS,
                 f"unknown backend {self.backend!r}; "
                 f"options: {list(BACKENDS)}")
        _require(isinstance(self.p, int) and self.p >= 1,
                 f"p must be an integer >= 1, got {self.p!r}")
        _require(isinstance(self.n_per_rank, int) and self.n_per_rank >= 0,
                 f"n_per_rank must be an integer >= 0, got "
                 f"{self.n_per_rank!r}")
        for name in ("seed", "fault_seed"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value >= 0,
                     f"{name} must be an integer >= 0, got {value!r}")
        _require(self.mem_factor is None or self.mem_factor > 0,
                 f"mem_factor must be None or > 0, got {self.mem_factor!r}")
        _require(self.faults is None or isinstance(self.faults, FaultSpec),
                 f"faults must be a FaultSpec or None, "
                 f"got {type(self.faults).__name__}")
        try:
            get_machine(self.machine)
        except KeyError as exc:
            raise JobValidationError(str(exc)) from None
        try:
            self.build_workload()
        except (KeyError, TypeError) as exc:
            raise JobValidationError(
                f"bad workload {self.workload!r} "
                f"(opts {self.workload_opts!r}): {exc}") from None
        return self

    # -- execution ----------------------------------------------------
    def build_workload(self):
        """The workload generator this spec names (rebuilt per call)."""
        return by_name(self.workload, **dict(self.workload_opts))

    def run(self, *, cancel: Any = None, metrics: Any = None) -> RunResult:
        """Execute the job exactly as a direct :func:`run_sort` would.

        ``cancel`` / ``metrics`` are the scheduler's cancel token and
        telemetry sink; with both ``None`` this *is* the direct call,
        which is what the service's bit-identical contract
        (``tests/test_service.py``) pins down.  Telemetry is
        observational either way — the result is byte-identical with or
        without it.
        """
        return run_sort(
            self.algorithm, self.build_workload(),
            n_per_rank=self.n_per_rank, p=self.p,
            machine=get_machine(self.machine), seed=self.seed,
            mem_factor=self.mem_factor, algo_opts=dict(self.algo_opts),
            faults=self.faults, fault_seed=self.fault_seed,
            trace=self.trace, backend=self.backend,
            cancel=cancel, metrics=metrics)

    # -- serialisation ------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dump; ``from_dict`` round-trips it losslessly."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "workload_opts": dict(self.workload_opts),
            "p": self.p,
            "n_per_rank": self.n_per_rank,
            "backend": self.backend,
            "machine": self.machine,
            "seed": self.seed,
            "mem_factor": self.mem_factor,
            "algo_opts": dict(self.algo_opts),
            "faults": None if self.faults is None else self.faults.as_dict(),
            "fault_seed": self.fault_seed,
            "trace": self.trace,
            "explain": self.explain,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Build and validate a spec from wire/JSON form.

        ``faults`` accepts a chaos preset name, a ``FaultSpec`` dict,
        an existing :class:`FaultSpec`, or ``None``.  Unknown keys are
        an error — a typo'd option must not silently become a default.
        """
        fields = dict(data)
        unknown = set(fields) - {
            "algorithm", "workload", "workload_opts", "p", "n_per_rank",
            "backend", "machine", "seed", "mem_factor", "algo_opts",
            "faults", "fault_seed", "trace", "explain"}
        if unknown:
            raise JobValidationError(
                f"unknown job fields: {sorted(unknown)}")
        faults = fields.get("faults")
        if faults is not None and not isinstance(faults, FaultSpec):
            from ..faults.chaos import spec_from_config
            try:
                fields["faults"] = spec_from_config(faults)
            except (KeyError, TypeError, ValueError) as exc:
                raise JobValidationError(f"bad faults: {exc}") from None
        try:
            spec = cls(**fields)
        except TypeError as exc:
            raise JobValidationError(str(exc)) from None
        return spec.validate()
