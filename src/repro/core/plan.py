"""The decision layer: explainable adaptive choices (paper Sections 2.3-2.7).

SDS-Sort's identity is *dynamic* execution — the thresholds tau_m,
tau_o and tau_s pick node-merge, overlapped-vs-synchronous exchange and
merge-vs-sort local ordering at runtime.  This module makes every one
of those choices a first-class, explainable object instead of an
inline branch:

* :class:`Decision` — one adaptive choice: what was decided, the
  threshold and measured value that drove it, and a human-readable
  reason;
* :class:`DecisionPolicy` — the pure evaluation rules (no
  communication, no side effects): given the measured inputs it
  returns the :class:`Decision` the driver must follow.  Because the
  policy is communication-free it can be probed offline (what *would*
  the sort do at p=8192?) and unit-tested without an engine run;
* :class:`SortPlan` — policy + trace for one run, shared through the
  :class:`~repro.core.pipeline.RunContext` by every phase and by the
  ranks that decided alike (forked where they do not).  The trace
  is the ordered list of the run's decisions, JSON-serialisable (as
  :meth:`SortPlan.decisions`) so it can flow into ``SortOutcome.info``,
  ``RunResult.extras["decisions"]``, bench reports and the CLI's
  ``--explain`` output.

Decisions are evaluated at their phase boundary (node-merge needs the
measured per-node exchange volume; the exchange mode needs the
post-merge process count) and recorded exactly once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .bitonic import is_power_of_two
from .params import PARTITION_VARIANTS, PIVOT_METHODS, SdsParams

__all__ = [
    "Decision",
    "DecisionPolicy",
    "SortPlan",
    "PIVOT_METHODS",
    "PARTITION_VARIANTS",
    "explain_lines",
]


def _plain(value: Any) -> Any:
    """Coerce numpy scalars to builtin types so traces JSON-serialise."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


@dataclass(frozen=True)
class Decision:
    """One adaptive choice, with everything needed to explain it.

    Attributes
    ----------
    name:
        Which decision this is: ``"node_merge"``, ``"pivot_method"``,
        ``"partition"``, ``"exchange"`` or ``"local_ordering"``.
    choice:
        The winner (e.g. ``"overlapped"``, ``"sync"``, ``"merge"``).
    threshold / threshold_value:
        The paper parameter that gated the choice (``"tau_m_bytes"``,
        ``"tau_o"``, ``"tau_s"``) and its configured value; ``None``
        for decisions not driven by a threshold.
    measured:
        The runtime quantities the threshold was compared against
        (process count, per-node bytes, minimum shard size...).
    reason:
        One self-contained sentence of why the winner won.
    """

    name: str
    choice: str
    threshold: str | None = None
    threshold_value: int | float | None = None
    measured: Mapping[str, Any] = field(default_factory=dict)
    reason: str = ""

    def as_dict(self) -> dict[str, Any]:
        """The JSON-plain form, converted once per instance.

        A phase records one ``Decision`` object in every plan it decides
        for (the forks of a group's plan included), so all of them hand
        out this same dict: treat it as read-only.
        """
        plain = self.__dict__.get("_plain")
        if plain is None:
            plain = {
                "decision": self.name,
                "choice": self.choice,
                "threshold": self.threshold,
                "threshold_value": _plain(self.threshold_value),
                "measured": {k: _plain(v)
                             for k, v in self.measured.items()},
                "reason": self.reason,
            }
            object.__setattr__(self, "_plain", plain)  # frozen dataclass
        return plain


def explain_lines(decisions: list[dict[str, Any]]) -> list[str]:
    """Render a recorded trace (:meth:`SortPlan.decisions` form) for terminal output."""
    lines = []
    for d in decisions:
        gate = ""
        if d.get("threshold") is not None:
            gate = f"[{d['threshold']}={d['threshold_value']}] "
        lines.append(f"{d['decision']:15s} -> {d['choice']:12s} "
                     f"{gate}{d.get('reason', '')}")
    return lines


@dataclass(frozen=True)
class DecisionPolicy:
    """Pure evaluation of every adaptive decision (no communication).

    Each method returns the :class:`Decision` for one choice point
    given the measured inputs.  The booleans computed here are exactly
    the driver's historical inline conditions — the golden-engine suite
    pins that equivalence bit-for-bit.
    """

    params: SdsParams

    # -------------------------------------------------- node merge (tau_m)
    def node_merge(self, *, node_bytes: int, ranks_per_node: int,
                   comm_size: int, nodes: int = 1,
                   capacity: int | None = None) -> Decision:
        """This rank's node-merge verdict (Section 2.3).

        The verdict is local; the driver still takes the existing
        allreduce consensus (all ranks must agree before merging) and
        records the post-consensus decision via
        :meth:`node_merge_consensus`.  A node of ``nodes`` whose ranks'
        pooled ``capacity`` cannot hold what its leader would (the node's
        data and an even share of the exchange) votes skip where its ranks
        alone have room for theirs; or a short last node's leader OOMs.
        """
        p = self.params
        measured = {"node_bytes": node_bytes,
                    "ranks_per_node": ranks_per_node, "p": comm_size}
        common = dict(threshold="tau_m_bytes",
                      threshold_value=p.tau_m_bytes, measured=measured)
        if not p.node_merge_enabled:
            return Decision("node_merge", "skip",
                            reason="node merging disabled by configuration",
                            **common)
        if ranks_per_node <= 1:
            return Decision("node_merge", "skip",
                            reason="one rank per node: nothing to funnel",
                            **common)
        if comm_size <= ranks_per_node:
            return Decision("node_merge", "skip",
                            reason="single node: merging would serialise the "
                                   "whole sort onto one leader", **common)
        if node_bytes > p.tau_m_bytes:
            return Decision(
                "node_merge", "skip",
                reason=f"per-node exchange volume {node_bytes} B > "
                       f"tau_m ({p.tau_m_bytes} B): messages large enough "
                       f"to saturate the NIC from every rank", **common)
        shard = node_bytes // ranks_per_node
        leader_bytes = node_bytes + shard * comm_size // nodes
        node_capacity = None if capacity is None else capacity * ranks_per_node
        if (capacity is not None and leader_bytes > node_capacity
                and 2 * shard <= capacity):
            return Decision(
                "node_merge", "skip", threshold="tau_m_bytes",
                threshold_value=p.tau_m_bytes,
                measured={**measured, "leader_bytes": leader_bytes,
                          "node_capacity": node_capacity},
                reason=f"leader capacity: a leader would hold ~"
                       f"{leader_bytes} B but its node's {ranks_per_node} "
                       f"rank(s) pool only {node_capacity} B")
        return Decision(
            "node_merge", "merge",
            reason=f"per-node exchange volume {node_bytes} B <= "
                   f"tau_m ({p.tau_m_bytes} B): small messages, "
                   f"funnel {ranks_per_node} ranks into one leader",
            **common)

    def node_merge_consensus(self, local: Decision, *, agreeing: int,
                             comm_size: int) -> Decision:
        """Fold the allreduce consensus into the recorded decision."""
        if local.choice == "merge" and agreeing != comm_size:
            return Decision(
                "node_merge", "skip",
                threshold=local.threshold,
                threshold_value=local.threshold_value,
                measured={**local.measured, "agreeing_ranks": agreeing},
                reason=f"local verdict was merge but only {agreeing}/"
                       f"{comm_size} ranks agreed; merging needs unanimity")
        return local

    # ----------------------------------------------------- pivot selection
    def pivot_method(self, *, p: int, min_n: int) -> Decision:
        """Which pivot selector runs (Section 2.4), incl. fallbacks.

        Two documented degradations of the configured method:

        * any rank holding no data (``min_n == 0``) forces gather
          selection over whatever samples exist, padding a short pivot
          vector with empty ranges;
        * the bitonic selector requires a power-of-two communicator and
          otherwise degrades to gather.
        """
        configured = self.params.pivot_method
        if configured not in PIVOT_METHODS:
            raise ValueError(
                f"unknown pivot_method {configured!r}; "
                f"options: {', '.join(PIVOT_METHODS)}")
        measured = {"p": p, "min_n": min_n}
        if min_n == 0:
            return Decision(
                "pivot_method", "gather", measured=measured,
                reason=f"a rank holds no data (min_n=0): configured "
                       f"{configured!r} needs samples everywhere, fall back "
                       f"to gather over available samples and pad the pivot "
                       f"vector with empty ranges")
        if configured == "bitonic" and not is_power_of_two(p):
            return Decision(
                "pivot_method", "gather", measured=measured,
                reason=f"bitonic selection needs a power-of-two "
                       f"communicator, p={p} is not: gather fallback")
        return Decision("pivot_method", configured, measured=measured,
                        reason="configured pivot method, applicable as-is")

    # ----------------------------------------------------------- partition
    def partition_variant(self) -> Decision:
        """classic / fast / stable partitioning (Figure 2)."""
        p = self.params
        if not p.skew_aware:
            return Decision(
                "partition", "classic",
                measured={"skew_aware": False, "stable": p.stable},
                reason="skew-aware partitioning disabled (ablation): "
                       "classic upper-bound rule")
        if p.stable:
            return Decision(
                "partition", "stable",
                measured={"skew_aware": True, "stable": True},
                reason="stable sort requested: replicated runs split by "
                       "global source-order layout")
        return Decision(
            "partition", "fast",
            measured={"skew_aware": True, "stable": False},
            reason="skew-aware fast split of replicated runs")

    # ------------------------------------------------------ exchange (tau_o)
    def exchange_mode(self, *, p: int) -> Decision:
        """Overlapped vs synchronous exchange (Section 2.6)."""
        prm = self.params
        common = dict(threshold="tau_o", threshold_value=prm.tau_o,
                      measured={"p": p, "stable": prm.stable})
        if prm.stable:
            return Decision(
                "exchange", "sync",
                reason="stable sort: synchronous delivery in source-rank "
                       "order carries the stability guarantee", **common)
        if p < prm.tau_o:
            return Decision(
                "exchange", "overlapped",
                reason=f"p={p} < tau_o ({prm.tau_o}): network-bound regime, "
                       f"overlap the exchange with pairwise merging",
                **common)
        return Decision(
            "exchange", "sync",
            reason=f"p={p} >= tau_o ({prm.tau_o}): nonblocking progress "
                   f"overhead dominates, use MPI_Alltoallv", **common)

    # ------------------------------------------------- local order (tau_s)
    def local_ordering(self, *, p: int, exchange: str) -> Decision:
        """k-way merge vs adaptive sort of received runs (Section 2.7)."""
        prm = self.params
        common = dict(threshold="tau_s", threshold_value=prm.tau_s,
                      measured={"p": p, "exchange": exchange})
        if exchange == "overlapped":
            return Decision(
                "local_ordering", "merge",
                reason="overlapped exchange merges arrivals pairwise as "
                       "they land (tau_s not consulted)", **common)
        if p < prm.tau_s:
            return Decision(
                "local_ordering", "merge",
                reason=f"p={p} < tau_s ({prm.tau_s}): k-way merge of the "
                       f"received runs, O(m log p)", **common)
        return Decision(
            "local_ordering", "sort",
            reason=f"p={p} >= tau_s ({prm.tau_s}): adaptive sort of the "
                   f"concatenation wins with the sequential-sort constant",
            **common)


class SortPlan:
    """A group's policy plus its accumulating decision trace.

    ``policy`` is ``None`` for drivers whose strategies are fixed by
    the algorithm (PSRS, HykSort): their phases still record what they
    do into the trace, just without threshold evaluation.  ``trace`` is
    the ordered list of recorded decisions.  The ranks of a group share
    one plan, so a phase records a decision once per distinct plan; where
    their verdicts differ the plan forks (:meth:`fork`), once per verdict.
    """

    __slots__ = ("policy", "trace", "_plain")

    def __init__(self, policy: DecisionPolicy | None = None,
                 trace: list[Decision] | None = None):
        self.policy = policy
        self.trace = [] if trace is None else trace
        self._plain: list[dict[str, Any]] = []

    @classmethod
    def for_params(cls, params: SdsParams) -> "SortPlan":
        return cls(policy=DecisionPolicy(params))

    def decide(self, decision: Decision) -> str:
        """Record ``decision`` and return the winning choice."""
        self.trace.append(decision)
        return decision.choice

    def fork(self) -> "SortPlan":
        """A plan with this one's policy and trace so far, that records on
        its own from here on."""
        return SortPlan(self.policy, list(self.trace))

    def decisions(self) -> list[dict[str, Any]]:
        """The trace in its JSON-plain form, built once per trace state:
        every rank of the plan (and a rank that leaves it, keeping the
        trace it had) holds the same list — treat it as read-only."""
        plain = self._plain
        if len(plain) != len(self.trace):
            plain = self._plain = [d.as_dict() for d in self.trace]
        return plain
