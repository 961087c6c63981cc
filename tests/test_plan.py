"""The decision layer and phase pipeline: policy rules, trace plumbing.

The policy is communication-free, so most of this file probes it
directly (what *would* the sort do at p=8192?).  The acceptance tests
at the bottom run real engine sorts and assert the recorded trace
reaches ``RunResult.extras["decisions"]`` with the chosen exchange
path, local-ordering mode and node-merge verdict — for a stable, an
overlapped and a node-merged configuration.
"""

import pytest

from repro.core import (
    PARTITION_VARIANTS,
    PIVOT_METHODS,
    TAU_M_BYTES,
    TAU_O,
    TAU_S,
    DecisionPolicy,
    SdsParams,
    SortPlan,
    explain_lines,
)
from repro.machine import LAPTOP
from repro.runner import ALGORITHMS, AlgorithmSpec, run_sort
from repro.workloads import uniform, zipf


def policy(**overrides) -> DecisionPolicy:
    return DecisionPolicy(SdsParams(**overrides))


class TestNodeMergePolicy:
    def test_merges_small_volumes(self):
        d = policy().node_merge(node_bytes=1024, ranks_per_node=8,
                                comm_size=16)
        assert d.choice == "merge"
        assert d.threshold == "tau_m_bytes"
        assert d.threshold_value == TAU_M_BYTES
        assert d.measured["node_bytes"] == 1024

    def test_skips_large_volumes(self):
        d = policy().node_merge(node_bytes=TAU_M_BYTES + 1,
                                ranks_per_node=8, comm_size=16)
        assert d.choice == "skip"

    def test_skips_when_disabled(self):
        d = policy(node_merge_enabled=False).node_merge(
            node_bytes=1, ranks_per_node=8, comm_size=16)
        assert d.choice == "skip"
        assert "disabled" in d.reason

    def test_skips_single_rank_nodes(self):
        d = policy().node_merge(node_bytes=1, ranks_per_node=1, comm_size=16)
        assert d.choice == "skip"

    def test_skips_single_node_worlds(self):
        d = policy().node_merge(node_bytes=1, ranks_per_node=8, comm_size=8)
        assert d.choice == "skip"

    def test_consensus_overrides_local_merge(self):
        pol = policy()
        local = pol.node_merge(node_bytes=1, ranks_per_node=8, comm_size=16)
        assert local.choice == "merge"
        d = pol.node_merge_consensus(local, agreeing=7, comm_size=16)
        assert d.choice == "skip"
        assert d.measured["agreeing_ranks"] == 7

    def test_consensus_keeps_unanimous_merge(self):
        pol = policy()
        local = pol.node_merge(node_bytes=1, ranks_per_node=8, comm_size=16)
        d = pol.node_merge_consensus(local, agreeing=16, comm_size=16)
        assert d is local


class TestPivotPolicy:
    def test_configured_method_when_applicable(self):
        d = policy(pivot_method="bitonic").pivot_method(p=8, min_n=10)
        assert d.choice == "bitonic"

    def test_empty_rank_forces_gather(self):
        for method in PIVOT_METHODS:
            d = policy(pivot_method=method).pivot_method(p=8, min_n=0)
            assert d.choice == "gather"
            assert "min_n=0" in d.reason

    def test_bitonic_degrades_on_non_power_of_two(self):
        d = policy(pivot_method="bitonic").pivot_method(p=7, min_n=10)
        assert d.choice == "gather"
        assert "power-of-two" in d.reason

    def test_non_bitonic_survives_non_power_of_two(self):
        d = policy(pivot_method="oversample").pivot_method(p=7, min_n=10)
        assert d.choice == "oversample"


class TestPartitionPolicy:
    def test_variants(self):
        assert policy(skew_aware=False).partition_variant().choice == "classic"
        assert policy(stable=True).partition_variant().choice == "stable"
        assert policy().partition_variant().choice == "fast"
        for variant in (policy(skew_aware=False), policy(stable=True),
                        policy()):
            assert variant.partition_variant().choice in PARTITION_VARIANTS


class TestExchangePolicy:
    def test_overlap_below_tau_o(self):
        d = policy().exchange_mode(p=TAU_O - 1)
        assert d.choice == "overlapped"
        assert d.threshold == "tau_o" and d.threshold_value == TAU_O

    def test_sync_at_tau_o(self):
        assert policy().exchange_mode(p=TAU_O).choice == "sync"

    def test_stable_forces_sync(self):
        d = policy(stable=True).exchange_mode(p=2)
        assert d.choice == "sync"
        assert "stab" in d.reason

    def test_local_ordering_thresholds(self):
        pol = policy()
        merge = pol.local_ordering(p=TAU_S - 1, exchange="sync")
        sort = pol.local_ordering(p=TAU_S, exchange="sync")
        assert merge.choice == "merge" and sort.choice == "sort"
        assert merge.threshold == "tau_s" and merge.threshold_value == TAU_S

    def test_overlapped_exchange_implies_merge(self):
        d = policy(tau_s=0).local_ordering(p=8, exchange="overlapped")
        assert d.choice == "merge"
        assert "tau_s not consulted" in d.reason


class TestParamsValidation:
    def test_unknown_pivot_method(self):
        with pytest.raises(ValueError, match="unknown pivot_method"):
            SdsParams(pivot_method="quantum")

    def test_error_lists_options(self):
        with pytest.raises(ValueError, match="histogram"):
            SdsParams(pivot_method="median-of-medians")

    @pytest.mark.parametrize("field", ["tau_m_bytes", "tau_o", "tau_s"])
    def test_negative_thresholds_rejected(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            SdsParams(**{field: -1})

    def test_strict_pivot_dispatch(self):
        import numpy as np

        from repro.core.pipeline import select_pivots
        with pytest.raises(ValueError, match="unknown pivot_method"):
            select_pivots(None, np.zeros(0), np.zeros(0), "quantum")


class TestTraceAndPlan:
    def test_decide_records_and_returns_choice(self):
        plan = SortPlan.for_params(SdsParams())
        choice = plan.decide(plan.policy.exchange_mode(p=4))
        assert choice == "overlapped"
        decisions = plan.decisions()
        assert len(decisions) == 1
        d = decisions[0]
        assert d["decision"] == "exchange" and d["choice"] == "overlapped"
        assert d["threshold_value"] == TAU_O and d["measured"]["p"] == 4

    def test_trace_json_serialisable(self):
        import json

        import numpy as np
        plan = SortPlan.for_params(SdsParams())
        plan.decide(plan.policy.node_merge(
            node_bytes=np.int64(12), ranks_per_node=np.int64(4),
            comm_size=8))
        json.dumps(plan.decisions())  # numpy scalars must be coerced

    def test_explain_lines(self):
        plan = SortPlan.for_params(SdsParams())
        plan.decide(plan.policy.exchange_mode(p=4))
        plan.decide(plan.policy.pivot_method(p=4, min_n=9))
        lines = explain_lines(plan.decisions())
        assert len(lines) == 2
        assert "overlapped" in lines[0] and f"tau_o={TAU_O}" in lines[0]
        assert "tau_o" not in lines[1]  # no threshold gate on that one


class TestAlgorithmRegistry:
    def test_specs_carry_stability(self):
        stable = {n for n, s in ALGORITHMS.items() if s.stable}
        assert stable == {"sds-stable", "hyksort-sk"}

    def test_specs_have_summaries(self):
        for spec in ALGORITHMS.values():
            assert isinstance(spec, AlgorithmSpec)
            assert spec.summary

    def test_defaults_merge_under_opts(self):
        spec = ALGORITHMS["sds-stable"]
        assert spec.defaults == {"stable": True}
        assert spec.params_type is SdsParams


def _decision_map(result):
    decisions = result.extras["decisions"]
    assert decisions, "no decision trace on the run result"
    return {d["decision"]: d for d in decisions}


class TestRunResultDecisions:
    """ISSUE acceptance: extras["decisions"] names the exchange path,
    local-ordering mode and node-merge verdict — with thresholds."""

    def test_stable_configuration(self):
        r = run_sort("sds-stable", zipf(1.4), n_per_rank=300, p=4,
                     machine=LAPTOP,
                     algo_opts={"node_merge_enabled": False})
        assert r.ok
        d = _decision_map(r)
        assert d["exchange"]["choice"] == "sync"
        assert d["exchange"]["threshold_value"] == TAU_O
        assert d["local_ordering"]["choice"] == "merge"
        assert d["local_ordering"]["threshold_value"] == TAU_S
        assert d["node_merge"]["choice"] == "skip"
        assert d["node_merge"]["threshold_value"] == TAU_M_BYTES
        assert d["partition"]["choice"] == "stable"

    def test_overlapped_configuration(self):
        r = run_sort("sds", uniform(), n_per_rank=200, p=8, machine=LAPTOP,
                     algo_opts={"node_merge_enabled": False})
        assert r.ok
        d = _decision_map(r)
        assert d["exchange"]["choice"] == "overlapped"
        assert d["exchange"]["measured"]["p"] == 8
        assert d["local_ordering"]["choice"] == "merge"
        assert d["node_merge"]["choice"] == "skip"

    def test_node_merged_configuration(self):
        # LAPTOP packs 8 ranks/node: p=16 spans 2 nodes and the tiny
        # shards sit far below tau_m, so the funnel fires.
        # the funnel concentrates 8 shards on each leader: lift the
        # per-rank memory cap so the gather itself cannot OOM
        r = run_sort("sds", uniform(), n_per_rank=60, p=16, machine=LAPTOP,
                     mem_factor=None, algo_opts={"tau_m_bytes": 10**9})
        assert r.ok
        d = _decision_map(r)
        assert d["node_merge"]["choice"] == "merge"
        assert d["node_merge"]["threshold_value"] == 10**9
        assert d["node_merge"]["measured"]["ranks_per_node"] == 8
        assert d["exchange"]["choice"] in ("sync", "overlapped")
        assert r.extras["p_active"] == 2

    def test_fixed_strategy_baseline_traces(self):
        r = run_sort("psrs", uniform(), n_per_rank=100, p=4, machine=LAPTOP)
        assert r.ok
        d = _decision_map(r)
        assert d["pivot_method"]["choice"] == "gather"
        assert d["partition"]["choice"] == "classic"
        assert d["exchange"]["choice"] == "sync"
        assert all("fixed by algorithm" in d[k]["reason"]
                   for k in ("pivot_method", "partition", "exchange"))
