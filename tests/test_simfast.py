"""simfast evaluators: engine agreement, count-space fidelity."""

import numpy as np
import pytest

from repro.core import SdsParams, sds_sort
from repro.mpi import run_spmd
from repro.simfast import (
    UniverseModel,
    countspace_loads,
    evaluate,
    evaluate_loads,
    generate_sorted_shards,
    hyksort_value_space_loads,
    partition_loads,
    sds_global_pivots,
)
from repro.workloads import uniform, zipf


class TestExactEvaluator:
    def test_loads_conserve_records(self):
        rep = evaluate_loads(zipf(0.9), 500, 16)
        assert rep.loads.sum() == 500 * 16

    def test_agrees_with_engine(self):
        """The vectorised evaluator must match the SPMD engine exactly."""
        wl, n, p = zipf(1.4), 400, 8

        def prog(comm):
            shard = wl.shard(n, comm.size, comm.rank, 0)
            out = sds_sort(comm, shard, SdsParams(node_merge_enabled=False))
            return len(out.batch)

        engine_loads = run_spmd(prog, p).results
        rep = evaluate_loads(wl, n, p, method="fast", seed=0)
        assert list(rep.loads) == engine_loads

    def test_classic_worse_than_fast_on_skew(self):
        fast = evaluate_loads(zipf(1.4), 500, 16)
        classic = evaluate_loads(zipf(1.4), 500, 16, method="classic")
        assert fast.rdfa < classic.rdfa

    def test_stable_close_to_fast(self):
        fast = evaluate_loads(zipf(1.4), 500, 16, method="stable")
        assert fast.rdfa < 3.0

    def test_theorem1_bound(self):
        for alpha in (0.7, 1.4, 2.1):
            rep = evaluate_loads(zipf(alpha), 600, 16)
            assert rep.max_over_avg <= 4.1

    def test_hyksort_value_space(self):
        rep = evaluate_loads(zipf(2.1), 500, 16, method="hyksort")
        assert rep.rdfa > 4.0  # 63% duplicates cannot be cut

    def test_uniform_near_balanced(self):
        rep = evaluate_loads(uniform(), 2000, 8)
        assert rep.rdfa < 1.3

    def test_rejects_unknown_method(self):
        shards = generate_sorted_shards(uniform(), 100, 4)
        pg = sds_global_pivots(shards)
        with pytest.raises(ValueError):
            partition_loads(shards, pg, "mystery")


class TestCountSpace:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            UniverseModel("bad", np.array([0.5, 0.4]))  # doesn't sum to 1
        with pytest.raises(ValueError):
            UniverseModel("bad", np.array([1.5, -0.5]))

    def test_delta_matches_workload(self):
        m = UniverseModel.zipf(0.7)
        assert m.delta == pytest.approx(zipf(0.7).meta["delta"])

    def test_point_mass_delta(self):
        m = UniverseModel.point_mass(0.2802)
        assert m.delta == pytest.approx(0.2802)

    def test_power_law_delta(self):
        m = UniverseModel.power_law_clusters(0.0073)
        assert m.delta == pytest.approx(0.0073, rel=1e-6)

    def test_loads_conserve_total(self):
        m = UniverseModel.zipf(0.7)
        loads = countspace_loads(m, 10_000, 256)
        assert loads.sum() == 10_000 * 256

    def test_classic_concentrates_fast_splits(self):
        m = UniverseModel.zipf(1.4)
        fast = countspace_loads(m, 100_000, 512, method="fast", noise=False)
        classic = countspace_loads(m, 100_000, 512, method="classic", noise=False)
        assert fast.max() < classic.max()
        # classic: all 32% of duplicates on one rank
        assert classic.max() >= 0.3 * 100_000 * 512

    def test_stable_matches_fast_totals(self):
        m = UniverseModel.zipf(1.4)
        fast = countspace_loads(m, 50_000, 256, method="fast", noise=False)
        stable = countspace_loads(m, 50_000, 256, method="stable", noise=False)
        assert abs(int(fast.max()) - int(stable.max())) <= 256

    def test_uniform_rdfa_grows_with_p(self):
        """The paper's Table 3 pattern: SDS uniform RDFA creeps up."""
        m = UniverseModel.uniform()
        r1 = evaluate(m, 100_000_000, 512).rdfa
        r2 = evaluate(m, 100_000_000, 32768).rdfa
        assert 1.0 <= r1 < r2 < 1.3

    def test_matches_exact_at_overlap_scale(self):
        """Count-space and exact evaluators agree on skewed max loads."""
        n, p, alpha = 2000, 64, 1.4
        exact = evaluate_loads(zipf(alpha), n, p, method="fast")
        cs = countspace_loads(UniverseModel.zipf(alpha), n, p,
                              method="fast", noise=False)
        assert cs.max() == pytest.approx(exact.loads.max(), rel=0.2)

    def test_hyksort_oom_scale(self):
        """At delta=2% and p=8192 the heaviest HykSort rank exceeds the
        Edison memory ratio — the Figure 8 failure."""
        m = UniverseModel.zipf(0.7)
        loads = countspace_loads(m, 100_000, 8192, method="hyksort")
        assert loads.max() / 100_000 > 6.7

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            countspace_loads(UniverseModel.uniform(), 100, 4, method="x")


class TestFromKeys:
    def test_delta_preserved(self):
        from repro.workloads import ptf
        keys = ptf().generate(100_000, seed=1).keys
        model = UniverseModel.from_keys(keys)
        assert model.delta == pytest.approx(0.2802, abs=0.02)

    def test_uniform_sample(self):
        rng = np.random.default_rng(0)
        model = UniverseModel.from_keys(rng.random(50_000))
        assert model.delta < 0.01
        assert model.pmf.size > 1000

    def test_bridges_to_paper_scale(self):
        """Fit on a functional-scale sample, evaluate at 131,072 ranks."""
        from repro.workloads import zipf
        keys = zipf(0.7).generate(200_000, seed=2).keys
        model = UniverseModel.from_keys(keys)
        loads = countspace_loads(model, 100_000_000, 131072, method="hyksort")
        assert loads.max() / 100_000_000 > 6.7  # the Figure 8 OOM

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UniverseModel.from_keys(np.zeros(0))

    def test_constant_sample(self):
        model = UniverseModel.from_keys(np.full(100, 3.0))
        assert model.delta == 1.0

    @pytest.mark.parametrize("name, opts", [
        ("uniform", {}), ("zipf", {"alpha": 0.7}), ("ptf", {}),
        ("cosmology", {})])
    def test_agrees_with_analytic_model_for(self, name, opts):
        """Admission's memory estimate rests on ``analytic_model_for``
        picking the right model.  Like-for-like: a fit of real shard
        keys against a fit of a same-size draw from the model's pmf, so
        both sides carry the same histogram sampling statistics."""
        from repro.simfast import analytic_model_for
        from repro.workloads import by_name

        wl = by_name(name, **opts)
        keys = np.concatenate([
            np.asarray(wl.shard(4096, 64, r, 0).keys, dtype=np.float64)
            for r in (0, 21, 42, 63)])
        model = analytic_model_for(wl)
        draw = np.random.default_rng(0x5EED).choice(
            model.pmf.size, size=keys.size, p=model.pmf)
        d_fit = UniverseModel.from_keys(keys).delta
        d_ref = UniverseModel.from_keys(draw).delta
        assert abs(d_fit - d_ref) / max(d_ref, 8.0 / keys.size) <= 1.8
        assert analytic_model_for(by_name("staggered")) is None


class TestHykOneShotEquivalence:
    def test_value_space_matches_multilevel_engine(self):
        """The one-shot value-space model claims the staged k-way
        recursion only changes the route, not the final owner of each
        value range.  Check it against the real multi-level engine run
        (p=16, k=4 -> two levels)."""
        from repro.baselines import HykParams, hyksort
        from repro.workloads import zipf as _zipf

        wl, n, p = _zipf(1.4), 500, 16

        def prog(comm):
            shard = wl.shard(n, comm.size, comm.rank, 3)
            # tight tolerance: drive refinement to the best value cuts,
            # which is what the one-shot model computes
            out = hyksort(comm, shard,
                          HykParams(k=4, tolerance=0.001, max_iters=20))
            return len(out.batch)

        engine_loads = sorted(run_spmd(prog, p).results)
        model = sorted(
            evaluate_loads(wl, n, p, method="hyksort", seed=3).loads)
        # per-level refinement re-targets quantiles within groups, so
        # exact equality isn't expected — but the load distribution
        # (esp. the duplicate-laden max) must match closely
        assert model[-1] == pytest.approx(engine_loads[-1], rel=0.15)
        assert sum(model) == sum(engine_loads)


class TestHykRecursiveEvaluator:
    def test_conserves_records(self):
        from repro.simfast import generate_sorted_shards, hyksort_recursive_loads
        shards = generate_sorted_shards(uniform(), 300, 16, 1)
        loads = hyksort_recursive_loads(shards, k=4)
        assert loads.sum() == 300 * 16
        assert loads.shape == (16,)

    def test_matches_one_shot_on_max_load(self):
        """The recursion's second-order target shifts barely move the
        duplicate-dominated max load."""
        from repro.simfast import (
            generate_sorted_shards,
            hyksort_recursive_loads,
            hyksort_value_space_loads,
        )
        shards = generate_sorted_shards(zipf(1.4), 500, 16, 3)
        rec = hyksort_recursive_loads(shards, k=4)
        one = hyksort_value_space_loads(shards)
        assert rec.max() == pytest.approx(one.max(), rel=0.1)

    def test_matches_engine_multilevel(self):
        """Full circle: exact recursion vs the real engine run at the
        same (p, k) with tight refinement tolerance."""
        from repro.baselines import HykParams, hyksort
        from repro.simfast import generate_sorted_shards, hyksort_recursive_loads

        wl, n, p = zipf(1.4), 400, 16

        def prog(comm):
            shard = wl.shard(n, comm.size, comm.rank, 7)
            out = hyksort(comm, shard,
                          HykParams(k=4, tolerance=0.001, max_iters=25))
            return len(out.batch)

        engine = sorted(run_spmd(prog, p).results)
        shards = generate_sorted_shards(wl, n, p, 7)
        model = sorted(hyksort_recursive_loads(shards, k=4))
        assert model[-1] == pytest.approx(engine[-1], rel=0.1)
        assert sum(model) == sum(engine)
