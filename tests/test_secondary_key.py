"""Secondary-sort-key HykSort (the workaround the paper declines)."""

import numpy as np
import pytest

from repro.baselines import hyksort_secondary_key
from repro.faults.spec import FaultSpec, MessageFaults
from repro.metrics import check_sorted, check_stable, rdfa
from repro.mpi import run_spmd
from repro.records import tag_provenance
from repro.runner import run_sort
from repro.workloads import ptf, uniform, zipf


def run_sk(workload, p, n, seed=0):
    def prog(comm):
        shard = tag_provenance(workload.shard(n, comm.size, comm.rank, seed),
                               comm.rank)
        return shard, hyksort_secondary_key(comm, shard)
    res = run_spmd(prog, p)
    ins = [r[0] for r in res.results]
    outs = [r[1].batch for r in res.results]
    return ins, outs, res


class TestCorrectness:
    def test_sorts_uniform(self):
        ins, outs, _ = run_sk(uniform(), 8, 300)
        check_sorted(ins, outs)

    def test_sorts_heavy_duplicates(self):
        ins, outs, _ = run_sk(zipf(2.1), 8, 500)
        check_sorted(ins, outs)

    def test_original_keys_restored(self):
        ins, outs, _ = run_sk(ptf(), 4, 200)
        got = np.sort(np.concatenate([o.keys for o in outs]))
        want = np.sort(np.concatenate([b.keys for b in ins]))
        assert np.array_equal(got, want)


class TestBalanceAndStability:
    def test_balances_where_plain_hyksort_blows_up(self):
        """Unique composite keys let the histogram cut anywhere."""
        from repro.baselines import hyksort

        def plain(comm):
            shard = zipf(2.1).shard(600, comm.size, comm.rank, 1)
            return hyksort(comm, shard)

        plain_loads = [len(r.batch) for r in run_spmd(plain, 8).results]
        _, sk_outs, _ = run_sk(zipf(2.1), 8, 600, seed=1)
        assert rdfa([len(o) for o in sk_outs]) < 2.0
        assert rdfa(plain_loads) > 3.0

    def test_stable_by_construction(self):
        """(key, rank, pos) composite implies stability."""
        ins, outs, _ = run_sk(zipf(1.4), 8, 400)
        check_sorted(ins, outs, stable=True)
        check_stable(outs)


class TestCost:
    def test_wider_records_cost_more(self):
        """The paper's objection, quantified: the composite variant
        exchanges more bytes and runs slower than SDS-Sort on the same
        data — and that is with balance restored."""
        sk = run_sort("hyksort-sk", zipf(1.4), n_per_rank=800, p=16,
                      seed=2, mem_factor=None)
        sds = run_sort("sds", zipf(1.4), n_per_rank=800, p=16, seed=2,
                       mem_factor=None,
                       algo_opts={"node_merge_enabled": False, "tau_o": 0})
        assert sk.ok and sds.ok
        assert sk.elapsed > sds.elapsed
        # both balanced
        assert sk.rdfa < 2.5 and sds.rdfa < 2.5

    def test_runner_validates_stability(self):
        r = run_sort("hyksort-sk", zipf(1.4), n_per_rank=300, p=8,
                     mem_factor=None)
        assert r.ok


class TestFaults:
    @pytest.mark.parametrize("backend", ["flat", "thread"])
    def test_lost_collective_fails_the_run_like_plain_hyksort(self, backend):
        # the first collective of the composite keys loses a message for
        # good: a failed result (not an exception out of ``run_sort``),
        # worded as plain HykSort words it on either backend
        lossy = FaultSpec(messages=MessageFaults(drop_rate=0.6))
        results = {algo: run_sort(algo, uniform(), n_per_rank=50, p=8,
                                  seed=1, faults=lossy, fault_seed=3,
                                  backend=backend)
                   for algo in ("hyksort", "hyksort-sk")}
        want = ("rank 4: MessageLostError('collective #0 on a 8-rank "
                "communicator: rank 4 exhausted 8 retries')")
        for res in results.values():
            assert not res.ok
            assert res.failure == want
