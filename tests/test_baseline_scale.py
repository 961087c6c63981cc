"""The baselines hold O(k) batches a rank per level, never O(p).

A HykSort level talks to ``k`` peers and a radix rank to at most ``n``
destinations: ``p`` send slots a rank (p^2 in all) made flat HykSort at
p=4096 take minutes and gigabytes.  SDS with node merge builds no batch
for a rank's input (a world's input is one table per shard shape), only
the leaders' few, and a communicator only for the leaders.  Flat PSRS builds its phase products — decision
plans, regular samples, cuts, sorted rows — once per communicator or
shard shape, not once per rank, and its outputs once per exchange
gather; flat SDS builds its cuts in every partition variant.  Counted
at p=1024 x 64, flat.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.baselines.hyksort import HykParams, _level_fanout
from repro.core.pipeline import Partition
from repro.core.plan import SortPlan
from repro.core.sampling import SampleRuns
from repro.mpi import Comm, Cuts
from repro.records import RaggedTable, RecordBatch, SortedRows
from repro.runner import run_sort
from repro.workloads import by_name

P, N_PER_RANK = 1024, 64


def _hyksort_levels(p: int, k: int) -> int:
    levels = 0
    while p > 1:
        p //= _level_fanout(p, k)
        levels += 1
    return levels


def _count_batches(algorithm: str, workload: str, p: int = P,
                   **kwargs) -> tuple[int, int]:
    built = [0]
    init, unsafe = RecordBatch.__init__, RecordBatch._unsafe.__func__

    def counted_init(self, *args, **kw):
        built[0] += 1
        init(self, *args, **kw)

    def counted_unsafe(cls, *args, **kw):
        built[0] += 1
        return unsafe(cls, *args, **kw)

    with mock.patch.object(RecordBatch, "__init__", counted_init), \
            mock.patch.object(RecordBatch, "_unsafe",
                              classmethod(counted_unsafe)):
        r = run_sort(algorithm, by_name(workload), p=p,
                     n_per_rank=N_PER_RANK, backend="flat", **kwargs)
    assert r.ok, r.failure
    return built[0], r.extras["p_active"]


@pytest.mark.parametrize("algorithm,workload", [
    ("hyksort", "uniform"), ("hyksort-sk", "zipf")])
def test_hyksort_builds_o_pk_batches_per_level(algorithm, workload):
    # measured: 66-69 a rank over 2 levels; a p-slot send list is > 1,100
    levels = _hyksort_levels(P, HykParams().k)
    built, _ = _count_batches(algorithm, workload, mem_factor=None)
    assert built <= P * levels * N_PER_RANK, built


@pytest.mark.parametrize("workload", ["uniform", "zipf"])
def test_radix_builds_o_pn_batches(workload):
    # one exchange; measured 12-24 a rank, a p-slot send list > 1,000
    built, _ = _count_batches("radix", workload, mem_factor=None)
    assert built <= P * N_PER_RANK, built


def test_sds_with_node_merge_builds_batches_only_for_leaders():
    # p=4096: 174 measured, one for each of the 171 leaders (merged)
    # and a few shared; the leaders' outputs are rows of the exchange's
    # gathers (a batch each built 350); a batch a rank drawn and one
    # tagged, the input form this replaced, built 8,542
    built, leaders = _count_batches("sds", "uniform", p=4096, mem_factor=None)
    assert leaders == -(-4096 // 24)
    assert built <= leaders + 32, built


def test_sds_with_node_merge_builds_a_comm_only_for_leaders():
    # the world's p handles plus one leader communicator's 43 (a split
    # into per-node communicators first built another p)
    built = [0]
    init = Comm.__init__

    def counted_init(self, *args, **kw):
        built[0] += 1
        init(self, *args, **kw)

    with mock.patch.object(Comm, "__init__", counted_init):
        r = run_sort("sds", by_name("uniform"), p=P, n_per_rank=N_PER_RANK,
                     backend="flat", mem_factor=None)
    assert r.ok, r.failure
    leaders = -(-P // 24)  # Edison's 24-rank nodes
    assert built[0] <= P + leaders + 8, built[0]


def _counted(init, built: Counter, name: str):
    def counted_init(self, *args, **kw):
        built[name] += 1
        return init(self, *args, **kw)
    return counted_init


def test_flat_psrs_builds_phase_products_per_shape_not_per_rank():
    # the ranks of one shard shape share one decision plan, one sample
    # stack and one cell table: one built per rank is 1,024 of each
    built: Counter = Counter()
    with ExitStack() as patches:
        for cls in (SortPlan, SampleRuns, Cuts):
            patches.enter_context(mock.patch.object(
                cls, "__init__", _counted(cls.__init__, built, cls.__name__)))
        r = run_sort("psrs", by_name("uniform"), p=P, n_per_rank=N_PER_RANK,
                     backend="flat", mem_factor=None)
    assert r.ok, r.failure
    assert set(built) == {"SortPlan", "SampleRuns", "Cuts"}
    assert max(built.values()) <= 8, built


def test_flat_psrs_keeps_sorted_rows_one_table_to_the_exchange():
    # the exchange reads the local sort's matrices whole (1,024 a rank)
    built: Counter = Counter()
    with ExitStack() as patches:
        for cls, name, what in ((SortedRows, "__init__", "tables"),
                                (SortedRows, "row", "takes"),
                                (RecordBatch, "take", "takes")):
            patches.enter_context(mock.patch.object(
                cls, name, _counted(getattr(cls, name), built, what)))
        r = run_sort("psrs", by_name("uniform"), p=P, n_per_rank=N_PER_RANK,
                     backend="flat", mem_factor=None)
    assert r.ok, r.failure
    assert built["tables"] <= 8 and built["takes"] <= 8, built


def test_flat_psrs_hands_out_one_table_per_output_gather():
    # p=2048: each exchange gather of <= BLOCK_RECORDS records stays one
    # table from the exchange to validation; cut into a batch a rank, and
    # validated as such, the run built 2,051
    built: Counter = Counter()
    with mock.patch.object(RaggedTable, "__init__", _counted(
            RaggedTable.__init__, built, "gathers")):
        batches, _ = _count_batches("psrs", "uniform", p=2048,
                                    mem_factor=None)
    assert 1 <= built["gathers"] <= 8, built
    assert batches <= built["gathers"] + 8, (batches, built)


@pytest.mark.parametrize("algorithm", ["sds", "sds-stable"])
def test_flat_sds_builds_partition_tables_per_shape_not_per_rank(algorithm):
    # every variant cuts a shard shape into one table: one a rank is 1,024
    built: Counter = Counter()
    run = Partition.run

    def counted_run(self, world, ctxs):
        with mock.patch.object(Cuts, "__init__", _counted(
                Cuts.__init__, built, "Cuts")):
            return run(self, world, ctxs)

    with mock.patch.object(Partition, "run", counted_run):
        r = run_sort(algorithm, by_name("zipf"), p=P, n_per_rank=N_PER_RANK,
                     backend="flat", mem_factor=None,
                     algo_opts={"node_merge_enabled": False})
    assert r.ok, r.failure
    assert 1 <= built["Cuts"] <= 8, built
