"""The fault-injection & resilience subsystem, end to end.

Covers the determinism contract (same (spec, p, seed) -> same schedule,
same output, same report), the golden invariant (no plan / empty spec
-> bit-for-bit fault-free clocks), every fault family's mechanism, the
degraded-completion crash path, and the chaos harness.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    CRASH_BOUNDARIES,
    CollectiveFaults,
    CrashFault,
    FaultSpec,
    MessageFaults,
    RetryPolicy,
    StragglerFault,
    canonical_hash,
)
from repro.faults.chaos import PRESETS, run_chaos, spec_from_config
from repro.machine import EDISON
from repro.metrics import check_sorted
from repro.mpi import (
    ColumnarWorld,
    FlatAbort,
    MessageLostError,
    RankFailure,
    SimWorld,
    SpmdResult,
    make_world_comms,
    run_spmd,
    run_spmd_flat,
)
from repro.obs import Tracer
from repro.runner import run_sort
from repro.workloads import by_name

from . import oracles_faults

UNIFORM = by_name("uniform")


# ---------------------------------------------------------------- spec layer
class TestFaultSpec:
    def test_empty_spec(self):
        assert FaultSpec().empty
        assert not FaultSpec(messages=MessageFaults(drop_rate=0.1)).empty
        assert not FaultSpec(crashes=(CrashFault(rank=0),)).empty

    @pytest.mark.parametrize("bad", [
        dict(messages=dict(drop_rate=1.5)),
        dict(messages=dict(delay_rate=-0.1)),
        dict(messages=dict(duplicate_rate=2.0)),
        dict(collectives=dict(transient_rate=-1.0)),
    ])
    def test_rates_validated(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.from_dict(bad)

    def test_straggler_validated(self):
        with pytest.raises(ValueError):
            StragglerFault(slowdown=0.5)
        with pytest.raises(ValueError):
            StragglerFault(rank=-2)
        with pytest.raises(ValueError):
            StragglerFault(count=0)

    def test_crash_phase_validated(self):
        with pytest.raises(ValueError):
            CrashFault(phase="nonsense")
        for phase in CRASH_BOUNDARIES:
            CrashFault(phase=phase)

    def test_retry_policy_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_detection_time_backoff(self):
        r = RetryPolicy(timeout=1.0, backoff=2.0)
        assert r.detection_time(0) == 0.0
        assert r.detection_time(3) == pytest.approx(1.0 + 2.0 + 4.0)

    def test_dict_roundtrip(self):
        spec = FaultSpec(
            stragglers=(StragglerFault(rank=3, slowdown=2.5),),
            messages=MessageFaults(drop_rate=0.1, delay_rate=0.2),
            collectives=CollectiveFaults(transient_rate=0.05),
            crashes=(CrashFault(rank=1, phase="exchange"),),
            retry=RetryPolicy(timeout=1e-4),
        )
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"messges": {}})


# ---------------------------------------------------------------- plan layer
class TestFaultPlan:
    def test_same_triple_same_schedule(self):
        spec = FaultSpec(
            stragglers=(StragglerFault(count=3, slowdown=4.0),),
            messages=MessageFaults(drop_rate=0.2, delay_rate=0.3,
                                   duplicate_rate=0.1),
            crashes=(CrashFault(phase="exchange"),),
        )
        a, b = spec.compile(64, seed=7), spec.compile(64, seed=7)
        assert a.describe() == b.describe()
        for src, dst, tag, seq in [(0, 1, 0, 0), (5, 9, 2, 3), (63, 0, 1, 9)]:
            assert a.p2p_event(src, dst, tag, seq) == \
                b.p2p_event(src, dst, tag, seq)
        group = tuple(range(64))
        for seq in range(5):
            assert a.collective_penalties(group, seq, [11, 40]) == \
                b.collective_penalties(group, seq, [11, 40])

    def test_different_seed_different_schedule(self):
        spec = FaultSpec(stragglers=(StragglerFault(count=2, slowdown=4.0),))
        stragglers = {
            tuple(sorted(spec.compile(64, seed=s).describe()["stragglers"]))
            for s in range(8)
        }
        assert len(stragglers) > 1

    def test_named_straggler_and_crash(self):
        spec = FaultSpec(stragglers=(StragglerFault(rank=5, slowdown=3.0),),
                         crashes=(CrashFault(rank=2, phase="pivot_select"),))
        plan = spec.compile(8, seed=0)
        assert plan.slowdown(5) == 3.0
        assert plan.slowdown(0) == 1.0
        assert plan.crash_at(2, "pivot_select")
        assert not plan.crash_at(2, "exchange")
        assert not plan.crash_at(3, "pivot_select")
        assert plan.crash_schedule == {2: "pivot_select"}

    def test_crash_at_rejects_unknown_boundary(self):
        plan = FaultSpec(crashes=(CrashFault(rank=0),)).compile(4, 0)
        with pytest.raises(ValueError, match="boundary"):
            plan.crash_at(0, "local_sort")

    def test_drop_rate_frequencies(self):
        plan = FaultSpec(
            messages=MessageFaults(drop_rate=0.25)).compile(4, seed=1)
        events = [plan.p2p_event(0, 1, 0, seq) for seq in range(4000)]
        dropped = sum(1 for e in events if e.drops > 0)
        assert 0.20 < dropped / 4000 < 0.30

    def test_collective_penalty_uniform_transients(self):
        """Transient failures are keyed without the rank: every member
        observes the same resync debt, keeping the group synchronised."""
        plan = FaultSpec(
            collectives=CollectiveFaults(transient_rate=0.5)).compile(8, 3)
        group = tuple(range(8))
        pens = plan.collective_penalties(group, 2, range(8))
        assert len({(p.detect_seconds, p.resync_rounds)
                    for p in pens if p is not None}) <= 1

    def test_singleton_group_no_penalty(self):
        plan = FaultSpec(
            messages=MessageFaults(drop_rate=0.9)).compile(4, 0)
        assert plan.collective_penalties((2,), 0, [0]) == [None]

    def test_plan_world_size_mismatch_rejected(self):
        plan = FaultSpec(messages=MessageFaults(drop_rate=0.1)).compile(8, 0)
        with pytest.raises(ValueError, match="p=8"):
            run_spmd(lambda c: c.barrier(), 4, faults=plan)


# ------------------------------------ the plan against its replaced forms
@st.composite
def _members(draw):
    """``(group size, communicator ranks asked for)``: sizes 1, 2, primes
    and the BTPE branch of numpy's binomial (``(size - 1) * min(q, 1 - q)
    > 30``: size >= 1502 at drop 0.02)."""
    size = draw(st.one_of(
        st.sampled_from([1, 2, 3, 7, 31, 61, 1501, 1531, 2053]),
        st.integers(1, 300)))
    return size, draw(st.lists(st.integers(0, size - 1), max_size=48))


@settings(max_examples=80, deadline=None)
@given(members=_members(),
       drop=st.one_of(st.sampled_from([0.0, 0.02, 0.05, 0.5, 0.6, 0.93, 1.0]),
                      st.floats(0.0, 1.0)),
       transient=st.sampled_from([0.0, 0.05, 0.5, 0.95]),
       retry=st.builds(RetryPolicy, timeout=st.sampled_from([1e-3, 3.3e-4]),
                       backoff=st.sampled_from([1.0, 1.7, 2.0]),
                       max_retries=st.sampled_from([0, 1, 8])),
       seed=st.integers(0, 2**40), seq=st.integers(0, 300),
       first=st.integers(0, 4096))
# drops and two or more transients: a precomputed transient sum is 1 ulp off
@example(members=(35, [0]), drop=0.05, transient=0.95,
         retry=RetryPolicy(timeout=3.3e-4, backoff=1.7), seed=0, seq=0,
         first=0)
def test_collective_penalties_equal_the_per_rank_oracle(
        members, drop, transient, retry, seed, seq, first):
    size, ranks = members
    spec = FaultSpec(messages=MessageFaults(drop_rate=drop),
                     collectives=CollectiveFaults(transient_rate=transient),
                     retry=retry)
    plan = spec.compile(first + size, seed)
    group = tuple(range(first, first + size))
    # ``==`` on the tuples: detect_seconds must match to the last bit
    assert plan.collective_penalties(group, seq, ranks) == [
        oracles_faults.collective_penalty(plan, group, seq, r)
        for r in ranks]


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 400), seed=st.integers(0, 2**40),
       stragglers=st.lists(st.tuples(st.integers(-1, 420),
                                     st.integers(1, 5),
                                     st.sampled_from([1.0, 1.5, 4.0])),
                           max_size=3),
       crashes=st.lists(st.tuples(st.integers(-1, 420),
                                  st.sampled_from(CRASH_BOUNDARIES)),
                        max_size=3))
def test_compiled_schedule_equals_the_eager_oracle(p, seed, stragglers,
                                                   crashes):
    spec = FaultSpec(
        stragglers=tuple(StragglerFault(rank=r, count=k, slowdown=f)
                         for r, k, f in stragglers),
        crashes=tuple(CrashFault(rank=r, phase=ph) for r, ph in crashes))
    plan = spec.compile(p, seed)
    slow, crashed = oracles_faults.schedule(spec, p, seed)
    assert [plan.slowdown(r) for r in range(p)] == slow
    assert plan.crash_schedule == crashed
    assert plan.has_stragglers == any(f != 1.0 for f in slow)
    assert plan.describe()["stragglers"] == {
        str(r): f for r, f in enumerate(slow) if f != 1.0}


def test_each_thread_reseats_its_own_generator():
    """Rank threads share a plan: a generator shared between them would
    let one thread re-seat another's stream between two draws."""
    from repro.faults.plan import _philox
    theirs = []
    t = threading.Thread(target=lambda: theirs.append(_philox(1)))
    t.start()
    t.join()
    assert theirs[0] is not _philox(1)


# ------------------------------------------------------- golden invariance
class TestGoldenInvariance:
    def _clocks(self, faults):
        def prog(comm):
            comm.allreduce(comm.rank)
            comm.barrier()
            vec = comm.allgather(np.arange(10) + comm.rank)
            if comm.rank == 0:
                comm.send(b"x" * 64, 1, tag=5)
            if comm.rank == 1:
                comm.recv(0, tag=5)
            return comm.clock, len(vec)
        return run_spmd(prog, 8, machine=EDISON, faults=faults)

    @staticmethod
    def _virtual(counters):
        """Drop host-walltime counters (*wait): they are real seconds
        spent blocked, not simulated time, and legitimately vary."""
        return [{k: v for k, v in c.items() if not k.endswith("wait")}
                for c in counters]

    def test_empty_spec_equals_no_plan(self):
        none = self._clocks(None)
        empty = self._clocks(FaultSpec().compile(8, seed=0))
        assert none.clocks == empty.clocks
        assert none.results == empty.results
        assert self._virtual(none.counters) == self._virtual(empty.counters)

    def test_fault_free_sort_unchanged(self):
        base = run_sort("sds", UNIFORM, n_per_rank=400, p=8, seed=0)
        under_empty = run_sort("sds", UNIFORM, n_per_rank=400, p=8, seed=0,
                               faults=FaultSpec())
        assert base.elapsed == under_empty.elapsed
        assert base.phase_times == under_empty.phase_times


# ------------------------------------------------------------ fault families
class _Idle:
    """A rank program with both entry points that does nothing."""

    def __call__(self, comm):
        return None

    def flat_run(self, comms):
        return [None] * len(comms), []


@pytest.mark.parametrize("entry", [
    lambda plan: run_spmd(_Idle(), 8, faults=plan),
    lambda plan: run_spmd(_Idle(), 8, faults=plan, backend="flat"),
    lambda plan: run_spmd_flat(_Idle(), 8, faults=plan),
    lambda plan: run_spmd(_Idle(), 8, faults=plan, cancel=_set_event()),
    lambda plan: SimWorld(8, EDISON, faults=plan),
], ids=["thread", "flat", "run_spmd_flat", "cancelled", "SimWorld"])
def test_a_plan_of_the_wrong_size_is_a_typed_error(entry):
    with pytest.raises(ValueError,
                       match="fault plan compiled for p=4, world has p=8"):
        entry(PRESETS["mixed"].compile(4, 0))


def _set_event() -> threading.Event:
    done = threading.Event()
    done.set()
    return done


class TestStragglers:
    def test_slowdown_scales_compute_charges(self):
        spec = FaultSpec(stragglers=(StragglerFault(rank=2, slowdown=4.0),))

        def prog(comm):
            comm.charge(1.0)
            return comm.clock

        res = run_spmd(prog, 4, faults=spec.compile(4, 0))
        assert res.results[2] == pytest.approx(4.0)
        assert res.results[0] == pytest.approx(1.0)
        assert res.counters[2].get("faults.straggler") == 1.0

    def test_straggler_slows_the_sort(self):
        base = run_sort("sds", UNIFORM, n_per_rank=500, p=8, seed=0)
        slow = run_sort(
            "sds", UNIFORM, n_per_rank=500, p=8, seed=0,
            faults=FaultSpec(stragglers=(StragglerFault(rank=0,
                                                        slowdown=8.0),)))
        assert slow.ok and slow.elapsed > base.elapsed


class TestMessageFaults:
    def _p2p_prog(self, comm):
        """A ring of tagged messages exercising the p2p hook."""
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        for i in range(20):
            comm.send(np.arange(8) + i, nxt, tag=i % 3)
        got = [comm.recv(prv, tag=i % 3) for i in range(20)]
        comm.barrier()
        return sum(int(g.sum()) for g in got), comm.clock

    def test_drops_charge_retries_and_deliver(self):
        spec = FaultSpec(messages=MessageFaults(drop_rate=0.2))
        clean = run_spmd(self._p2p_prog, 8)
        faulty = run_spmd(self._p2p_prog, 8, faults=spec.compile(8, seed=2))
        # payloads intact (retries are transparent to the protocol)
        assert [r[0] for r in faulty.results] == [r[0] for r in clean.results]
        dropped = sum(c.get("faults.msg_dropped", 0) for c in faulty.counters)
        assert dropped > 0
        assert sum(c.get("retry.time", 0) for c in faulty.counters) > 0
        assert max(r[1] for r in faulty.results) > \
            max(r[1] for r in clean.results)

    def test_delay_inflates_arrival_only(self):
        spec = FaultSpec(messages=MessageFaults(delay_rate=1.0, delay=0.5))

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"payload", 1)
            if comm.rank == 1:
                comm.recv(0)
            return comm.clock

        clean = run_spmd(prog, 2)
        faulty = run_spmd(prog, 2, faults=spec.compile(2, 0))
        assert faulty.results[1] == pytest.approx(clean.results[1] + 0.5)
        assert faulty.counters[0].get("faults.msg_delayed") == 1.0

    def test_duplicates_charge_both_ends(self):
        spec = FaultSpec(messages=MessageFaults(duplicate_rate=1.0))

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"payload", 1)
            if comm.rank == 1:
                comm.recv(0)
            return comm.clock

        res = run_spmd(prog, 2, faults=spec.compile(2, 0))
        assert res.counters[0].get("faults.msg_duplicated") == 1.0
        assert res.counters[1].get("faults.dup_discarded") == 1.0

    def test_certain_drop_exhausts_retries(self):
        spec = FaultSpec(messages=MessageFaults(drop_rate=1.0),
                         retry=RetryPolicy(max_retries=2))

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"doomed", 1)
            if comm.rank == 1:
                comm.recv(0)

        with pytest.raises(RankFailure) as ei:
            run_spmd(prog, 2, faults=spec.compile(2, 0))
        assert isinstance(ei.value.cause, MessageLostError)

    def test_sendrecv_protocols_survive_drops(self):
        """The bitonic baseline (pure sendrecv protocol) under drops."""
        from repro.records import tag_provenance
        spec = FaultSpec(messages=MessageFaults(drop_rate=0.1))

        def prog(comm):
            shard = tag_provenance(
                UNIFORM.shard(100, comm.size, comm.rank, 0), comm.rank)
            from repro.baselines import bitonic_sort_batch
            return shard, bitonic_sort_batch(comm, shard)

        res = run_spmd(prog, 8, faults=spec.compile(8, seed=1))
        check_sorted([r[0] for r in res.results],
                     [r[1].batch for r in res.results])


class TestCollectiveFaults:
    def test_transients_charge_every_member(self):
        spec = FaultSpec(collectives=CollectiveFaults(transient_rate=0.5))

        def prog(comm):
            for _ in range(10):
                comm.allreduce(1)
            return comm.clock

        clean = run_spmd(prog, 8)
        faulty = run_spmd(prog, 8, faults=spec.compile(8, seed=4))
        transients = sum(c.get("faults.coll_transient", 0)
                        for c in faulty.counters)
        assert transients > 0
        # transient debt is rank-uniform: clocks stay in lockstep
        assert len(set(faulty.results)) == 1
        assert faulty.results[0] > clean.results[0]

    def test_collective_drops_differ_per_rank(self):
        spec = FaultSpec(messages=MessageFaults(drop_rate=0.3))

        def prog(comm):
            for _ in range(10):
                comm.allreduce(1)
            return comm.clock

        faulty = run_spmd(prog, 8, faults=spec.compile(8, seed=4))
        dropped = sum(c.get("faults.coll_msg_dropped", 0)
                      for c in faulty.counters)
        assert dropped > 0

    def test_rank_threads_switching_every_microsecond_book_flat_debt(self):
        # 48 rank threads write their own entries of the world's debt
        # column and the context's sequence column: a lost update moves a
        # clock or a verdict away from the columnar world's
        spec = FaultSpec(messages=MessageFaults(drop_rate=0.02),
                         collectives=CollectiveFaults(transient_rate=0.3))
        p, interval = 48, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = run_spmd(_Collectives(), p, machine=EDISON,
                               faults=spec.compile(p, 5))
        finally:
            sys.setswitchinterval(interval)
        flat = run_spmd(_Collectives(), p, machine=EDISON, backend="flat",
                        faults=spec.compile(p, 5))
        assert threads.clocks == flat.clocks
        assert [{k: v for k, v in c.items() if k != "coll.sync_wait"}
                for c in threads.counters] == flat.counters
        assert all(c["faults.coll_transient"] > 0 for c in flat.counters)


class _Collectives:
    """Twelve collectives entered at unequal clocks."""

    def __call__(self, comm):
        comm.charge(1e-4 * (comm.rank % 5))
        for i in range(4):
            comm.allreduce(comm.rank + i)
            comm.barrier()
            comm.bcast(i)

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        world.charge_compute(comms, [1e-4 * (c.rank % 5) for c in comms])
        for i in range(4):
            world.allreduce(comms, [c.rank + i for c in comms])
            world.barrier(comms)
            world.bcast(comms, [i] * len(comms))
        return [None] * len(comms), world.failures


class TestCrashRecovery:
    @pytest.mark.parametrize("phase", CRASH_BOUNDARIES)
    @pytest.mark.parametrize("algorithm", ["sds", "sds-stable"])
    def test_degraded_completion(self, phase, algorithm):
        spec = FaultSpec(crashes=(CrashFault(rank=3, phase=phase),))
        r = run_sort(algorithm, UNIFORM, n_per_rank=400, p=8, seed=0,
                     faults=spec, fault_seed=0)
        assert r.ok  # validated: survivors' data sorted (stably for -stable)
        assert r.extras["crashed_ranks"] == [3]
        recoveries = [d for d in r.extras["decisions"]
                      if d["decision"] == "fault_recovery"]
        assert len(recoveries) == 1
        assert recoveries[0]["measured"]["boundary"] == phase
        assert recoveries[0]["measured"]["crashed_ranks"] == [3]
        assert recoveries[0]["measured"]["p_active"] == 7

    def test_crashed_rank_output_empty(self):
        spec = FaultSpec(crashes=(CrashFault(rank=1, phase="exchange"),))
        r = run_sort("sds", UNIFORM, n_per_rank=300, p=4, seed=0,
                     faults=spec, keep_outputs=True)
        assert r.ok
        assert len(r.outputs[1]) == 0
        assert sum(len(b) for b in r.outputs) == 3 * 300

    def test_exchange_crash_reruns_pivot_selection(self):
        """Survivors re-derive pivots/displacements over the reduced
        world: the trace shows two pivot_method decisions."""
        spec = FaultSpec(crashes=(CrashFault(rank=2, phase="exchange"),))
        r = run_sort("sds", UNIFORM, n_per_rank=300, p=8, seed=0,
                     faults=spec)
        pivots = [d for d in r.extras["decisions"]
                  if d["decision"] == "pivot_method"]
        assert len(pivots) == 2

    def test_two_crashes_still_validate_the_survivors(self):
        spec = FaultSpec(crashes=(CrashFault(rank=2, phase="pivot_select"),
                                  CrashFault(rank=5, phase="exchange")))
        seen = []

        def spy(inputs, outputs, **kw):
            seen.append(len(inputs))
            return check_sorted(inputs, outputs, **kw)

        with mock.patch("repro.runner.check_sorted", spy):
            r = run_sort("sds", UNIFORM, n_per_rank=300, p=8, seed=0,
                         faults=spec, keep_outputs=True)
        assert r.ok and r.extras["crashed_ranks"] == [2, 5]
        assert seen == [6]  # the survivors' inputs, once
        assert len(r.outputs[2]) == len(r.outputs[5]) == 0
        assert sum(len(b) for b in r.outputs) == 6 * 300

    def test_two_rank_world_crash_degrades_to_singleton(self):
        spec = FaultSpec(crashes=(CrashFault(rank=1, phase="pivot_select"),))
        r = run_sort("sds", UNIFORM, n_per_rank=200, p=2, seed=0,
                     faults=spec)
        assert r.ok and r.extras["crashed_ranks"] == [1]

    def test_healthy_runs_skip_the_barrier(self):
        """A crash-free plan must not add the health-check collectives."""
        base = run_sort("sds", UNIFORM, n_per_rank=300, p=8, seed=0)
        faulted = run_sort(
            "sds", UNIFORM, n_per_rank=300, p=8, seed=0,
            faults=FaultSpec(stragglers=(StragglerFault(rank=0,
                                                        slowdown=1.5),)))
        assert "fault_recovery" not in faulted.phase_times
        assert set(base.phase_times) == set(faulted.phase_times)


# --------------------------------------------------- acceptance at p = 256
class TestAtScale:
    @pytest.mark.parametrize("algorithm", ["sds", "sds-stable"])
    def test_drop_spec_completes_at_p256(self, algorithm):
        """Acceptance: <=10% drops at p=256 complete via retries with
        correct (stably-)sorted output."""
        spec = FaultSpec(messages=MessageFaults(drop_rate=0.1))
        r = run_sort(algorithm, UNIFORM, n_per_rank=100, p=256, seed=0,
                     faults=spec, fault_seed=0, mem_factor=None)
        assert r.ok  # run_sort validated sortedness (+stability)
        base = run_sort(algorithm, UNIFORM, n_per_rank=100, p=256, seed=0,
                        mem_factor=None)
        assert r.elapsed > base.elapsed

    def test_single_rank_crash_at_p256(self):
        # node merging would park non-leader ranks before the boundary
        # (a rank that already handed its data off cannot crash with
        # it), so disable it to keep every rank eligible
        spec = FaultSpec(crashes=(CrashFault(phase="exchange"),))
        r = run_sort("sds", UNIFORM, n_per_rank=100, p=256, seed=0,
                     faults=spec, fault_seed=1, mem_factor=None,
                     algo_opts={"node_merge_enabled": False})
        assert r.ok and len(r.extras["crashed_ranks"]) == 1
        assert any(d["decision"] == "fault_recovery"
                   for d in r.extras["decisions"])


# ------------------------------------------------------------ chaos harness
class TestChaos:
    def test_presets_cover_all_families(self):
        assert {"drop", "delay", "duplicate", "straggler", "collective",
                "crash-pivot", "crash-exchange", "mixed"} <= set(PRESETS)

    def test_spec_from_config(self):
        assert spec_from_config("drop") is PRESETS["drop"]
        spec = spec_from_config({"messages": {"drop_rate": 0.2}})
        assert spec.messages.drop_rate == 0.2
        with pytest.raises(KeyError):
            spec_from_config("nope")

    def test_matrix_recovers_and_hashes_deterministically(self):
        kwargs = dict(p=8, n_per_rank=100, seeds=[0, 1],
                      specs=["drop", "straggler", "crash-exchange"],
                      algorithms=["sds"])
        a = run_chaos(**kwargs)
        b = run_chaos(**kwargs)
        assert a.summary()["recovery_rate"] == 1.0
        assert a.report_hash == b.report_hash
        assert a.summary()["runs"] == 6

    def test_report_shapes(self):
        rep = run_chaos(p=8, n_per_rank=100, seeds=[0],
                        specs=["crash-pivot"], algorithms=["sds"])
        rec = rep.records[0]
        assert rec.recovered and rec.crashed_ranks
        assert rec.recovery_decisions >= 1
        d = rep.as_dict()
        assert d["summary"]["specs"]["crash-pivot"]["crashes"] == 1
        assert canonical_hash(d) == rep.report_hash

    def test_a_crash_that_never_fired_is_not_injected(self):
        # PSRS has no crash barrier: the preset's victim never crashes,
        # and the cell must not read as a recovery
        from repro.faults.report import render_report
        rep = run_chaos(p=8, n_per_rank=100, seeds=[0],
                        specs=["crash-pivot", "straggler"],
                        algorithms=["sds", "psrs"])
        cells = {(r.spec_name, r.algorithm): r for r in rep.records}
        idle = cells["crash-pivot", "psrs"]
        assert idle.recovered is None and not idle.crashed_ranks
        assert cells["crash-pivot", "sds"].recovered is True
        assert cells["straggler", "psrs"].recovered is True
        s = rep.summary()
        assert s["recovered"] == 3 and s["recovery_rate"] == 1.0
        assert s["specs"]["crash-pivot"]["recovered"] == 1
        assert s["specs"]["crash-pivot"]["recovery_rate"] == 1.0
        lines = render_report(rep)
        assert "not injected: 1" in lines[1]
        assert "  crash-pivot/psrs seeds=[0]" in lines
        assert not any(line.startswith("failed runs") for line in lines)
        only = run_chaos(p=8, n_per_rank=100, seeds=[0],
                         specs=["crash-pivot"], algorithms=["psrs"])
        assert only.summary()["recovery_rate"] is None
        assert "recovery rate: n/a" in render_report(only)[1]


# ------------------------------------------------------------------ CLI glue
class TestFaultsCli:
    def _run(self, capsys, *argv):
        from repro.cli import main
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_sort_with_fault_preset(self, capsys):
        code, out = self._run(
            capsys, "sort", "--p", "8", "--n", "300",
            "--fault-spec", "crash-exchange", "--fault-seed", "1",
            "--explain")
        assert code == 0
        assert "faults" in out
        assert "fault_recovery" in out  # recovery visible under --explain

    def test_sort_with_inline_json_spec(self, capsys):
        code, out = self._run(
            capsys, "sort", "--p", "4", "--n", "200",
            "--fault-spec", '{"messages": {"drop_rate": 0.05}}')
        assert code == 0 and "ok (validated)" in out

    def test_chaos_command(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, out = self._run(
            capsys, "chaos", "--p", "8", "--n", "100", "--seeds", "0..1",
            "--specs", "drop,straggler", "--algorithms", "sds",
            "--json", str(out_json))
        assert code == 0
        assert "recovery rate: 100.0%" in out
        assert "report hash:" in out
        assert out_json.exists()

    def test_chaos_command_passes_cells_that_were_not_injected(self, capsys):
        code, out = self._run(
            capsys, "chaos", "--p", "8", "--n", "100", "--seeds", "0",
            "--specs", "crash-exchange", "--algorithms", "psrs")
        assert code == 0
        assert "not injected: 1" in out

    @pytest.mark.parametrize("argv", [
        ("sort", "--p", "0"),
        ("sort", "--p", "-3"),
        ("sort", "--n", "-1"),
        ("sort", "--mem-factor", "0"),
        ("sort", "--mem-factor", "-2.5"),
        ("chaos", "--p", "0"),
        ("chaos", "--seeds", "5..2"),
        ("sort", "--fault-spec", "bogus"),
    ])
    def test_argument_validation(self, argv):
        from repro.cli import main
        with pytest.raises(SystemExit) as ei:
            main(list(argv))
        assert ei.value.code == 2  # argparse usage error, not a traceback


# ------------------------------------- a lost collective, on the flat world
def _lossy_allreduce(p, traced):
    # no retry budget: a rank that sees any of its p - 1 messages drop
    # has lost the collective
    spec = FaultSpec(messages=MessageFaults(drop_rate=0.05),
                     retry=RetryPolicy(max_retries=0))
    sim = SimWorld(p, EDISON, faults=spec.compile(p, 4),
                   tracer=Tracer(p) if traced else None)
    comms = make_world_comms(sim)
    world = ColumnarWorld(sim)
    world.charge_compute(comms, [0.125 * r for r in range(p)])
    outs = world.allreduce(comms, list(range(p)))
    return sim, world, outs


def test_a_lost_collective_leaves_its_rank_out_and_nobody_else():
    p = 16
    sim, world, outs = _lossy_allreduce(p, traced=True)
    plan, group = sim.faults, sim.world_ctx.group
    lost = [r for r, pen in enumerate(plan.collective_penalties(
        group, 0, range(p))) if pen and pen.lost]
    assert 0 < len(lost) < p and outs == [sum(range(p))] * p
    assert [(r, type(e)) for r, e in world.failures] == [
        (r, MessageLostError) for r in lost]
    done = 0.125 * (p - 1) + sim.cost.tree_collective_time(p, 8)
    views = SpmdResult(sim, outs)
    rank_spans, rank_counters = (sim.tracer.rank_spans(),
                                 sim.tracer.counters.rows())
    for r in range(p):
        spans = [s for s in rank_spans[r] if s[2] == "coll"]
        if r in lost:  # booked nothing: clock, counter, span
            assert views.clocks[r] == 0.125 * r
            assert views.counters[r] == {} and spans == []
            assert set(rank_counters[r]) <= {"cost.compute"}
        else:
            assert views.clocks[r] == done
            assert views.counters[r] == {"coll.allreduce": 1.0}
            assert spans == [(0.125 * r, done, "coll", "allreduce", None)]
    with pytest.raises(FlatAbort):  # the next checked collective aborts
        world.barrier(make_world_comms(sim))
    plain, pworld, pouts = _lossy_allreduce(p, traced=False)
    again, _, _ = _lossy_allreduce(p, traced=True)
    plain = SpmdResult(plain, pouts)
    assert (plain.clocks, plain.counters) == (views.clocks, views.counters)
    assert [r for r, _ in pworld.failures] == lost
    assert (again.tracer.rank_spans(), again.tracer.counters.rows()) == (
        rank_spans, rank_counters)
