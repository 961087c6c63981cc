"""Metrics: RDFA, replication ratio, throughput, validators."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runner
from repro.metrics import (
    KeyProfile,
    LoadStats,
    ValidationError,
    check_globally_ordered,
    check_locally_sorted,
    check_multiset,
    check_sorted,
    check_stable,
    paper_scale_bytes,
    rdfa,
    replication_ratio,
    tb_per_min,
    workload_bound_factor,
)
from repro.metrics.validate import _provenance_index, _tables
from repro.records import (
    SRC_POS,
    SRC_RANK,
    RaggedTable,
    RecordBatch,
    ShardRows,
    ShardTable,
    rank_batches,
    tag_provenance,
)
from repro.workloads import by_name


class TestRdfa:
    def test_perfect_balance(self):
        assert rdfa([10, 10, 10]) == 1.0

    def test_imbalance(self):
        assert rdfa([30, 10, 20]) == pytest.approx(1.5)

    def test_empty_is_inf(self):
        assert math.isinf(rdfa([]))

    def test_all_zero(self):
        assert rdfa([0, 0]) == 1.0

    def test_load_stats(self):
        s = LoadStats.of([4, 6, 10])
        assert (s.p, s.total, s.max, s.min) == (3, 20, 10, 4)
        assert s.rdfa == pytest.approx(1.5)

    def test_workload_bound_factor(self):
        assert workload_bound_factor([200, 100], 100) == 2.0
        with pytest.raises(ValueError):
            workload_bound_factor([1], 0)


class TestReplication:
    def test_distinct_keys(self, rng):
        keys = rng.permutation(1000)
        assert replication_ratio(keys) == pytest.approx(0.001)

    def test_all_same(self):
        assert replication_ratio(np.full(50, 3.0)) == 1.0

    def test_empty(self):
        assert replication_ratio(np.array([])) == 0.0

    def test_key_profile(self):
        prof = KeyProfile.of(np.array([1, 1, 1, 2, 2, 3]))
        assert prof.distinct == 3
        assert prof.delta == pytest.approx(0.5)
        assert prof.dup_fraction == pytest.approx(5 / 6)
        assert prof.top_counts == (3, 2, 1)


class TestThroughput:
    def test_paper_headline(self):
        """52.4 TB in 28.25 s ~= 111 TB/min (Section 4.1.2)."""
        assert tb_per_min(52.4e12, 28.25) == pytest.approx(111, rel=0.01)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            tb_per_min(1, 0)

    def test_scale_bytes(self):
        assert paper_scale_bytes(100, 4, 8) == 3200


class TestValidators:
    def _sorted_outputs(self):
        return [RecordBatch(np.array([1.0, 2.0])), RecordBatch(np.array([3.0]))]

    def test_locally_sorted_ok(self):
        check_locally_sorted(self._sorted_outputs())

    def test_locally_sorted_fails(self):
        with pytest.raises(ValidationError):
            check_locally_sorted([RecordBatch(np.array([2.0, 1.0]))])

    def test_globally_ordered_ok(self):
        check_globally_ordered(self._sorted_outputs())

    def test_globally_ordered_skips_empty(self):
        outs = [RecordBatch(np.array([1.0])), RecordBatch(np.array([])),
                RecordBatch(np.array([2.0]))]
        check_globally_ordered(outs)

    def test_globally_ordered_fails_on_overlap(self):
        outs = [RecordBatch(np.array([5.0])), RecordBatch(np.array([3.0]))]
        with pytest.raises(ValidationError, match="below"):
            check_globally_ordered(outs)

    def test_multiset_detects_loss(self):
        ins = [RecordBatch(np.array([1.0, 2.0]))]
        outs = [RecordBatch(np.array([1.0]))]
        with pytest.raises(ValidationError, match="count"):
            check_multiset(ins, outs)

    def test_multiset_detects_corruption(self):
        ins = [RecordBatch(np.array([1.0, 2.0]))]
        outs = [RecordBatch(np.array([1.0, 9.0]))]
        with pytest.raises(ValidationError, match="key multiset"):
            check_multiset(ins, outs)

    def test_multiset_checks_provenance(self):
        a = tag_provenance(RecordBatch(np.array([1.0, 1.0])), 0)
        # drop one provenance row, duplicate the other
        bad = a.take(np.array([0, 0]))
        with pytest.raises(ValidationError, match="provenance"):
            check_multiset([a], [bad])

    def test_stable_ok(self):
        b = tag_provenance(RecordBatch(np.full(4, 2.0)), 0)
        check_stable([b])

    def test_stable_violation(self):
        b = tag_provenance(RecordBatch(np.full(3, 2.0)), 0)
        shuffled = b.take(np.array([1, 0, 2]))
        with pytest.raises(ValidationError, match="stability"):
            check_stable([shuffled])

    def test_stable_needs_provenance(self):
        with pytest.raises(ValidationError, match="provenance"):
            check_stable([RecordBatch(np.array([1.0]))])

    def test_stable_cross_rank_ordering(self):
        a = tag_provenance(RecordBatch(np.full(2, 5.0)), 0)
        b = tag_provenance(RecordBatch(np.full(2, 5.0)), 1)
        check_stable([a, b])       # rank 0 then rank 1: fine
        with pytest.raises(ValidationError):
            check_stable([b, a])   # rank order inverted


def _columnwise_multiset(inputs, outputs):
    """Property 3 as its definition states it (the validator up to PR 16):
    each column compared as a sorted multiset.  ``True`` = accepted."""
    in_all, out_all = RecordBatch.concat(inputs), RecordBatch.concat(outputs)
    if len(in_all) != len(out_all):
        return False
    if not np.array_equal(np.sort(in_all.keys), np.sort(out_all.keys)):
        return False
    if SRC_RANK in in_all.payload and SRC_RANK in out_all.payload:
        for col in (SRC_RANK, SRC_POS):
            if not np.array_equal(np.sort(in_all.payload[col]),
                                  np.sort(out_all.payload[col])):
                return False
    return True


def _world(lengths, *, seed=0, values=6, ranks=None, payload=True):
    """Tagged inputs (``lengths[i]`` records on rank ``ranks[i]``) and
    their stable sort, cut into as many outputs as there are inputs."""
    rng = np.random.default_rng(seed)
    ranks = range(len(lengths)) if ranks is None else ranks
    inputs = [tag_provenance(RecordBatch(
        rng.integers(0, values, n).astype(np.float64),
        {"v": rng.random(n)} if payload else {}), r)
        for n, r in zip(lengths, ranks)]
    whole = RecordBatch.concat(inputs).sort(stable=True)
    cuts = np.linspace(0, len(whole), len(lengths) + 1).astype(int)
    return inputs, whole.split(cuts.tolist())


def _edit(outputs, r, **columns):
    """``outputs`` with rank ``r``'s named columns replaced."""
    b = outputs[r]
    new = RecordBatch(columns.pop("keys", b.keys), {**b.payload, **columns})
    return [*outputs[:r], new, *outputs[r + 1:]]


class TestProvenanceIndexedMultiset:
    """Property 3 through the provenance index: same verdicts as the
    column-wise definition wherever that one rejects, and rejections of
    its own where records are re-paired behind intact columns."""

    def test_valid_sort_accepted_in_every_input_arrangement(self):
        for lengths in ([5, 0, 9, 3], [0, 0], [1], [4, 4, 4]):
            inputs, outputs = _world(lengths, seed=len(lengths))
            strip = [RecordBatch(b.keys, {"v": b.payload["v"]})
                     for b in inputs]
            for ins in (inputs,                       # canonical: index form
                        inputs[::-1],                 # ranks descending
                        [RecordBatch.concat(inputs)],  # ranks in one batch
                        strip):                       # no provenance
                assert _columnwise_multiset(ins, outputs)
                check_multiset(ins, outputs)
            check_sorted(inputs, outputs, stable=True)

    def test_same_verdict_as_definition_on_corrupted_columns(self):
        inputs, outputs = _world([6, 7, 5], seed=3)
        b = outputs[1]
        pos, ranks = b.payload[SRC_POS].copy(), b.payload[SRC_RANK].copy()
        pos[2], ranks[3] = pos[2] + 50, (ranks[3] + 1) % 3
        corrupted = [
            _edit(outputs, 1, keys=np.where(np.arange(len(b)) == 2,
                                            b.keys + 0.5, b.keys)),
            _edit(outputs, 1, **{SRC_POS: pos}),
            _edit(outputs, 1, **{SRC_RANK: ranks}),
            [outputs[0], outputs[1].take(np.arange(len(b)) // 2 * 2),
             outputs[2]],                              # rows duplicated
            [outputs[0], outputs[1].slice(0, 3), outputs[2]],   # rows lost
        ]
        for bad in corrupted:
            for ins in (inputs, inputs[::-1]):         # index form, definition
                assert not _columnwise_multiset(ins, bad)
                with pytest.raises(ValidationError):
                    check_multiset(ins, bad)

    def test_rejects_positions_traded_across_ranks(self):
        # two records of different ranks swap ``_src_pos``: every column
        # keeps its multiset, but (rank 0, pos 0) and (rank 1, pos 2) are
        # now each named twice and (0, 2), (1, 0) by nobody
        inputs = [tag_provenance(RecordBatch(np.array([1.0, 4.0, 2.0])), 0),
                  tag_provenance(RecordBatch(np.array([3.0, 5.0, 6.0])), 1)]
        whole = RecordBatch.concat(inputs).sort(stable=True)
        pos = whole.payload[SRC_POS].copy()
        i, j = 1, 2             # key 2.0 = (rank 0, pos 2), 3.0 = (rank 1, pos 0)
        pos[i], pos[j] = pos[j], pos[i]
        bad = [RecordBatch(whole.keys, {**whole.payload, SRC_POS: pos})]
        assert _columnwise_multiset(inputs, bad)
        with pytest.raises(ValidationError, match="appears twice"):
            check_sorted(inputs, bad)

    def test_rejects_a_key_overwritten_with_another_records_value(self):
        # (rank 0, pos 1) and (rank 1, pos 0) exchange keys and keep
        # their tags: sorted keys, ranks and positions are all unchanged
        inputs = [tag_provenance(RecordBatch(np.array([1.0, 2.0])), 0),
                  tag_provenance(RecordBatch(np.array([3.0, 4.0])), 1)]
        bad = [RecordBatch(np.array([1.0, 2.0, 3.0, 4.0]), {
            SRC_RANK: np.array([0, 1, 0, 1], dtype=np.int32),
            SRC_POS: np.array([0, 0, 1, 1])})]
        assert _columnwise_multiset(inputs, bad)
        with pytest.raises(ValidationError, match="key"):
            check_multiset(inputs, bad)
        # the untagged definition cannot see it, by construction
        check_multiset([RecordBatch(b.keys) for b in inputs],
                       [RecordBatch(b.keys) for b in bad])

    def test_rejects_tags_out_of_range(self):
        inputs, outputs = _world([4, 4], seed=1)
        b = outputs[0]
        for col, value in ((SRC_RANK, 2), (SRC_RANK, -1), (SRC_POS, 4),
                           (SRC_POS, -1)):
            column = b.payload[col].copy()
            column[1] = value
            with pytest.raises(ValidationError, match="provenance"):
                check_multiset(inputs, _edit(outputs, 0, **{col: column}))

    def test_crashed_ranks_leave_gaps_in_the_rank_range(self):
        # degraded completion: ranks 1 and 4 crashed, their inputs left
        inputs, outputs = _world([5, 6, 0, 7], seed=2, ranks=[0, 2, 3, 5])
        check_sorted(inputs, outputs, stable=True)
        stray = outputs[0].payload[SRC_RANK].copy()
        stray[0] = 1                                    # a crashed rank
        with pytest.raises(ValidationError, match="provenance"):
            check_multiset(inputs, _edit(outputs, 0, **{SRC_RANK: stray}))
        stray[0] = 3                                    # held nothing
        with pytest.raises(ValidationError, match="provenance"):
            check_multiset(inputs, _edit(outputs, 0, **{SRC_RANK: stray}))

    def test_empty_world(self):
        inputs, outputs = _world([0, 0, 0])
        check_sorted(inputs, outputs, stable=True)
        check_sorted([], [])

    def test_promoted_tag_columns_are_judged_by_the_definition(self):
        # a merge that concatenated with a float empty promotes the tags
        inputs, outputs = _world([5, 5], seed=4)
        floats = [RecordBatch(b.keys, {
            **b.payload, SRC_POS: b.payload[SRC_POS].astype(np.float64)})
            for b in outputs]
        check_sorted(inputs, floats, stable=True)
        floats[0].payload[SRC_POS][0] += 0.5
        with pytest.raises(ValidationError, match="provenance"):
            check_multiset(inputs, floats)

    def test_mixed_schemas_are_refused(self):
        inputs, outputs = _world([3, 3], seed=5)
        with pytest.raises(ValueError, match="schema"):
            check_multiset(inputs, [outputs[0], RecordBatch(outputs[1].keys)])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5),
           st.integers(0, 2 ** 31), st.sampled_from(["keys", SRC_RANK,
                                                     SRC_POS, "none"]),
           st.data())
    def test_property_never_weaker_than_the_definition(self, lengths, seed,
                                                       column, data):
        _never_weaker(lengths, seed, column, data, list)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5),
           st.integers(0, 2 ** 31), st.sampled_from(["keys", SRC_RANK,
                                                     SRC_POS, "none"]),
           st.data())
    def test_property_never_weaker_on_table_inputs(self, lengths, seed,
                                                   column, data):
        _never_weaker(lengths, seed, column, data, _as_tables)


def _never_weaker(lengths, seed, column, data, form):
    """One output column corrupted (or none): the verdict on ``form`` of
    the inputs rejects whatever the definition rejects."""
    inputs, outputs = _world(lengths, seed=seed, values=3, payload=False)
    total = sum(lengths)
    if column != "none" and total:
        whole = RecordBatch.concat(outputs)
        col = (whole.keys if column == "keys"
               else whole.payload[column]).copy()
        i = data.draw(st.integers(0, total - 1))
        col[i] = data.draw(st.integers(-1, 6))
        whole = (RecordBatch(col, whole.payload) if column == "keys" else
                 RecordBatch(whole.keys, {**whole.payload, column: col}))
        outputs = [whole]
    try:
        check_multiset(form(inputs), outputs)
    except ValidationError:
        return
    assert _columnwise_multiset(inputs, outputs)


def _as_tables(inputs, ranks=None):
    """Tagged per-rank ``inputs`` as a flat world holds them: written
    into one table per shape and tagged there (per-rank entries)."""
    rows = ShardRows(len(inputs))
    for b in inputs:
        rows.add(RecordBatch(b.keys, {k: v for k, v in b.payload.items()
                                      if k not in (SRC_RANK, SRC_POS)}))
    return rows.entries(range(len(inputs)) if ranks is None else ranks)


def _retagged(table, row, column, values):
    """``table`` with row ``row`` of a provenance column replaced."""
    col = np.array(table.payload[column])
    col[row] = values
    return ShardTable(table.keys, {**table.payload, column: col})


class TestTableInputs:
    """The validator on a flat world's input form: one table per shape,
    the index proved once a table; anything else is the definition's."""

    @staticmethod
    def _sorted(tables):
        return [RecordBatch.concat(rank_batches(tables)).sort(stable=True)]

    def test_positions_other_than_arange_are_judged_by_the_definition(self):
        inputs, _ = _world([4, 4, 4], seed=7)
        table = _retagged(_as_tables(inputs)[0], 1, SRC_POS, [3, 2, 1, 0])
        assert _provenance_index([table]) is None
        tables = [table] * 3
        outputs = self._sorted(tables)
        check_sorted(tables, outputs, stable=False)
        assert _columnwise_multiset(rank_batches(tables), outputs)
        lost = [outputs[0].slice(0, 11)]
        with pytest.raises(ValidationError, match="record count"):
            check_multiset(tables, lost)

    def test_a_row_naming_another_rank_is_judged_by_the_definition(self):
        inputs, _ = _world([3, 3, 3], seed=8)
        table = _as_tables(inputs)[0]
        for rank in ([0, 0, 0], [1, 1, 0]):          # rank 0's twice, mixed
            bad = _retagged(table, 1, SRC_RANK, rank)
            assert _provenance_index([bad]) is None
            tables = [bad] * 3
            check_multiset(tables, self._sorted(tables))
        assert _provenance_index([table]) is not None

    def test_crashed_ranks_rows_leave_gaps(self):
        inputs, outputs = _world([5, 5, 5, 5], seed=2, ranks=[0, 2, 3, 5])
        tables = _as_tables(inputs, [0, 2, 3, 5])
        assert _provenance_index(_tables(tables)) is not None
        check_sorted(tables, outputs, stable=True)
        for rank in (1, 4, 6):                          # crashed, past the end
            stray = outputs[0].payload[SRC_RANK].copy()
            stray[0] = rank
            with pytest.raises(ValidationError, match="provenance"):
                check_multiset(tables, _edit(outputs, 0, **{SRC_RANK: stray}))

    def test_traded_keys_and_a_duplicated_record_are_rejected(self):
        inputs, outputs = _world([6, 6], seed=9, values=100)
        tables = _as_tables(inputs)
        whole = RecordBatch.concat(outputs)
        keys = whole.keys.copy()
        keys[[0, -1]] = keys[[-1, 0]]                   # tags stay put
        traded = [RecordBatch(keys, whole.payload)]
        assert _columnwise_multiset(inputs, traded)
        with pytest.raises(ValidationError, match="key"):
            check_multiset(tables, traded)
        twice = [whole.take(np.r_[0, np.arange(len(whole) - 1)])]
        with pytest.raises(ValidationError, match="appears twice"):
            check_multiset(tables, twice)

    def test_per_rank_batches_are_stacked_as_keys_and_tags_alone(self):
        inputs, outputs = _world([4, 4, 3], seed=5)        # payload "v" too
        tables = _tables(inputs)
        assert [sorted(t.payload) for t in tables] == [[SRC_POS, SRC_RANK]] * 2
        check_sorted(inputs, outputs, stable=True)


def _output_tables(outputs, groups, loose=()):
    """Per-rank ``outputs`` as an exchange hands them out: each run of
    ``groups[k]`` consecutive ranks one table named once per row, or, for
    ``k`` in ``loose``, left as its batches."""
    entries, at = [], 0
    for k, g in enumerate(groups):
        rows, at = outputs[at:at + g], at + g
        if k in loose:
            entries += rows
            continue
        whole = RecordBatch.concat(rows)
        offs = np.cumsum([0] + [len(b) for b in rows])
        entries += [RaggedTable(whole.keys, whole.payload, offs)] * g
    return entries


def _verdict(inputs, outputs, stable=True):
    try:
        check_sorted(inputs, outputs, stable=stable)
    except ValidationError as exc:
        return str(exc)
    return None


class TestTableOutputs:
    """The validator on the exchange's output form: one table per gather,
    read a stretch of rows at a time.  Each mutant sits at the boundary
    between two tables and is caught with the verdict the per-rank
    batches get."""

    @staticmethod
    def _boundary(values=100):
        """Four ranks in two two-row tables; the records either side of
        the boundary as ``(rank, index)`` of the per-rank outputs."""
        inputs, outputs = _world([5, 5, 5, 5], seed=11, values=values)
        return inputs, outputs, (1, len(outputs[1]) - 1), (2, 0)

    @staticmethod
    def _judged(inputs, outputs, match, stable=False):
        want = _verdict(inputs, outputs, stable)
        assert want is not None and match in want
        assert _verdict(inputs, _output_tables(outputs, [2, 2]), stable) == want

    @staticmethod
    def _set(outputs, at, **values):
        r, i = at
        b = outputs[r]
        cols = {name: (b.keys if name == "keys" else b.payload[name]).copy()
                for name in values}
        for name, value in values.items():
            cols[name][i] = value
        return _edit(outputs, r, **cols)

    def test_a_valid_world_passes_in_any_cut(self):
        inputs, outputs, _, _ = self._boundary(values=3)
        for groups, loose in (([4], ()), ([2, 2], ()), ([1, 3], (0,)),
                              ([1, 1, 2], (1,)), ([2, 2], (0, 1))):
            check_sorted(inputs, _output_tables(outputs, groups, loose),
                         stable=True)
        tables = _output_tables(outputs, [2, 2])
        assert [len(b) for b in rank_batches(tables)] == [len(b) for b in outputs]

    def test_records_swapped_across_two_tables(self):
        # the tags of the records either side trade places: every column
        # keeps its multiset and its order, only the index sees it
        inputs, outputs, a, b = self._boundary()
        tags = {c: (outputs[a[0]].payload[c][a[1]], outputs[b[0]].payload[c][b[1]])
                for c in (SRC_RANK, SRC_POS)}
        swapped = self._set(outputs, a, **{c: v[1] for c, v in tags.items()})
        swapped = self._set(swapped, b, **{c: v[0] for c, v in tags.items()})
        assert _columnwise_multiset(inputs, swapped)
        self._judged(inputs, swapped, "key")

    def test_one_record_in_two_tables(self):
        inputs, outputs, a, b = self._boundary()
        last = outputs[a[0]]
        twice = self._set(outputs, b, keys=last.keys[a[1]], **{
            c: last.payload[c][a[1]] for c in (SRC_RANK, SRC_POS)})
        self._judged(inputs, twice, "appears twice")

    def test_a_key_overwritten(self):
        inputs, outputs, a, b = self._boundary()
        overwritten = self._set(outputs, b, keys=outputs[a[0]].keys[a[1]])
        self._judged(inputs, overwritten, "key")

    def test_a_stability_break_across_the_boundary(self):
        # one key everywhere: the two records either side trade places
        inputs, outputs, a, b = self._boundary(values=1)
        ra, rb = outputs[a[0]], outputs[b[0]]
        broken = self._set(outputs, a, **{c: rb.payload[c][b[1]]
                                          for c in (SRC_RANK, SRC_POS)})
        broken = self._set(broken, b, **{c: ra.payload[c][a[1]]
                                         for c in (SRC_RANK, SRC_POS)})
        check_sorted(inputs, _output_tables(broken, [2, 2]))
        self._judged(inputs, broken, "stability violated at global position 10",
                     stable=True)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.integers(0, 2 ** 31), st.sampled_from(["keys", SRC_RANK,
                                                     SRC_POS, "none"]),
           st.booleans(), st.data())
    def test_property_table_and_batch_forms_agree(self, lengths, seed, column,
                                                  stable, data):
        inputs, outputs = _world(lengths, seed=seed, values=3, payload=False)
        full = [r for r, b in enumerate(outputs) if len(b)]
        if column != "none" and full:
            r = data.draw(st.sampled_from(full))
            i = data.draw(st.integers(0, len(outputs[r]) - 1))
            outputs = self._set(outputs, (r, i),
                                **{column: data.draw(st.integers(-1, 6))})
        groups, left = [], len(outputs)
        while left:
            groups.append(data.draw(st.integers(1, left)))
            left -= groups[-1]
        loose = data.draw(st.sets(st.integers(0, len(groups) - 1)))
        assert (_verdict(inputs, _output_tables(outputs, groups, loose), stable)
                == _verdict(inputs, outputs, stable))


def test_check_sorted_holds_one_gather_of_scratch():
    # flat sds-stable ptf p=8 x 50k: above its entry, validation holds the
    # ``taken`` mask and one gather's worth of scratch at a time;
    # concatenating the world's output columns rose 17.6 MiB
    seen = {}
    check = runner.check_sorted

    def traced(inputs, outputs, **kw):
        tracemalloc.start()
        try:
            check(inputs, outputs, **kw)
            seen["rise"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = list(dict.fromkeys(outputs))
        seen["records"] = sum(t.keys.size for t in tables)
        seen["gather"] = max(t.keys.size * t.record_bytes for t in tables)

    with mock.patch.object(runner, "check_sorted", traced):
        r = runner.run_sort("sds-stable", by_name("ptf"), p=8,
                            n_per_rank=50_000, backend="flat")
    assert r.ok, r.failure
    assert seen["records"] == 8 * 50_000
    assert seen["rise"] <= seen["records"] + seen["gather"], seen


class TestOnePassSortedness:
    """``check_sorted`` tests properties 1 and 2 in one pass over the
    concatenated keys; the verdict — which error, naming which rank —
    must be the one ``check_locally_sorted`` then
    ``check_globally_ordered`` give, batch by batch."""

    @staticmethod
    def _definition(outputs):
        try:
            check_locally_sorted(outputs)
            check_globally_ordered(outputs)
        except ValidationError as exc:
            return str(exc)
        return None

    @classmethod
    def _assert_same_verdict(cls, outputs):
        want = cls._definition(outputs)
        try:
            check_sorted(outputs, outputs)     # outputs are their own input
        except ValidationError as exc:
            got = str(exc)
        else:
            got = None
        assert got == want
        return want

    def test_names_the_first_unsorted_rank_then_the_first_bad_boundary(self):
        a, b, c = (RecordBatch(np.array(k)) for k in
                   ([1.0, 2.0], [2.0, 5.0], [6.0, 7.0]))
        assert self._assert_same_verdict([a, b, c]) is None
        bad_b = RecordBatch(np.array([5.0, 2.0]))
        low_c = RecordBatch(np.array([4.0, 7.0]))
        assert self._assert_same_verdict([a, bad_b, c]) == (
            "rank 1 output is not locally sorted")
        # a local violation outranks an earlier boundary violation
        assert self._assert_same_verdict([b, a, bad_b]) == (
            "rank 2 output is not locally sorted")
        verdict = self._assert_same_verdict([a, b, low_c])
        assert verdict.startswith("rank 2 starts at ")
        assert "below rank 1's max" in verdict
        empty = RecordBatch(np.zeros(0))
        verdict = self._assert_same_verdict([a, b, empty, empty, low_c])
        assert verdict.startswith("rank 4 starts at ")
        assert "below rank 1's max" in verdict

    def test_nan_verdicts_are_the_definitions(self):
        nan = np.nan
        # inside a batch a NaN fails ``is_sorted``; a one-key NaN batch
        # and a NaN at a boundary pass both definitions
        assert self._assert_same_verdict(
            [RecordBatch(np.array([1.0, nan, 3.0]))]) == (
            "rank 0 output is not locally sorted")
        for outputs in ([RecordBatch(np.array([nan]))],
                        [RecordBatch(np.array([1.0, 2.0])),
                         RecordBatch(np.array([nan])),
                         RecordBatch(np.array([3.0]))]):
            assert self._definition(outputs) is None
            check_locally_sorted(outputs)
            check_globally_ordered(outputs)
            # the multiset check then compares NaN keys: its own verdict
            with pytest.raises(ValidationError, match="key multiset"):
                check_sorted(outputs, outputs)

    def test_mixed_key_dtypes_are_compared_batch_by_batch(self):
        # promoted to float64 the two ints collapse to one value; the
        # int batch itself is unsorted by one
        big = 2 ** 53
        ints = RecordBatch(np.array([big + 1, big], dtype=np.int64))
        floats = RecordBatch(np.array([float(big)]))
        assert self._assert_same_verdict([ints, floats]) == (
            "rank 0 output is not locally sorted")

    def test_schema_mismatch_is_reported_after_sortedness(self):
        a = RecordBatch(np.array([2.0, 1.0]), {"v": np.zeros(2)})
        b = RecordBatch(np.array([3.0]), {"w": np.zeros(1)})
        with pytest.raises(ValidationError, match="rank 0"):
            check_sorted([a, b], [a, b])
        with pytest.raises(ValueError, match="schema mismatch"):
            check_sorted([a.sort(), b], [a.sort(), b])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=6),
           st.booleans())
    def test_property_same_verdict_as_the_definitions(self, rows, ordered):
        if ordered:   # mostly sorted worlds: one swap decides the verdict
            flat = sorted(v for row in rows for v in row)
            it = iter(flat)
            rows = [[next(it) for _ in row] for row in rows]
            if flat and len(rows) > 1:
                rows[len(rows) // 2] = rows[len(rows) // 2][::-1]
        self._assert_same_verdict(
            [RecordBatch(np.array(row, dtype=np.float64)) for row in rows])
