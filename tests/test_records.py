"""RecordBatch: structure, alignment, splitting, provenance."""

import numpy as np
import pytest

from repro.records import (
    SRC_POS,
    SRC_RANK,
    RecordBatch,
    from_mapping,
    tag_provenance,
)


class TestConstruction:
    def test_basic(self):
        b = RecordBatch(np.array([3.0, 1.0]), {"x": np.array([30, 10])})
        assert len(b) == 2
        assert b.columns == ("x",)

    def test_rejects_misaligned_payload(self):
        with pytest.raises(ValueError, match="length"):
            RecordBatch(np.array([1.0, 2.0]), {"x": np.array([1])})

    def test_rejects_2d_keys(self):
        with pytest.raises(ValueError):
            RecordBatch(np.zeros((2, 2)))

    def test_nbytes_and_record_bytes(self):
        b = RecordBatch(np.zeros(10, dtype=np.float64),
                        {"x": np.zeros(10, dtype=np.float32)})
        assert b.nbytes == 10 * 8 + 10 * 4
        assert b.record_bytes == 12

    def test_record_bytes_count_trailing_dimensions(self):
        b = RecordBatch(np.zeros(5), {"vec": np.zeros((5, 3))})
        assert b.record_bytes == 32 == b.nbytes // len(b)
        assert b.schema == (np.dtype(np.float64),
                            ("vec", np.dtype(np.float64), (3,)))
        for derived in (b.take(np.array([4, 0])), b.slice(1, 3),
                        *b.split([0, 2, 5]), b.copy()):
            assert derived.schema == b.schema
            assert derived.nbytes == len(derived) * 32
        empty = RecordBatch.empty_like(b)
        assert empty.payload["vec"].shape == (0, 3)
        assert empty.schema == b.schema and empty.nbytes == 0

    def test_from_mapping(self):
        b = from_mapping(np.array([1.0]), {"a": np.array([2])})
        assert b.payload["a"][0] == 2


class TestOps:
    def test_take_aligns_payload(self):
        b = RecordBatch(np.array([3.0, 1.0, 2.0]), {"v": np.array([30, 10, 20])})
        t = b.take(np.array([1, 2, 0]))
        assert list(t.keys) == [1.0, 2.0, 3.0]
        assert list(t.payload["v"]) == [10, 20, 30]

    def test_sort_carries_payload(self, rng):
        keys = rng.random(100)
        b = RecordBatch(keys, {"orig": np.arange(100)})
        s = b.sort()
        assert s.is_sorted()
        assert np.array_equal(keys[s.payload["orig"]], s.keys)

    def test_stable_sort_ties(self):
        b = RecordBatch(np.array([1.0, 1.0, 0.0]), {"i": np.array([0, 1, 2])})
        s = b.sort(stable=True)
        assert list(s.payload["i"]) == [2, 0, 1]

    def test_slice_is_view(self):
        b = RecordBatch(np.arange(10.0))
        s = b.slice(2, 5)
        assert list(s.keys) == [2.0, 3.0, 4.0]
        assert s.keys.base is not None  # no copy

    def test_split_roundtrip(self):
        b = RecordBatch(np.arange(10.0), {"x": np.arange(10)})
        parts = b.split([0, 3, 3, 10])
        assert [len(p) for p in parts] == [3, 0, 7]
        rejoined = RecordBatch.concat(parts)
        assert np.array_equal(rejoined.keys, b.keys)
        assert np.array_equal(rejoined.payload["x"], b.payload["x"])

    def test_split_validates(self):
        b = RecordBatch(np.arange(4.0))
        with pytest.raises(ValueError):
            b.split([0, 2])          # doesn't end at len
        with pytest.raises(ValueError):
            b.split([0, 3, 2, 4])    # decreasing

    def test_concat_schema_mismatch(self):
        a = RecordBatch(np.array([1.0]), {"x": np.array([1])})
        b = RecordBatch(np.array([2.0]), {"y": np.array([2])})
        with pytest.raises(ValueError, match="schema"):
            RecordBatch.concat([a, b])

    def test_concat_empty_list(self):
        out = RecordBatch.concat([])
        assert len(out) == 0

    def test_empty_like(self):
        proto = RecordBatch(np.array([1.0], dtype=np.float32),
                            {"x": np.array([1], dtype=np.int16)})
        e = RecordBatch.empty_like(proto)
        assert len(e) == 0
        assert e.keys.dtype == np.float32
        assert e.payload["x"].dtype == np.int16

    def test_copy_is_deep(self):
        b = RecordBatch(np.array([1.0]), {"x": np.array([1])})
        c = b.copy()
        c.keys[0] = 9.0
        assert b.keys[0] == 1.0

    def test_is_sorted(self):
        assert RecordBatch(np.array([])).is_sorted()
        assert RecordBatch(np.array([1.0, 1.0, 2.0])).is_sorted()
        assert not RecordBatch(np.array([2.0, 1.0])).is_sorted()


class TestProvenance:
    def test_tags_added(self):
        b = RecordBatch(np.array([5.0, 6.0]))
        t = tag_provenance(b, rank=3)
        assert list(t.payload[SRC_RANK]) == [3, 3]
        assert list(t.payload[SRC_POS]) == [0, 1]

    def test_original_untouched(self):
        b = RecordBatch(np.array([5.0]))
        tag_provenance(b, 0)
        assert SRC_RANK not in b.payload

    def test_existing_payload_kept(self):
        b = RecordBatch(np.array([5.0]), {"v": np.array([7])})
        t = tag_provenance(b, 0)
        assert t.payload["v"][0] == 7
