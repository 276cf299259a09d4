"""Tests for range-encoded arrays, rid deltas and the compressed rlist
option."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.arrays import (
    RangeEncodedArray,
    RidDelta,
    decode_ranges,
    encode_ranges,
    rid_array,
)
from repro.relational.types import INT_ARRAY


class TestEncoding:
    def test_dense_run_is_one_range(self):
        assert encode_ranges(list(range(1, 11))) == [(1, 10)]

    def test_mixed_runs(self):
        assert encode_ranges([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 7), (9, 10)]

    def test_empty(self):
        assert encode_ranges([]) == []
        assert decode_ranges([]) == []

    def test_roundtrip(self):
        values = [1, 2, 3, 7, 9, 10, 50]
        assert decode_ranges(encode_ranges(values)) == values

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            encode_ranges([3, 1])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            encode_ranges([1, 1, 2])

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            decode_ranges([(5, 3)])

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10_000),
            unique=True,
            max_size=200,
        ).map(sorted)
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, values):
        assert decode_ranges(encode_ranges(values)) == values


class TestRangeEncodedArray:
    def test_len_iter_contains(self):
        array = RangeEncodedArray([1, 2, 3, 8, 9])
        assert len(array) == 5
        assert list(array) == [1, 2, 3, 8, 9]
        assert 2 in array
        assert 8 in array
        assert 5 not in array
        assert "x" not in array

    def test_equality_with_list(self):
        assert RangeEncodedArray([1, 2, 3]) == [1, 2, 3]
        assert RangeEncodedArray([1, 3]) != [1, 2]

    def test_compression_on_dense_rids(self):
        array = RangeEncodedArray(list(range(1, 10_001)))
        assert array.num_ranges == 1
        assert array.compression_ratio() > 1000

    def test_no_compression_on_sparse(self):
        array = RangeEncodedArray(list(range(0, 1000, 2)))
        assert array.compression_ratio() < 1.0  # ranges cost more here


class TestCompressedRlistModel:
    def test_checkout_identical_with_and_without_compression(self, sci_tiny):
        from repro.core.cvd import CVD
        from repro.core.models.split_by_rlist import SplitByRlistModel
        from repro.relational.database import Database
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT

        schema = Schema(
            [ColumnDef(f"a{i}", INT) for i in range(sci_tiny.num_attributes)]
        )
        contents = {}
        storage = {}
        for compress in (False, True):
            db = Database()
            model = SplitByRlistModel(
                db, "c", schema, compress_rlists=compress
            )
            CVD.from_history(
                db, sci_tiny, name="c", model=model, schema=schema
            )
            contents[compress] = {
                c.vid: model.checkout_columns(c.vid)[0]
                for c in sci_tiny.commits[::9]
            }
            storage[compress] = model.versioning_table.storage_bytes()
        assert contents[False] == contents[True]
        # Sequential rid allocation makes rlists run-heavy: compression
        # must shrink the versioning table (the Section 4.2 remark).
        assert storage[True] < storage[False]


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(1, 300), max_size=120),
    st.sets(st.integers(1, 400), max_size=120),
)
def test_a_rid_delta_rebuilds_any_version_from_any_base(base, target):
    """Removed and added rids ascend, and applying the delta to the
    base's rids gives the target's, ascending, wherever the added rids
    fall among the kept ones (a merge's do not all come last)."""
    base_rids, rids = rid_array(sorted(base)), rid_array(sorted(target))
    delta = RidDelta.between(7, base_rids, rids)
    assert delta.base == 7
    assert list(delta.removed) == sorted(base - target)
    assert list(delta.added) == sorted(target - base)
    assert len(delta) == len(base ^ target)
    rebuilt = delta.apply(base_rids)
    assert type(rebuilt) is array and rebuilt == rids
    assert base_rids == rid_array(sorted(base))  # the base is not touched
    assert INT_ARRAY.validate(delta) and INT_ARRAY.sizeof(delta) == 4 * len(delta) + 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(1, 60), max_size=40), min_size=2, max_size=6))
def test_a_chain_of_rid_deltas_makes_one(versions):
    """Deltas between consecutive versions, made one, rebuild the last
    version from the first, however rids come, go and come back."""
    rids = [rid_array(sorted(version)) for version in versions]
    deltas = [
        RidDelta.between(n, before, after) for n, (before, after) in enumerate(zip(rids, rids[1:]))
    ]
    made = RidDelta.chained(deltas)
    assert made.base == 0
    assert made.apply(rids[0]) == rids[-1]
    assert list(made.removed) == sorted(versions[0] - versions[-1])
    assert list(made.added) == sorted(versions[-1] - versions[0])
