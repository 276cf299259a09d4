"""Tests for column data types and widening."""

import pickle

import pytest

from repro.relational.arrays import RidDelta
from repro.relational.types import (
    BOOL,
    FLOAT,
    INT,
    INT_ARRAY,
    TEXT,
    generalize_types,
    type_by_name,
)


class TestValidation:
    def test_int_accepts_int(self):
        assert INT.validate(5)

    def test_int_rejects_bool(self):
        assert not INT.validate(True)

    def test_int_rejects_float(self):
        assert not INT.validate(5.0)

    def test_float_accepts_int(self):
        assert FLOAT.validate(7)

    def test_float_rejects_bool(self):
        assert not FLOAT.validate(False)

    def test_text_accepts_str(self):
        assert TEXT.validate("hello")

    def test_text_rejects_int(self):
        assert not TEXT.validate(5)

    def test_array_accepts_int_list(self):
        assert INT_ARRAY.validate([1, 2, 3])

    def test_array_accepts_empty(self):
        assert INT_ARRAY.validate([])

    def test_array_rejects_mixed(self):
        assert not INT_ARRAY.validate([1, "two"])

    def test_none_valid_everywhere(self):
        for dtype in (INT, FLOAT, TEXT, BOOL, INT_ARRAY):
            assert dtype.validate(None)


class TestCoercion:
    def test_int_to_float(self):
        assert FLOAT.coerce(3) == 3.0
        assert isinstance(FLOAT.coerce(3), float)

    def test_int_to_text(self):
        assert TEXT.coerce(3) == "3"

    def test_none_passthrough(self):
        assert TEXT.coerce(None) is None

    def test_array_copies(self):
        original = [1, 2]
        coerced = INT_ARRAY.coerce(original)
        assert coerced == original
        assert coerced is not original


class TestSizeof:
    def test_null_is_one_byte(self):
        assert INT.sizeof(None) == 1

    def test_array_scales_with_length(self):
        assert INT_ARRAY.sizeof([1, 2, 3]) > INT_ARRAY.sizeof([1])

    def test_text_scales_with_length(self):
        assert TEXT.sizeof("long string") > TEXT.sizeof("a")


class TestGeneralize:
    def test_same_type_is_identity(self):
        assert generalize_types(INT, INT) is INT

    def test_int_widens_to_decimal(self):
        assert generalize_types(INT, FLOAT) is FLOAT
        assert generalize_types(FLOAT, INT) is FLOAT

    def test_int_widens_to_text(self):
        assert generalize_types(INT, TEXT) is TEXT

    def test_bool_widens_to_text_not_numeric(self):
        assert generalize_types(BOOL, INT) is TEXT
        assert generalize_types(BOOL, FLOAT) is TEXT

    def test_array_cannot_generalize(self):
        with pytest.raises(ValueError):
            generalize_types(INT_ARRAY, INT)


class TestLookup:
    def test_by_name_roundtrip(self):
        for dtype in (INT, FLOAT, TEXT, BOOL, INT_ARRAY):
            assert type_by_name(dtype.name) is dtype

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            type_by_name("varchar")


class TestPickling:
    ALL = (INT, FLOAT, TEXT, BOOL, INT_ARRAY)

    @staticmethod
    def legacy_copy(dtype):
        """What a state written before ``DataType.__reduce__`` unpickles
        to: equal to the singleton, not identical."""
        clone = object.__new__(type(dtype))
        clone.__dict__.update(dtype.__dict__)
        assert clone == dtype and clone is not dtype
        return clone

    def test_round_trip_is_the_singleton(self):
        for dtype in self.ALL:
            assert pickle.loads(pickle.dumps(dtype)) is dtype

    def test_a_legacy_copy_behaves_like_the_singleton(self):
        text, array, integer = map(self.legacy_copy, (TEXT, INT_ARRAY, INT))
        assert text.sizeof("hello") == 6
        assert array.sizeof([1, 2, 3]) == 16
        assert array.validate(RidDelta(1, [1], [2]))
        assert array.sizeof(RidDelta(1, [1], [2])) == 12
        assert not integer.validate(True)
        assert integer.coerce("3") == 3
        for dtype in self.ALL:
            assert self.legacy_copy(dtype).coerce(None) is None

    def test_legacy_copies_generalize(self):
        integer, decimal, boolean = map(self.legacy_copy, (INT, FLOAT, BOOL))
        assert generalize_types(integer, self.legacy_copy(INT)) == INT
        assert generalize_types(integer, decimal) == FLOAT
        assert generalize_types(boolean, integer) == TEXT
        with pytest.raises(ValueError):
            generalize_types(self.legacy_copy(INT_ARRAY), integer)
