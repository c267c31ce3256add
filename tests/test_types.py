"""Tests for SQL value types, coercion, and three-valued logic."""

import pytest

from repro.engine.types import (SQLType, arithmetic, coerce, compare,
                                infer_type, sql_and, sql_not, sql_or)
from repro.errors import TypeMismatchError


class TestCoerce:
    def test_null_passes_through(self):
        for sql_type in SQLType:
            assert coerce(None, sql_type) is None

    def test_integer(self):
        assert coerce(5, SQLType.INTEGER) == 5
        assert coerce(5.0, SQLType.INTEGER) == 5
        assert coerce(True, SQLType.INTEGER) == 1

    def test_integer_rejects_fraction(self):
        with pytest.raises(TypeMismatchError):
            coerce(5.5, SQLType.INTEGER)

    def test_integer_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            coerce("5", SQLType.INTEGER)

    def test_float(self):
        assert coerce(5, SQLType.FLOAT) == 5.0
        assert isinstance(coerce(5, SQLType.FLOAT), float)
        assert coerce(2.5, SQLType.FLOAT) == 2.5

    def test_string(self):
        assert coerce("abc", SQLType.STRING) == "abc"
        with pytest.raises(TypeMismatchError):
            coerce(5, SQLType.STRING)

    def test_datetime_accepts_numbers(self):
        assert coerce(12.5, SQLType.DATETIME) == 12.5
        assert coerce(3, SQLType.DATETIME) == 3.0

    def test_boolean(self):
        assert coerce(True, SQLType.BOOLEAN) is True
        assert coerce(0, SQLType.BOOLEAN) is False
        with pytest.raises(TypeMismatchError):
            coerce(2, SQLType.BOOLEAN)

    def test_blob_encodes_strings(self):
        assert coerce(b"\x01", SQLType.BLOB) == b"\x01"
        assert coerce("hi", SQLType.BLOB) == b"hi"


class TestInference:
    def test_infer_basic(self):
        assert infer_type(1) is SQLType.INTEGER
        assert infer_type(1.5) is SQLType.FLOAT
        assert infer_type("x") is SQLType.STRING
        assert infer_type(True) is SQLType.BOOLEAN
        assert infer_type(b"") is SQLType.BLOB


class TestCompare:
    def test_numbers(self):
        assert compare(1, 2) == -1
        assert compare(2, 2) == 0
        assert compare(3, 2) == 1
        assert compare(1, 1.5) == -1

    def test_strings(self):
        assert compare("a", "b") == -1
        assert compare("b", "b") == 0

    def test_null_is_unknown(self):
        assert compare(None, 1) is None
        assert compare(1, None) is None
        assert compare(None, None) is None

    def test_mixed_types_raise(self):
        with pytest.raises(TypeMismatchError):
            compare(1, "a")

    def test_booleans_compare_as_integers(self):
        assert compare(True, 1) == 0
        assert compare(False, True) == -1


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, None) is False
        assert sql_and(True, None) is None
        assert sql_and(None, None) is None

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, None) is True
        assert sql_or(False, None) is None
        assert sql_or(None, None) is None

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None


class TestArithmetic:
    def test_basic_ops(self):
        assert arithmetic("+", 2, 3) == 5
        assert arithmetic("-", 2, 3) == -1
        assert arithmetic("*", 2, 3) == 6
        assert arithmetic("/", 6, 3) == 2
        assert arithmetic("/", 7, 2) == 3.5
        assert arithmetic("%", 7, 2) == 1

    def test_null_propagates(self):
        assert arithmetic("+", None, 3) is None
        assert arithmetic("*", 3, None) is None

    def test_divide_by_zero_is_null(self):
        assert arithmetic("/", 1, 0) is None
        assert arithmetic("%", 1, 0) is None

    def test_string_concatenation_with_plus(self):
        assert arithmetic("+", "a", "b") == "ab"

    def test_string_arithmetic_rejected(self):
        with pytest.raises(TypeMismatchError):
            arithmetic("*", "a", 2)
