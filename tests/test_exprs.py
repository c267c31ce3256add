"""Tests for expression binding and compilation."""

import pytest

from repro.engine.planner.exprs import (OutputCol, Scope, SlotRef,
                                        compile_expr, conjoin,
                                        infer_expr_type, referenced_bindings,
                                        split_conjuncts)
from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.sqlparse.parser import parse_statement
from repro.engine.types import SQLType
from repro.errors import BindError, PlanError


def _where(sql_condition):
    return parse_statement(f"SELECT a FROM t WHERE {sql_condition}").where


@pytest.fixture
def scope():
    return Scope((
        OutputCol("a", "t", SQLType.INTEGER),
        OutputCol("b", "t", SQLType.FLOAT),
        OutputCol("name", "t", SQLType.STRING),
        OutputCol("a", "u", SQLType.INTEGER),
    ))


class TestScope:
    def test_qualified_resolution(self, scope):
        assert scope.resolve(ast.ColumnRef("a", "t")) == 0
        assert scope.resolve(ast.ColumnRef("a", "u")) == 3

    def test_unqualified_unique(self, scope):
        assert scope.resolve(ast.ColumnRef("b")) == 1

    def test_unqualified_ambiguous(self, scope):
        with pytest.raises(BindError, match="ambiguous"):
            scope.resolve(ast.ColumnRef("a"))

    def test_unknown_column(self, scope):
        with pytest.raises(BindError):
            scope.resolve(ast.ColumnRef("zzz"))

    def test_case_insensitive(self, scope):
        assert scope.resolve(ast.ColumnRef("NAME", "T")) == 2


class TestCompile:
    def _eval(self, condition, row, scope, params=None):
        fn = compile_expr(_where(condition), scope)
        return fn(row, params or {})

    def test_arithmetic(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a + b * 2", row, scope) == 8.0

    def test_comparison(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a < b", row, scope) is True
        assert self._eval("t.a >= 2", row, scope) is True
        assert self._eval("t.a != 2", row, scope) is False

    def test_null_comparison_unknown(self, scope):
        row = (None, 3.0, "x", 9)
        assert self._eval("t.a > 1", row, scope) is None

    def test_boolean_combinators(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a = 2 AND b = 3.0", row, scope) is True
        assert self._eval("t.a = 5 OR b = 3.0", row, scope) is True
        assert self._eval("NOT t.a = 2", row, scope) is False

    def test_in_list(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a IN (1, 2, 3)", row, scope) is True
        assert self._eval("t.a NOT IN (1, 3)", row, scope) is True
        assert self._eval("t.a IN (1, 3)", row, scope) is False

    def test_in_with_null_member_is_unknown_when_absent(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a IN (1, NULL)", row, scope) is None

    def test_between(self, scope):
        row = (2, 3.0, "x", 9)
        assert self._eval("t.a BETWEEN 1 AND 3", row, scope) is True
        assert self._eval("t.a NOT BETWEEN 3 AND 5", row, scope) is True

    def test_like(self, scope):
        row = (2, 3.0, "xyz", 9)
        assert self._eval("name LIKE 'x%'", row, scope) is True
        assert self._eval("name LIKE '_y_'", row, scope) is True
        assert self._eval("name LIKE 'y%'", row, scope) is False
        assert self._eval("name NOT LIKE 'y%'", row, scope) is True
        # a pattern known only at run time is translated per row
        assert self._eval("name LIKE @p", row, scope, {"p": "x%"}) is True
        assert self._eval("name NOT LIKE @p", row, scope,
                          {"p": "x%"}) is False
        assert self._eval("name LIKE @p", row, scope, {"p": None}) is None

    def test_like_escapes_regex_chars(self, scope):
        row = (2, 3.0, "a.c", 9)
        assert self._eval("name LIKE 'a.c'", row, scope) is True
        assert self._eval("name LIKE 'abc'", row, scope) is False

    def test_is_null(self, scope):
        assert self._eval("name IS NULL", (1, 1.0, None, 2), scope) is True
        assert self._eval("name IS NOT NULL", (1, 1.0, "x", 2), scope) is True

    def test_parameters(self, scope):
        fn = compile_expr(_where("t.a = @key"), scope)
        assert fn((2, 0.0, "", 0), {"key": 2}) is True
        with pytest.raises(BindError, match="missing parameter"):
            fn((2, 0.0, "", 0), {})

    def test_slotref(self, scope):
        fn = compile_expr(SlotRef(2), scope)
        assert fn((0, 0, "hit", 0), {}) == "hit"

    def test_scalar_functions(self, scope):
        assert self._eval("ABS(t.a - 10)", (2, 0.0, "", 0), scope) == 8
        assert self._eval("UPPER(name)", (0, 0.0, "ab", 0), scope) == "AB"

    def test_unknown_function_rejected(self, scope):
        with pytest.raises(PlanError):
            compile_expr(_where("NOFUNC(t.a) = 1"), scope)

    def test_aggregate_rejected_in_scalar_context(self, scope):
        with pytest.raises(PlanError):
            compile_expr(ast.FuncCall("COUNT", star=True), scope)

    def test_star_rejected(self, scope):
        with pytest.raises(PlanError):
            compile_expr(ast.ColumnRef("*"), scope)


class TestHelpers:
    def test_split_and_conjoin_roundtrip(self):
        predicate = _where("a = 1 AND b = 2 AND name = 'x'")
        parts = split_conjuncts(predicate)
        assert len(parts) == 3
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts

    def test_split_none(self):
        assert split_conjuncts(None) == []
        assert conjoin([]) is None

    def test_or_not_split(self):
        predicate = _where("a = 1 OR b = 2")
        assert len(split_conjuncts(predicate)) == 1

    def test_referenced_bindings(self):
        predicate = _where("t.a = 1 AND u.b = 2 AND c = 3")
        bindings = referenced_bindings(predicate, {"c": "w"})
        assert bindings == {"t", "u", "w"}

    def test_infer_types(self, scope):
        assert infer_expr_type(_where("t.a > 1"), scope) is SQLType.BOOLEAN
        assert infer_expr_type(
            parse_statement("SELECT t.a + 1 FROM t").items[0].expr, scope
        ) is SQLType.INTEGER
        assert infer_expr_type(
            parse_statement("SELECT b * 2 FROM t").items[0].expr, scope
        ) is SQLType.FLOAT
        assert infer_expr_type(
            parse_statement("SELECT COUNT(*) FROM t").items[0].expr, scope
        ) is SQLType.INTEGER
        assert infer_expr_type(
            parse_statement("SELECT AVG(a) FROM t").items[0].expr, scope
        ) is SQLType.FLOAT
