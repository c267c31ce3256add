"""Scalar-expression binding and compilation.

Expressions are compiled once per plan into closures ``fn(row, params)``:
``row`` is the operator's input tuple, ``params`` the statement's parameter
dictionary.  Compilation resolves column references to slot ordinals through
a :class:`Scope`, so cached plans re-execute without re-binding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.types import (SQLType, arithmetic, compare, infer_type,
                                sql_and, sql_not, sql_or)
from repro.errors import BindError, PlanError

CompiledExpr = Callable[[tuple, dict], Any]


@dataclass(frozen=True)
class OutputCol:
    """One column of a plan node's output row."""

    name: str
    binding: str | None
    sql_type: SQLType


@dataclass(frozen=True)
class SlotRef(ast.Expr):
    """Internal expression node referencing an output slot directly.

    Produced by the optimizer when rewriting select items over aggregate
    output; never produced by the parser.
    """

    slot: int
    sql_type: SQLType = SQLType.FLOAT


class Scope:
    """Column-name resolution over a tuple of :class:`OutputCol`."""

    def __init__(self, columns: tuple[OutputCol, ...]):
        self.columns = columns
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, list[int]] = {}
        for slot, col in enumerate(columns):
            key = col.name.lower()
            self._unqualified.setdefault(key, []).append(slot)
            if col.binding:
                self._qualified[(col.binding.lower(), key)] = slot

    def resolve(self, ref: ast.ColumnRef) -> int:
        """Slot ordinal for a column reference; raises BindError."""
        name = ref.name.lower()
        if ref.table:
            slot = self._qualified.get((ref.table.lower(), name))
            if slot is None:
                raise BindError(f"unknown column {ref.display()!r}")
            return slot
        slots = self._unqualified.get(name, [])
        if not slots:
            raise BindError(f"unknown column {ref.name!r}")
        if len(slots) > 1:
            raise BindError(f"ambiguous column {ref.name!r}")
        return slots[0]

    def type_of(self, slot: int) -> SQLType:
        return self.columns[slot].sql_type


def _like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


def infer_expr_type(expr: ast.Expr, scope: Scope) -> SQLType:
    """Best-effort static type of an expression (for output columns)."""
    if isinstance(expr, SlotRef):
        return expr.sql_type
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return SQLType.FLOAT  # NULL literal; arbitrary but harmless
        return infer_type(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return scope.type_of(scope.resolve(expr))
    if isinstance(expr, ast.Parameter):
        return SQLType.FLOAT
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return SQLType.BOOLEAN
        return infer_expr_type(expr.operand, scope)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "!=", "<", ">", "<=", ">="):
            return SQLType.BOOLEAN
        left = infer_expr_type(expr.left, scope)
        right = infer_expr_type(expr.right, scope)
        if SQLType.FLOAT in (left, right) or expr.op == "/":
            return SQLType.FLOAT
        if left is SQLType.STRING and right is SQLType.STRING:
            return SQLType.STRING
        return SQLType.INTEGER
    if isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like)):
        return SQLType.BOOLEAN
    if isinstance(expr, ast.FuncCall):
        name = expr.name.upper()
        if name == "COUNT":
            return SQLType.INTEGER
        if name in ("AVG", "STDEV"):
            return SQLType.FLOAT
        if name in ("SUM", "MIN", "MAX") and expr.args:
            return infer_expr_type(expr.args[0], scope)
        if name in ("ABS", "ROUND"):
            return SQLType.FLOAT
        raise PlanError(f"cannot infer type of function {name!r}")
    raise PlanError(f"cannot infer type of {expr!r}")  # pragma: no cover


_SCALAR_FUNCS: dict[str, Callable[..., Any]] = {
    "ABS": lambda x: None if x is None else abs(x),
    "ROUND": lambda x, d=0: None if x is None else round(x, int(d)),
    "FLOOR": lambda x: None if x is None else math.floor(x),
    "CEILING": lambda x: None if x is None else math.ceil(x),
    "LENGTH": lambda s: None if s is None else len(s),
    "LOWER": lambda s: None if s is None else s.lower(),
    "UPPER": lambda s: None if s is None else s.upper(),
}


def compile_expr(expr: ast.Expr, scope: Scope) -> CompiledExpr:
    """Compile an expression to ``fn(row, params)``.

    Aggregate calls must have been rewritten to :class:`SlotRef` before
    compilation; encountering one raises :class:`PlanError`.
    """
    if isinstance(expr, SlotRef):
        slot = expr.slot
        return lambda row, params: row[slot]
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.ColumnRef):
        if expr.name == "*":
            raise PlanError("'*' is only valid directly in a select list")
        slot = scope.resolve(expr)
        return lambda row, params: row[slot]
    if isinstance(expr, ast.Parameter):
        name = expr.name
        def param_fn(row, params, _name=name):
            try:
                return params[_name]
            except KeyError:
                raise BindError(f"missing parameter @{_name}") from None
        return param_fn
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, scope)
        if expr.op == "-":
            return lambda row, params: (
                None if (v := operand(row, params)) is None else -v
            )
        if expr.op == "NOT":
            return lambda row, params: sql_not(_truth(operand(row, params)))
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        if op == "AND":
            return lambda row, params: sql_and(
                _truth(left(row, params)), _truth(right(row, params))
            )
        if op == "OR":
            return lambda row, params: sql_or(
                _truth(left(row, params)), _truth(right(row, params))
            )
        if op in ("+", "-", "*", "/", "%"):
            return lambda row, params: arithmetic(
                op, left(row, params), right(row, params)
            )
        if op in ("=", "!=", "<", ">", "<=", ">="):
            return _compile_comparison(op, left, right)
        raise PlanError(f"unknown binary operator {op!r}")
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, scope)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, scope)
        items = [compile_expr(item, scope) for item in expr.items]
        negated = expr.negated
        def in_fn(row, params):
            value = operand(row, params)
            if value is None:
                return None
            found = False
            saw_null = False
            for item in items:
                candidate = item(row, params)
                if candidate is None:
                    saw_null = True
                elif compare(value, candidate) == 0:
                    found = True
                    break
            if found:
                return not negated
            if saw_null:
                return None
            return negated
        return in_fn
    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, scope)
        low = compile_expr(expr.low, scope)
        high = compile_expr(expr.high, scope)
        negated = expr.negated
        def between_fn(row, params):
            value = operand(row, params)
            lo = low(row, params)
            hi = high(row, params)
            if value is None or lo is None or hi is None:
                return None
            result = compare(value, lo) >= 0 and compare(value, hi) <= 0
            return not result if negated else result
        return between_fn
    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, scope)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and isinstance(
                expr.pattern.value, str):
            regex = _like_to_regex(expr.pattern.value)
            def like_static(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                result = regex.match(value) is not None
                return not result if negated else result
            return like_static
        pattern = compile_expr(expr.pattern, scope)
        def like_dynamic(row, params):
            value = operand(row, params)
            pat = pattern(row, params)
            if value is None or pat is None:
                return None
            result = _like_to_regex(pat).match(value) is not None
            return not result if negated else result
        return like_dynamic
    if isinstance(expr, ast.FuncCall):
        name = expr.name.upper()
        if name in ast.AGGREGATE_FUNCS:
            raise PlanError(
                f"aggregate {name} not allowed here (must be rewritten)"
            )
        fn = _SCALAR_FUNCS.get(name)
        if fn is None:
            raise PlanError(f"unknown function {name!r}")
        args = [compile_expr(arg, scope) for arg in expr.args]
        return lambda row, params: fn(*(arg(row, params) for arg in args))
    raise PlanError(f"cannot compile expression {expr!r}")  # pragma: no cover


def _truth(value: Any) -> bool | None:
    """Coerce a scalar to three-valued truth."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    return bool(value)


def _compile_comparison(op: str, left: CompiledExpr,
                        right: CompiledExpr) -> CompiledExpr:
    def cmp_fn(row, params):
        result = compare(left(row, params), right(row, params))
        if result is None:
            return None
        if op == "=":
            return result == 0
        if op == "!=":
            return result != 0
        if op == "<":
            return result < 0
        if op == ">":
            return result > 0
        if op == "<=":
            return result <= 0
        return result >= 0
    return cmp_fn


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Rebuild a predicate from conjuncts (None when empty)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def referenced_bindings(expr: ast.Expr,
                        scope_bindings: dict[str, str]) -> set[str]:
    """Bindings (table aliases) a predicate references.

    ``scope_bindings`` maps lowercase unqualified column names to their unique
    binding, for resolving unqualified references.
    """
    bindings: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef) and node.name != "*":
            if node.table:
                bindings.add(node.table.lower())
            else:
                owner = scope_bindings.get(node.name.lower())
                if owner is not None:
                    bindings.add(owner)
    return bindings
