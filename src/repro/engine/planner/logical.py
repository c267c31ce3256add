"""Logical plan nodes and the AST → logical-plan builder (binding phase).

The logical tree is the structure SQLCM's *logical query signature*
linearizes (paper Section 4.2): it reflects the query's shape — tables,
predicates, grouping — with parameters kept symbolic and constants
identifiable for wildcard substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.engine.catalog import Catalog
from repro.engine.planner.exprs import (OutputCol, Scope, SlotRef,
                                        infer_expr_type)
from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.types import SQLType
from repro.errors import BindError, PlanError


class LogicalNode:
    """Base class for logical plan nodes."""

    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self) -> tuple["LogicalNode", ...]:
        return ()

    def label(self) -> str:
        """Operator label used in signature linearization."""
        return type(self).__name__.replace("Logical", "").upper()


@dataclass
class LogicalSingleRow(LogicalNode):
    """One empty row: the input of a FROM-less SELECT."""

    columns: tuple[OutputCol, ...] = ()


@dataclass
class LogicalGet(LogicalNode):
    """Base-table access."""

    table: str
    binding: str
    columns: tuple[OutputCol, ...] = ()

    def label(self) -> str:
        return f"GET({self.table.lower()})"


@dataclass
class LogicalFilter(LogicalNode):
    """Row filter (WHERE / HAVING)."""

    child: LogicalNode
    predicate: ast.Expr
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalJoin(LogicalNode):
    """Inner or left join."""

    left: LogicalNode
    right: LogicalNode
    condition: ast.Expr
    kind: str = "INNER"
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return f"JOIN({self.kind})"


@dataclass
class LogicalAggregate(LogicalNode):
    """GROUP BY + aggregate computation.

    Output columns: group expressions first, aggregate results after.
    """

    child: LogicalNode
    group_exprs: tuple[ast.Expr, ...]
    agg_calls: tuple[ast.FuncCall, ...]
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalSort(LogicalNode):
    """ORDER BY."""

    child: LogicalNode
    keys: tuple[tuple[ast.Expr, bool], ...]  # (expr, descending)
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalLimit(LogicalNode):
    """LIMIT / TOP n."""

    child: LogicalNode
    count: int
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalProject(LogicalNode):
    """Final select-list projection."""

    child: LogicalNode
    items: tuple[tuple[ast.Expr, str], ...]  # (expr, output name)
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalDistinct(LogicalNode):
    """Duplicate elimination over projected rows."""

    child: LogicalNode
    columns: tuple[OutputCol, ...] = ()

    @property
    def children(self):
        return (self.child,)


@dataclass
class LogicalInsert(LogicalNode):
    """INSERT ... VALUES."""

    table: str
    target_columns: tuple[str, ...]
    rows: tuple[tuple[ast.Expr, ...], ...]

    def label(self) -> str:
        return f"INSERT({self.table.lower()})"


@dataclass
class LogicalUpdate(LogicalNode):
    """UPDATE ... SET ... WHERE."""

    table: str
    binding: str
    assignments: tuple[tuple[str, ast.Expr], ...]
    predicate: ast.Expr | None
    source_columns: tuple[OutputCol, ...] = ()

    def label(self) -> str:
        return f"UPDATE({self.table.lower()})"


@dataclass
class LogicalDelete(LogicalNode):
    """DELETE FROM ... WHERE."""

    table: str
    binding: str
    predicate: ast.Expr | None
    source_columns: tuple[OutputCol, ...] = ()

    def label(self) -> str:
        return f"DELETE({self.table.lower()})"


def walk_logical(node: LogicalNode):
    """Pre-order traversal of a logical plan."""
    yield node
    for child in node.children:
        yield from walk_logical(child)


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

def table_columns(catalog: Catalog, table: str,
                  binding: str) -> tuple[OutputCol, ...]:
    """Output columns for a base-table access under a binding name."""
    schema = catalog.table(table)
    return tuple(
        OutputCol(col.name, binding, col.sql_type) for col in schema.columns
    )


def _expand_star(item: ast.SelectItem,
                 columns: tuple[OutputCol, ...]) -> list[tuple[ast.Expr, str]]:
    ref = item.expr
    assert isinstance(ref, ast.ColumnRef) and ref.name == "*"
    expanded: list[tuple[ast.Expr, str]] = []
    for col in columns:
        if ref.table is None or (col.binding or "").lower() == ref.table.lower():
            expanded.append(
                (ast.ColumnRef(col.name, table=col.binding), col.name)
            )
    if not expanded:
        raise BindError(f"'{ref.table}.*' matches no columns")
    return expanded


def _item_name(expr: ast.Expr, alias: str | None, position: int) -> str:
    if alias:
        return alias
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name.lower()
    return f"col{position}"


def _collect_agg_calls(exprs: Iterable[ast.Expr]) -> list[ast.FuncCall]:
    """All distinct aggregate calls in a set of expressions, in first-seen order."""
    seen: list[ast.FuncCall] = []
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.FuncCall) and \
                    node.name.upper() in ast.AGGREGATE_FUNCS and node not in seen:
                seen.append(node)
    return seen


def _rewrite_over_aggregate(expr: ast.Expr, group_exprs: tuple[ast.Expr, ...],
                            agg_calls: tuple[ast.FuncCall, ...],
                            agg_scope: Scope) -> ast.Expr:
    """Rewrite an expression to reference aggregate-output slots.

    Sub-expressions structurally equal to a GROUP BY expression or to an
    aggregate call become :class:`SlotRef`; any remaining column reference is
    an error (it is neither grouped nor aggregated).
    """
    for i, group_expr in enumerate(group_exprs):
        if expr == group_expr:
            return SlotRef(i, agg_scope.type_of(i))
    if isinstance(expr, ast.FuncCall) and \
            expr.name.upper() in ast.AGGREGATE_FUNCS:
        slot = len(group_exprs) + agg_calls.index(expr)
        return SlotRef(slot, agg_scope.type_of(slot))
    if isinstance(expr, ast.ColumnRef):
        raise BindError(
            f"column {expr.display()!r} must appear in GROUP BY or inside "
            "an aggregate"
        )
    if isinstance(expr, ast.UnaryOp):
        return replace(expr, operand=_rewrite_over_aggregate(
            expr.operand, group_exprs, agg_calls, agg_scope))
    if isinstance(expr, ast.BinaryOp):
        return replace(
            expr,
            left=_rewrite_over_aggregate(expr.left, group_exprs, agg_calls,
                                         agg_scope),
            right=_rewrite_over_aggregate(expr.right, group_exprs, agg_calls,
                                          agg_scope),
        )
    if isinstance(expr, ast.IsNull):
        return replace(expr, operand=_rewrite_over_aggregate(
            expr.operand, group_exprs, agg_calls, agg_scope))
    if isinstance(expr, ast.Between):
        return replace(
            expr,
            operand=_rewrite_over_aggregate(expr.operand, group_exprs,
                                            agg_calls, agg_scope),
            low=_rewrite_over_aggregate(expr.low, group_exprs, agg_calls,
                                        agg_scope),
            high=_rewrite_over_aggregate(expr.high, group_exprs, agg_calls,
                                         agg_scope),
        )
    if isinstance(expr, ast.InList):
        return replace(
            expr,
            operand=_rewrite_over_aggregate(expr.operand, group_exprs,
                                            agg_calls, agg_scope),
            items=tuple(
                _rewrite_over_aggregate(item, group_exprs, agg_calls,
                                        agg_scope)
                for item in expr.items
            ),
        )
    return expr


def build_select(stmt: ast.SelectStmt, catalog: Catalog) -> LogicalNode:
    """Bind and build the logical plan for a SELECT statement."""
    if stmt.table is None:
        node: LogicalNode = LogicalSingleRow()
        bindings: set[str] = set()
    else:
        node = LogicalGet(
            stmt.table.name, stmt.table.binding,
            table_columns(catalog, stmt.table.name, stmt.table.binding),
        )
        bindings = {stmt.table.binding.lower()}
    for join in stmt.joins:
        binding = join.table.binding
        if binding.lower() in bindings:
            raise BindError(f"duplicate table binding {binding!r}")
        bindings.add(binding.lower())
        right = LogicalGet(
            join.table.name, binding,
            table_columns(catalog, join.table.name, binding),
        )
        node = LogicalJoin(
            node, right, join.condition, join.kind,
            columns=node.columns + right.columns,
        )

    if stmt.where is not None:
        node = LogicalFilter(node, stmt.where, columns=node.columns)

    input_scope = Scope(node.columns)

    # expand stars in the select list
    items: list[tuple[ast.Expr, str]] = []
    for position, item in enumerate(stmt.items):
        if isinstance(item.expr, ast.ColumnRef) and item.expr.name == "*":
            items.extend(_expand_star(item, node.columns))
        else:
            items.append((item.expr, _item_name(item.expr, item.alias,
                                                position)))

    has_aggregates = bool(stmt.group_by) or any(
        ast.is_aggregate(expr) for expr, __ in items
    ) or (stmt.having is not None and ast.is_aggregate(stmt.having))

    # ORDER BY may reference select-list aliases ("SELECT a*b AS x ...
    # ORDER BY x"): substitute the aliased expression when the name does
    # not resolve against the input row
    alias_map = {name.lower(): expr for expr, name in items}
    order_keys: list[tuple[ast.Expr, bool]] = []
    for order in stmt.order_by:
        expr = order.expr
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            resolvable = any(
                col.name.lower() == expr.name.lower()
                for col in node.columns
            )
            if not resolvable and expr.name.lower() in alias_map:
                expr = alias_map[expr.name.lower()]
        order_keys.append((expr, order.descending))

    if has_aggregates:
        group_exprs = tuple(stmt.group_by)
        interesting = [expr for expr, __ in items]
        if stmt.having is not None:
            interesting.append(stmt.having)
        interesting.extend(expr for expr, __ in order_keys)
        agg_calls = tuple(_collect_agg_calls(interesting))
        agg_columns: list[OutputCol] = []
        for i, group_expr in enumerate(group_exprs):
            name = (group_expr.name if isinstance(group_expr, ast.ColumnRef)
                    else f"group{i}")
            agg_columns.append(
                OutputCol(name, None, infer_expr_type(group_expr, input_scope))
            )
        for call in agg_calls:
            agg_columns.append(
                OutputCol(call.name.lower(), None,
                          infer_expr_type(call, input_scope))
            )
        node = LogicalAggregate(node, group_exprs, agg_calls,
                                columns=tuple(agg_columns))
        agg_scope = Scope(node.columns)
        items = [
            (_rewrite_over_aggregate(expr, group_exprs, agg_calls, agg_scope),
             name)
            for expr, name in items
        ]
        if stmt.having is not None:
            having = _rewrite_over_aggregate(stmt.having, group_exprs,
                                             agg_calls, agg_scope)
            node = LogicalFilter(node, having, columns=node.columns)
        order_keys = [
            (_rewrite_over_aggregate(expr, group_exprs, agg_calls, agg_scope),
             desc)
            for expr, desc in order_keys
        ]
    elif stmt.having is not None:
        raise PlanError("HAVING requires GROUP BY or aggregates")

    if order_keys:
        node = LogicalSort(node, tuple(order_keys), columns=node.columns)
    if stmt.limit is not None:
        node = LogicalLimit(node, stmt.limit, columns=node.columns)

    pre_project_scope = Scope(node.columns)
    out_columns = tuple(
        OutputCol(name, None, infer_expr_type(expr, pre_project_scope))
        for expr, name in items
    )
    node = LogicalProject(node, tuple(items), columns=out_columns)
    if stmt.distinct:
        node = LogicalDistinct(node, columns=node.columns)
    return node


def build_logical_plan(stmt: ast.Statement, catalog: Catalog) -> LogicalNode:
    """Bind and build the logical plan for any DML/query statement."""
    if isinstance(stmt, ast.SelectStmt):
        return build_select(stmt, catalog)
    if isinstance(stmt, ast.InsertStmt):
        schema = catalog.table(stmt.table)
        target = stmt.columns or tuple(schema.column_names)
        for col in target:
            schema.column_index(col)  # validates
        for row in stmt.rows:
            if len(row) != len(target):
                raise PlanError(
                    f"INSERT expects {len(target)} values, got {len(row)}"
                )
        return LogicalInsert(stmt.table, tuple(target), stmt.rows)
    if isinstance(stmt, ast.UpdateStmt):
        schema = catalog.table(stmt.table)
        for col, __ in stmt.assignments:
            schema.column_index(col)
        return LogicalUpdate(
            stmt.table, stmt.table, stmt.assignments, stmt.where,
            source_columns=table_columns(catalog, stmt.table, stmt.table),
        )
    if isinstance(stmt, ast.DeleteStmt):
        catalog.table(stmt.table)
        return LogicalDelete(
            stmt.table, stmt.table, stmt.where,
            source_columns=table_columns(catalog, stmt.table, stmt.table),
        )
    raise PlanError(f"no logical plan for statement {type(stmt).__name__}")
