"""Physical plan nodes.

A physical plan is an immutable description; the executor instantiates
iterator state from it on each run, so cached plans are re-executable.  Each
node carries optimizer estimates (rows, cumulative cost) — the source of the
``Query.Estimated_Cost`` probe — and a :meth:`label` used by the *physical
plan signature* linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.planner.exprs import CompiledExpr, OutputCol
from repro.engine.sqlparse import ast_nodes as ast


class PhysicalNode:
    """Base class for physical plan nodes."""

    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self) -> tuple["PhysicalNode", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__.replace("Phys", "").upper()


@dataclass
class PhysSingleRow(PhysicalNode):
    """Produces exactly one empty row (SELECT without FROM)."""

    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 1.0
    estimated_cost: float = 0.0


@dataclass
class PhysTableScan(PhysicalNode):
    """Full scan of a base table with an optional pushed-down filter."""

    table: str
    binding: str
    filter_expr: ast.Expr | None = None
    filter_fn: CompiledExpr | None = None
    with_rowids: bool = False
    lock_mode: str = "S"
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    def label(self) -> str:
        return f"TABLESCAN({self.table.lower()})"


@dataclass
class PhysIndexSeek(PhysicalNode):
    """Index lookup: equality prefix, optional range bound, residual filter."""

    table: str
    binding: str
    index: str
    eq_fns: tuple[CompiledExpr, ...] = ()
    range_low_fn: CompiledExpr | None = None
    range_high_fn: CompiledExpr | None = None
    range_low_inclusive: bool = True
    range_high_inclusive: bool = True
    filter_expr: ast.Expr | None = None
    filter_fn: CompiledExpr | None = None
    with_rowids: bool = False
    lock_mode: str = "S"
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    def label(self) -> str:
        return f"INDEXSEEK({self.table.lower()}.{self.index.lower()})"


@dataclass
class PhysFilter(PhysicalNode):
    """Residual row filter."""

    child: PhysicalNode
    predicate_expr: ast.Expr
    predicate_fn: CompiledExpr = None  # type: ignore[assignment]
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)


@dataclass
class PhysNLJoin(PhysicalNode):
    """Nested-loop join; the inner side is re-executed per outer row."""

    left: PhysicalNode
    right: PhysicalNode
    condition_fn: CompiledExpr | None = None
    kind: str = "INNER"
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return f"NLJOIN({self.kind})"


@dataclass
class PhysHashJoin(PhysicalNode):
    """Hash equi-join: build on right input, probe with left input."""

    left: PhysicalNode
    right: PhysicalNode
    left_key_fns: tuple[CompiledExpr, ...] = ()
    right_key_fns: tuple[CompiledExpr, ...] = ()
    residual_fn: CompiledExpr | None = None
    kind: str = "INNER"
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return f"HASHJOIN({self.kind})"


@dataclass
class PhysSort(PhysicalNode):
    """Full sort on compiled keys."""

    child: PhysicalNode
    key_fns: tuple[CompiledExpr, ...] = ()
    descending: tuple[bool, ...] = ()
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)


@dataclass
class PhysLimit(PhysicalNode):
    """Stop after N rows."""

    child: PhysicalNode
    count: int = 0
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return f"LIMIT({self.count})"


@dataclass
class AggSpec:
    """One aggregate computation: function name plus compiled argument."""

    func: str  # COUNT | COUNT_STAR | SUM | AVG | MIN | MAX | STDEV
    arg_fn: CompiledExpr | None = None
    distinct: bool = False


@dataclass
class PhysAggregate(PhysicalNode):
    """Hash aggregation over compiled group keys."""

    child: PhysicalNode
    group_fns: tuple[CompiledExpr, ...] = ()
    aggs: tuple[AggSpec, ...] = ()
    scalar: bool = False  # aggregate without GROUP BY: always one output row
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        names = ",".join(a.func for a in self.aggs)
        return f"AGG({names})"


@dataclass
class PhysProject(PhysicalNode):
    """Final projection through compiled item expressions."""

    child: PhysicalNode
    item_fns: tuple[CompiledExpr, ...] = ()
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)


@dataclass
class PhysDistinct(PhysicalNode):
    """Hash-based duplicate elimination."""

    child: PhysicalNode
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)


@dataclass
class PhysInsert(PhysicalNode):
    """INSERT ... VALUES with compiled row expressions."""

    table: str
    target_columns: tuple[str, ...] = ()
    row_fns: tuple[tuple[CompiledExpr, ...], ...] = ()
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    def label(self) -> str:
        return f"INSERT({self.table.lower()})"


@dataclass
class PhysUpdate(PhysicalNode):
    """UPDATE driven by a rowid-producing child scan."""

    child: PhysicalNode
    table: str
    assignment_ordinals: tuple[int, ...] = ()
    assignment_fns: tuple[CompiledExpr, ...] = ()
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return f"UPDATE({self.table.lower()})"


@dataclass
class PhysDelete(PhysicalNode):
    """DELETE driven by a rowid-producing child scan."""

    child: PhysicalNode
    table: str
    columns: tuple[OutputCol, ...] = ()
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0

    @property
    def children(self):
        return (self.child,)

    def label(self) -> str:
        return f"DELETE({self.table.lower()})"


def walk_physical(node: PhysicalNode):
    """Pre-order traversal of a physical plan."""
    yield node
    for child in node.children:
        yield from walk_physical(child)


def plan_node_count(node: PhysicalNode) -> int:
    """Number of operators in a plan (drives compile-cost charging)."""
    return sum(1 for __ in walk_physical(node))
