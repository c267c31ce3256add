"""Query and plan signatures (paper Section 4.2).

Four signature kinds:

1. **Logical query signature** — a linearized representation of the logical
   query tree and its predicates.  Identified stored-procedure parameters
   become *parameter symbols* (``@name`` matches only the same parameter);
   constants in ad-hoc queries become *wildcards* (``?``) so different
   instances of the same template share a signature.  Conjunct order is
   normalized so predicate ordering does not affect the signature.
2. **Physical plan signature** — the same linearization applied to the
   physical (execution) plan tree, distinguishing e.g. an index seek from a
   table scan for the same logical query.
3. **Logical transaction signature** — the sequence of logical query
   signatures inside a transaction (exposed as a list of integer signature
   ids, per Appendix A).
4. **Physical transaction signature** — the sequence of physical plan
   signatures.

Signatures are computed once during optimization and cached with the query
plan, so a plan-cache hit also hits the signature cache.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.engine.planner import physical as phys
from repro.engine.planner.exprs import SlotRef
from repro.engine.planner.logical import (LogicalAggregate, LogicalDelete,
                                          LogicalDistinct, LogicalFilter,
                                          LogicalGet, LogicalInsert,
                                          LogicalJoin, LogicalLimit,
                                          LogicalNode, LogicalProject,
                                          LogicalSort, LogicalUpdate)
from repro.engine.sqlparse import ast_nodes as ast

WILDCARD = "?"


def linearize_expr(expr: ast.Expr | None, parameters_symbolic: bool = True
                   ) -> str:
    """Linearize an expression with constants → wildcards.

    Parameters stay symbolic (``@name``) when ``parameters_symbolic`` — the
    paper replaces each stored-procedure parameter with a symbol matching
    only other occurrences of the same parameter; ad-hoc constants become
    plain wildcards.
    """
    if expr is None:
        return "-"
    if isinstance(expr, ast.Literal):
        return WILDCARD
    if isinstance(expr, ast.Parameter):
        return f"@{expr.name.lower()}" if parameters_symbolic else WILDCARD
    if isinstance(expr, ast.ColumnRef):
        table = expr.table.lower() if expr.table else ""
        return f"col({table}.{expr.name.lower()})"
    if isinstance(expr, SlotRef):
        return f"slot({expr.slot})"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op}({linearize_expr(expr.operand, parameters_symbolic)})"
    if isinstance(expr, ast.BinaryOp):
        left = linearize_expr(expr.left, parameters_symbolic)
        right = linearize_expr(expr.right, parameters_symbolic)
        if expr.op == "AND":
            # normalize conjunct order (paper: signatures match up to
            # predicate ordering)
            conjuncts = sorted(_conjunct_strings(expr, parameters_symbolic))
            return "and(" + ",".join(conjuncts) + ")"
        if expr.op in ("=", "!=", "+", "*", "OR"):
            # commutative: normalize operand order
            left, right = sorted((left, right))
        return f"{expr.op}({left},{right})"
    if isinstance(expr, ast.IsNull):
        prefix = "notnull" if expr.negated else "isnull"
        return f"{prefix}({linearize_expr(expr.operand, parameters_symbolic)})"
    if isinstance(expr, ast.InList):
        body = linearize_expr(expr.operand, parameters_symbolic)
        items = ",".join(
            sorted(linearize_expr(i, parameters_symbolic)
                   for i in expr.items)
        )
        prefix = "notin" if expr.negated else "in"
        return f"{prefix}({body};{items})"
    if isinstance(expr, ast.Between):
        parts = (
            linearize_expr(expr.operand, parameters_symbolic),
            linearize_expr(expr.low, parameters_symbolic),
            linearize_expr(expr.high, parameters_symbolic),
        )
        prefix = "notbetween" if expr.negated else "between"
        return f"{prefix}({','.join(parts)})"
    if isinstance(expr, ast.Like):
        prefix = "notlike" if expr.negated else "like"
        return (f"{prefix}({linearize_expr(expr.operand, parameters_symbolic)},"
                f"{linearize_expr(expr.pattern, parameters_symbolic)})")
    if isinstance(expr, ast.FuncCall):
        if expr.star:
            return f"{expr.name.lower()}(*)"
        args = ",".join(linearize_expr(a, parameters_symbolic)
                        for a in expr.args)
        distinct = "distinct:" if expr.distinct else ""
        return f"{expr.name.lower()}({distinct}{args})"
    return f"<{type(expr).__name__}>"  # pragma: no cover


def _conjunct_strings(expr: ast.Expr, symbolic: bool) -> list[str]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return (_conjunct_strings(expr.left, symbolic)
                + _conjunct_strings(expr.right, symbolic))
    return [linearize_expr(expr, symbolic)]


# ---------------------------------------------------------------------------
# logical signature
# ---------------------------------------------------------------------------

def linearize_logical(node: LogicalNode) -> str:
    """Linearize a logical plan tree, pre-order."""
    parts: list[str] = []
    _linearize_logical(node, parts)
    return "|".join(parts)


def _linearize_logical(node: LogicalNode, parts: list[str]) -> None:
    if isinstance(node, LogicalGet):
        parts.append(node.label())
    elif isinstance(node, LogicalFilter):
        parts.append(f"FILTER[{linearize_expr(node.predicate)}]")
    elif isinstance(node, LogicalJoin):
        parts.append(f"{node.label()}[{linearize_expr(node.condition)}]")
    elif isinstance(node, LogicalAggregate):
        groups = ",".join(sorted(linearize_expr(g)
                                 for g in node.group_exprs))
        aggs = ",".join(linearize_expr(a) for a in node.agg_calls)
        parts.append(f"AGG[g:{groups};a:{aggs}]")
    elif isinstance(node, LogicalSort):
        keys = ",".join(
            f"{linearize_expr(expr)}:{'d' if desc else 'a'}"
            for expr, desc in node.keys
        )
        parts.append(f"SORT[{keys}]")
    elif isinstance(node, LogicalLimit):
        parts.append(f"LIMIT[{node.count}]")
    elif isinstance(node, LogicalProject):
        items = ",".join(linearize_expr(expr) for expr, __ in node.items)
        parts.append(f"PROJECT[{items}]")
    elif isinstance(node, LogicalDistinct):
        parts.append("DISTINCT")
    elif isinstance(node, LogicalInsert):
        parts.append(
            f"{node.label()}[{','.join(c.lower() for c in node.target_columns)}"
            f";rows:{len(node.rows)}]"
        )
    elif isinstance(node, LogicalUpdate):
        assigns = ",".join(
            f"{col.lower()}={linearize_expr(expr)}"
            for col, expr in node.assignments
        )
        parts.append(
            f"{node.label()}[{assigns};{linearize_expr(node.predicate)}]"
        )
    elif isinstance(node, LogicalDelete):
        parts.append(f"{node.label()}[{linearize_expr(node.predicate)}]")
    else:  # SINGLEROW and future node kinds
        parts.append(node.label())
    for child in node.children:
        _linearize_logical(child, parts)


# ---------------------------------------------------------------------------
# physical signature
# ---------------------------------------------------------------------------

def linearize_physical(node: phys.PhysicalNode) -> str:
    """Linearize a physical plan tree, pre-order."""
    parts: list[str] = []
    _linearize_physical(node, parts)
    return "|".join(parts)


def _linearize_physical(node: phys.PhysicalNode, parts: list[str]) -> None:
    label = node.label()
    if isinstance(node, (phys.PhysTableScan, phys.PhysIndexSeek)):
        predicate = linearize_expr(node.filter_expr)
        parts.append(f"{label}[{predicate}]")
    elif isinstance(node, phys.PhysFilter):
        parts.append(f"{label}[{linearize_expr(node.predicate_expr)}]")
    else:
        parts.append(label)
    for child in node.children:
        _linearize_physical(child, parts)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def digest(linearization: str) -> bytes:
    """Stable binary signature value (the Appendix A BLOB)."""
    return hashlib.sha1(linearization.encode("utf-8")).digest()


def sequence_signature(ids: Iterable[int]) -> bytes:
    """Transaction signature: digest of an ordered id sequence."""
    body = ",".join(str(i) for i in ids)
    return hashlib.sha1(f"seq[{body}]".encode("utf-8")).digest()


class SignatureRegistry:
    """Maps signature BLOBs to small integer ids.

    Appendix A exposes transaction signatures as "a list of integers"; the
    registry provides that compact id space and doubles as the
    ``Number_of_instances`` counter backing store.
    """

    def __init__(self):
        self._ids: dict[bytes, int] = {}
        self._next = 1

    def id_of(self, signature: bytes | None) -> int:
        if signature is None:
            return 0
        found = self._ids.get(signature)
        if found is None:
            found = self._next
            self._ids[signature] = found
            self._next += 1
        return found

    def __len__(self) -> int:
        return len(self._ids)
