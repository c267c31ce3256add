"""The ECA rule condition language (paper Section 5.2).

Grammar (deliberately small — "the expressive power of the programming
model is of secondary importance, whereas low and controllable overhead is
crucial"):

* terms: ``Class.Attribute`` (``Query.Duration``), ``LATName.Column``
  (``Duration_LAT.Avg_Duration``), numeric and string literals
* operators: ``= != < > <= >=``, arithmetic ``+ - * /``, parentheses
* combinators: ``AND``, ``OR``, ``NOT``

LAT references are implicitly ∃-quantified: the row whose grouping columns
match the in-context object is selected; if no row matches, the whole
condition evaluates to false.

Rules, LAT references and stream clauses are fixed at registration, so a
condition is compiled there, once: binding emits the source of one flat
Python function per condition (kept on ``CompiledCondition.source``) and
``evaluate`` calls it.  Nothing interprets a condition per event.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple

from repro.errors import ConditionSyntaxError, SchemaError

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<string>'(?:[^']|'')*')
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
    | (?P<op><=|>=|!=|<>|=|<|>|\+|-|\*|/|\(|\))
    )""", re.VERBOSE)

_KEYWORDS = {"AND", "OR", "NOT", "NULL", "TRUE", "FALSE"}


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | STRING | NAME | OP | KW | EOF
    value: Any
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ConditionSyntaxError(
                f"bad character {text[pos:pos + 1]!r} in condition", pos
            )
        if match.group("number") is not None:
            raw = match.group("number")
            value = float(raw) if ("." in raw or "e" in raw.lower()) \
                else int(raw)
            tokens.append(_Token("NUMBER", value, match.start()))
        elif match.group("string") is not None:
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("STRING", raw, match.start()))
        elif match.group("name") is not None:
            name = match.group("name")
            if name.upper() in _KEYWORDS and "." not in name:
                tokens.append(_Token("KW", name.upper(), match.start()))
            else:
                tokens.append(_Token("NAME", name, match.start()))
        else:
            op = match.group("op")
            tokens.append(_Token("OP", "!=" if op == "<>" else op,
                                 match.start()))
        pos = match.end()
    tokens.append(_Token("EOF", None, len(text)))
    return tokens


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class CLiteral:
    value: Any


@dataclass(frozen=True)
class CAttrRef:
    """``Qualifier.Attribute``; resolution to class vs LAT happens at bind."""

    qualifier: str
    attribute: str


@dataclass(frozen=True)
class CBinary:
    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class CUnary:
    op: str  # 'NOT' | '-'
    operand: Any


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _expect_op(self, op: str) -> None:
        token = self._peek()
        if token.kind != "OP" or token.value != op:
            raise ConditionSyntaxError(
                f"expected {op!r}, found {token.value!r}", token.position
            )
        self._advance()

    def parse(self):
        expr = self._or()
        token = self._peek()
        if token.kind != "EOF":
            raise ConditionSyntaxError(
                f"unexpected trailing token {token.value!r}", token.position
            )
        return expr

    def _or(self):
        left = self._and()
        while self._peek().kind == "KW" and self._peek().value == "OR":
            self._advance()
            left = CBinary("OR", left, self._and())
        return left

    def _and(self):
        left = self._not()
        while self._peek().kind == "KW" and self._peek().value == "AND":
            self._advance()
            left = CBinary("AND", left, self._not())
        return left

    def _not(self):
        if self._peek().kind == "KW" and self._peek().value == "NOT":
            self._advance()
            return CUnary("NOT", self._not())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self._peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", ">",
                                                  "<=", ">="):
            self._advance()
            return CBinary(token.value, left, self._additive())
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                self._advance()
                left = CBinary(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("*", "/"):
                self._advance()
                left = CBinary(token.value, left, self._unary())
            else:
                return left

    def _unary(self):
        token = self._peek()
        if token.kind == "OP" and token.value == "-":
            self._advance()
            return CUnary("-", self._unary())
        return self._primary()

    def _primary(self):
        token = self._advance()
        if token.kind == "NUMBER" or token.kind == "STRING":
            return CLiteral(token.value)
        if token.kind == "KW":
            if token.value == "NULL":
                return CLiteral(None)
            if token.value == "TRUE":
                return CLiteral(True)
            if token.value == "FALSE":
                return CLiteral(False)
            raise ConditionSyntaxError(
                f"unexpected keyword {token.value!r}", token.position
            )
        if token.kind == "NAME":
            if "." not in token.value:
                raise ConditionSyntaxError(
                    f"bare name {token.value!r}; references must be "
                    "Class.Attribute or LAT.Column", token.position
                )
            qualifier, __, attribute = token.value.partition(".")
            return CAttrRef(qualifier, attribute)
        if token.kind == "OP" and token.value == "(":
            expr = self._or()
            self._expect_op(")")
            return expr
        raise ConditionSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )


def parse_condition(text: str):
    """Parse condition text into its AST."""
    return _Parser(_tokenize(text)).parse()


# -- binding -------------------------------------------------------------------

_COMPARISONS = {"=": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=",
                ">=": ">="}


class CompiledCondition:
    """A bound, evaluable condition: one generated Python function.

    ``classes`` — monitored classes referenced (objects must be in context);
    ``lats`` — LAT names referenced; ``atomic_count`` — number of comparison
    operators (the unit of the paper's rule-complexity experiments);
    ``attributes`` — lowercase class-attribute names the condition reads
    (bound references only, not LAT columns or literals — this is what
    ``signatures_needed`` consults instead of scanning the raw text);
    ``bound`` — the :class:`IndexBound` its leading conjuncts imply, or
    None; ``source`` — the text of the generated function, for debugging.
    """

    def __init__(self, text: str, tree, classes: set[str], lats: set[str],
                 atomic_count: int, attributes: set[str] | None = None):
        self.text = text
        self.source, self._fn = _Emitter().function(tree)
        self.classes = classes
        self.lats = lats
        self.atomic_count = atomic_count
        self.attributes = attributes if attributes is not None else set()
        self.bound = _index_bound(tree)

    def evaluate(self, context: dict[str, Any],
                 lat_rows: dict[str, dict | None]) -> bool:
        """Evaluate against in-context objects and matched LAT rows.

        ``context`` maps lowercase class names to monitored objects;
        ``lat_rows`` maps lowercase LAT names to the matched row (or None
        for no match → condition false).
        """
        return self._fn(context, lat_rows)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CompiledCondition({self.text!r})"


def _count_atoms(node) -> int:
    if isinstance(node, CBinary):
        return (node.op in _COMPARISONS) + _count_atoms(node.left) \
            + _count_atoms(node.right)
    if isinstance(node, CUnary):
        return _count_atoms(node.operand)
    return 0


def _references(node):
    if isinstance(node, CAttrRef):
        yield node
    elif isinstance(node, CBinary):
        yield from _references(node.left)
        yield from _references(node.right)
    elif isinstance(node, CUnary):
        yield from _references(node.operand)


def bind_condition(text: str, schema, lat_names: set[str],
                   lat_columns: Callable[[str], set[str]]) -> CompiledCondition:
    """Parse and bind a condition: resolve every qualifier to a monitored
    class or a LAT, validate attributes/columns, count atomic conditions.

    ``lat_columns(lat)`` names the LAT's columns; a row is read by the
    spelling given here first, by any other casing of it second."""
    tree = parse_condition(text)
    classes: set[str] = set()
    attributes: set[str] = set()
    columns: dict[str, dict[str, str]] = {}
    for ref in _references(tree):
        qualifier = ref.qualifier.lower()
        if qualifier in lat_names:
            if qualifier not in columns:
                columns[qualifier] = {c.lower(): c
                                      for c in lat_columns(qualifier)}
            if ref.attribute.lower() not in columns[qualifier]:
                raise SchemaError(
                    f"LAT {ref.qualifier!r} has no column "
                    f"{ref.attribute!r}"
                )
        elif schema.has_class(ref.qualifier):
            cls = schema.monitored_class(ref.qualifier)
            if cls.name.lower() != "evicted" and \
                    not cls.has_attribute(ref.attribute):
                raise SchemaError(
                    f"class {cls.name} has no attribute "
                    f"{ref.attribute!r}"
                )
            classes.add(cls.name.lower())
            attributes.add(ref.attribute.lower())
        else:
            raise SchemaError(
                f"unknown qualifier {ref.qualifier!r} (neither a "
                "monitored class nor a LAT)"
            )
    return CompiledCondition(text, _bind_refs(tree, columns), classes,
                             set(columns), _count_atoms(tree), attributes)


def bind_row_condition(text: str, columns: set[str],
                       qualifier: str = "window") -> CompiledCondition:
    """Bind a condition whose references all read one plain result row.

    Used by the stream subsystem's HAVING clauses: every reference must be
    ``Qualifier.Column`` with ``Column`` in ``columns`` (case-insensitive).
    Evaluate with ``cond.evaluate({}, {qualifier: row})``; a missing row
    makes the condition false, matching the LAT ∃-semantics.
    """
    tree = parse_condition(text)
    key = qualifier.lower()
    spelling = {c.lower(): c for c in columns}
    for ref in _references(tree):
        if ref.qualifier.lower() != key:
            raise SchemaError(
                f"row condition references must be "
                f"{qualifier}.<column>, got {ref.qualifier!r}"
            )
        if ref.attribute.lower() not in spelling:
            raise SchemaError(
                f"unknown output column {ref.attribute!r}; "
                f"expected one of {sorted(spelling)}"
            )
    return CompiledCondition(text, _bind_refs(tree, {key: spelling}), set(),
                             {key}, _count_atoms(tree))


@dataclass(frozen=True)
class _BoundClassAttr:
    class_name: str  # lowercase
    attribute: str   # lowercase: the key MonitoredObject._probe takes


@dataclass(frozen=True)
class _BoundLATCol:
    lat_name: str  # lowercase
    column: str    # as the LAT (or the stream query) spells it


def _bind_refs(node, columns: dict[str, dict[str, str]]):
    """The bound tree: references resolved to a class attribute or to a
    column of one of the LATs in ``columns`` (lowercase LAT name →
    lowercase column → declared spelling); ``NOT literal`` and
    ``-number`` folded."""
    if isinstance(node, CAttrRef):
        qualifier = node.qualifier.lower()
        if qualifier in columns:
            return _BoundLATCol(
                qualifier, columns[qualifier][node.attribute.lower()])
        return _BoundClassAttr(qualifier, node.attribute.lower())
    if isinstance(node, CBinary):
        return CBinary(node.op, _bind_refs(node.left, columns),
                       _bind_refs(node.right, columns))
    if isinstance(node, CUnary):
        operand = _bind_refs(node.operand, columns)
        if isinstance(operand, CLiteral):
            value = operand.value
            if node.op == "NOT":
                return CLiteral(None if value is None else value is not True)
            if type(value) in (int, float):
                return CLiteral(-value)
        return CUnary(node.op, operand)
    return node


class IndexBound(NamedTuple):
    """The interval a condition's leading conjuncts hold one attribute of
    one class in: the condition is False wherever that attribute is NULL,
    or a number outside it.  ``lower`` and ``upper`` are ``(value,
    strict)``, or None where the conjuncts set no bound on that side."""

    class_name: str  # lowercase
    attribute: str   # lowercase
    lower: tuple | None
    upper: tuple | None


#: comparison -> the sides ``Class.Attr <op> literal`` bounds, with strictness
_BOUND_SIDES = {">": ((0, True),), ">=": ((0, False),), "<": ((1, True),),
                "<=": ((1, False),), "=": ((0, False), (1, False))}


def _index_bound(tree) -> IndexBound | None:
    """The bound the leading top-level AND conjuncts of a bound tree imply:
    each ``Class.Attr <op> literal`` over the same attribute, with ``op``
    one of ``< <= > >= =`` and a finite number as the literal.  The first
    of them is the condition's first probe, and each reads that attribute
    alone, so while they all hold the condition has read nothing else."""
    operands = _operands(tree) \
        if isinstance(tree, CBinary) and tree.op == "AND" else [tree]
    ref = None
    limits: list = [None, None]  # lower, upper
    for operand in operands:
        if not (isinstance(operand, CBinary) and operand.op in _BOUND_SIDES
                and isinstance(operand.left, _BoundClassAttr)
                and (ref is None or operand.left == ref)
                and isinstance(operand.right, CLiteral)
                and type(operand.right.value) in (int, float)
                and (type(operand.right.value) is int
                     or math.isfinite(operand.right.value))):
            break
        ref, value = operand.left, operand.right.value
        for side, strict in _BOUND_SIDES[operand.op]:
            limit = limits[side]
            if limit is None or value == limit[0] and strict \
                    or (value > limit[0] if side == 0 else value < limit[0]):
                limits[side] = (value, strict)
    if ref is None:
        return None
    return IndexBound(ref.class_name, ref.attribute, *limits)


# -- code generation -------------------------------------------------------------
#
# A bound tree becomes the source of one function
# ``_condition(context, lat_rows) -> bool``.  What the generated code keeps:
#
# * AND/OR short-circuit left to right and yield True or False, a
#   comparison with a NULL operand is False, one that raises TypeError
#   (mixed types) is False for that comparison only, NOT NULL and
#   arithmetic on NULL or by zero are NULL;
# * a probe — the object of a class, one of its attributes, a LAT's
#   matched row, one of its columns — is made at most once, into a local,
#   and no earlier than short-circuit order reaches it; a LAT with no
#   matched row makes the whole condition false where it is first read;
# * nothing the user wrote is interpolated (see ``FunctionSource``): names
#   are schema- or LAT-validated identifiers.

#: a local first probed on a path that may not have run holds this until then
_UNSET = object()


def _column(row: dict, column: str) -> Any:
    """A row's value by lowercase column name, NULL when it has none: how a
    row keyed in another casing than its LAT declared is read."""
    for key, value in row.items():
        if key.lower() == column:
            return value
    return None


class _Sink(NamedTuple):
    """Where a test's outcome goes.  ``true``/``false`` is the statement to
    run when the outcome is known (None: fall through); ``put`` is the
    statement's format for an outcome held in a bool expression."""

    true: str | None
    false: str | None
    put: str
    var: str | None = None  # the local a flag sink assigns


_RETURN = _Sink("return True", "return False", "return {}")
_FAIL = _Sink(None, "return False", "if not ({}): return False")
_SUCCEED = _Sink("return True", None, "if {}: return True")


def _flag(var: str) -> _Sink:
    return _Sink(f"{var} = True", f"{var} = False", f"{var} = {{}}", var)


class FunctionSource:
    """The body lines of one generated function and the constants of its
    namespace; the LAT insert compiler (``core/lat.py``) writes through
    this too.  Nothing the user wrote is interpolated into the text: a
    value is spelled out only when it is NULL, a bool or a plain finite
    number, anything else is bound as a constant and the text names it."""

    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1
        self.constants: dict[str, Any] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def constant(self, value: Any, name: str | None = None) -> str:
        name = name or f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    def literal(self, value: Any) -> str:
        if value is None or isinstance(value, bool):
            return repr(value)
        if type(value) is int or \
                (type(value) is float and math.isfinite(value)):
            return f"({value!r})" if value < 0 else repr(value)
        return self.constant(value)

    def compile(self, name: str, parameters: str, filename: str,
                namespace: dict) -> tuple[str, Callable]:
        """Source text and function object of ``def name(parameters)`` over
        the lines written, run in ``namespace`` plus the constants."""
        source = "\n".join([f"def {name}({parameters}):"]
                           + self.lines) + "\n"
        namespace.update(self.constants)
        exec(_code(source, filename), namespace)
        return source, namespace[name]


@lru_cache(maxsize=4096)
def _code(source: str, filename: str):
    """The code object of one generated source text.  Sharded monitors bind
    every rule and build every LAT once per shard (scratch copies, the
    shard fold and recovery build more) and ``compile()`` is most of that;
    the text is the key because trees that differ only in ``1`` / ``1.0`` /
    ``TRUE`` compare equal yet generate different code.  The size holds
    the texts of a 1000-rule set (bench G1's are 1 127: 1000 conditions,
    one LAT insert and 63 functions of each dispatch variant), which a
    smaller cache would compile again, all of them, for every monitor."""
    return compile(source, filename, "exec")


class _Emitter(FunctionSource):
    """Writes the body of ``_condition`` for one bound tree."""

    def __init__(self):
        super().__init__()
        #: probe -> the local that holds it, in order of first use
        self.slots: dict[tuple, str] = {}
        #: what certainly holds wherever control now stands: the probes
        #: made, and ("not null", local) for locals tested since
        self.sure: set[tuple] = set()
        #: locals that start as _UNSET (read where their probe is not sure)
        self.unset: list[str] = []
        self.temps = 0

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def function(self, tree) -> tuple[str, Callable[[dict, dict], bool]]:
        """Source text and function object for one bound tree."""
        self.test(tree, _RETURN)
        self.lines[:0] = [f"    {name} = _UNSET" for name in self.unset]
        try:
            return self.compile(
                "_condition", "context, lat_rows", "<condition>",
                {"__builtins__": {"TypeError": TypeError},
                 "SchemaError": SchemaError, "_UNSET": _UNSET,
                 "_column": _column})
        except SyntaxError:  # the tokenizer's limit of 100 indentation levels
            raise ConditionSyntaxError(
                "condition nests AND/OR too deeply to compile") from None

    # -- probes: each into one local, at most once per evaluation --------

    def slot(self, key: tuple, prefix: str, probe) -> str:
        """The local holding ``key``; ``probe(name)`` writes the statements
        assigning it, here if no path has yet, under an ``_UNSET`` test if
        only some have."""
        name = self.slots.get(key)
        if name is None:
            name = self.slots[key] = f"{prefix}{len(self.slots)}"
            probe(name)
        elif key not in self.sure:
            if name not in self.unset:
                self.unset.append(name)
            self.emit(f"if {name} is _UNSET:")
            self.depth += 1
            inner = set(self.sure)
            probe(name)
            self.sure = inner
            self.depth -= 1
        self.sure.add(key)
        return name

    def object_of(self, class_name: str) -> str:
        def probe(name: str) -> None:
            message = f"no {class_name!r} object in rule context"
            self.emit(f"{name} = context.get({class_name!r})")
            self.emit(f"if {name} is None:")
            self.emit(f"    raise SchemaError({message!r})")
        return self.slot(("object", class_name), "o", probe)

    def attribute(self, node: _BoundClassAttr) -> str:
        def probe(name: str) -> None:
            obj = self.object_of(node.class_name)
            self.emit(f"{name} = {obj}._probe({node.attribute!r})")
        return self.slot(("attribute", node.class_name, node.attribute),
                         "a", probe)

    def row_of(self, lat_name: str) -> str:
        def probe(name: str) -> None:
            self.emit(f"{name} = lat_rows.get({lat_name!r})")
            self.emit(f"if {name} is None:")
            self.emit("    return False")
        return self.slot(("row", lat_name), "r", probe)

    def column(self, node: _BoundLATCol) -> str:
        def probe(name: str) -> None:
            row, column = self.row_of(node.lat_name), node.column
            self.emit(f"{name} = {row}[{column!r}] if {column!r} in {row} "
                      f"else _column({row}, {column.lower()!r})")
        return self.slot(("column", node.lat_name, node.column), "c", probe)

    # -- values ---------------------------------------------------------

    def value(self, node) -> tuple[str, bool]:
        """Statements computing ``node``; returns the expression that then
        holds its value (a local, a constant) and whether it can be NULL."""
        if isinstance(node, CLiteral):
            return self.literal(node.value), node.value is None
        if isinstance(node, (_BoundClassAttr, _BoundLATCol)):
            name = self.attribute(node) \
                if isinstance(node, _BoundClassAttr) else self.column(node)
            return name, ("not null", name) not in self.sure
        if isinstance(node, CUnary):
            operand, nullable = self.value(node.operand)
            result = self.temp()
            expr = f"{operand} is not True" if node.op == "NOT" \
                else f"-{operand}"
            if nullable:
                expr = f"None if {operand} is None else {expr}"
            self.emit(f"{result} = {expr}")
            return result, nullable
        if isinstance(node, CBinary) and node.op in ("+", "-", "*", "/"):
            left, left_null = self.value(node.left)
            right, right_null = self.value(node.right)
            null_if = [f"{operand} is None" for operand, nullable
                       in ((left, left_null), (right, right_null))
                       if nullable]
            if node.op == "/":
                null_if.append(f"{right} == 0")
            result = self.temp()
            expr = f"{left} {node.op} {right}"
            if null_if:
                expr = f"None if {' or '.join(null_if)} else {expr}"
            self.emit(f"{result} = {expr}")
            return result, bool(null_if)
        if isinstance(node, CBinary):
            result = self.temp()
            self.test(node, _flag(result))
            return result, False
        raise SchemaError(f"cannot compile condition node {node!r}")

    # -- tests: is the node True? ---------------------------------------

    def test(self, node, sink: _Sink) -> None:
        """Statements that hand ``sink`` whether ``node`` is True."""
        if isinstance(node, CBinary) and node.op in ("AND", "OR"):
            self.chain(node, sink)
        elif isinstance(node, CBinary) and node.op in _COMPARISONS:
            self.comparison(node, sink)
        elif isinstance(node, CLiteral):
            self.emit((sink.true if node.value is True else sink.false)
                      or "pass")
        else:
            self.emit(sink.put.format(f"{self.value(node)[0]} is True"))

    def comparison(self, node: CBinary, sink: _Sink) -> None:
        left, left_null = self.value(node.left)
        right, right_null = self.value(node.right)
        null_if = [f"{operand} is None" for operand, nullable
                   in ((left, left_null), (right, right_null)) if nullable]
        otherwise = sink.false or "pass"
        nested = False
        if null_if:
            self.emit(f"if {' or '.join(null_if)}:")
            self.emit(f"    {otherwise}")
            if otherwise.startswith("return"):
                # control only goes on with both operands not NULL: later
                # comparisons of the same locals need no second test
                self.sure.update(("not null", operand)
                                 for operand in (left, right))
            else:
                self.emit("else:")
                self.depth += 1
                nested = True
        self.emit("try:")
        self.emit("    " + sink.put.format(
            f"({left} {_COMPARISONS[node.op]} {right}) is True"))
        self.emit("except TypeError:")
        self.emit(f"    {otherwise}")
        if nested:
            self.depth -= 1

    def chain(self, node: CBinary, sink: _Sink) -> None:
        """``a AND b AND …`` / ``a OR b OR …``: operands in order until one
        settles it (not True under AND, True under OR)."""
        operands = _operands(node)
        conjunction = node.op == "AND"
        settled = sink.false if conjunction else sink.true
        if settled is not None and settled.startswith("return"):
            # the settling operand settles the whole condition: straight
            # code, each operand but the last leaving early
            early = _FAIL if conjunction else _SUCCEED
            for operand in operands[:-1]:
                self.test(operand, early)
            self.test(operands[-1], sink)
            return
        flag = sink if sink.var is not None else _flag(self.temp())
        self.test(operands[0], flag)
        after_first = set(self.sure)
        guard = f"if {flag.var}:" if conjunction else f"if not {flag.var}:"
        for operand in operands[1:]:
            # an operand runs only if every one before it ran, so what
            # those probed stays sure from block to block
            self.emit(guard)
            self.depth += 1
            self.test(operand, flag)
            self.depth -= 1
        self.sure = after_first
        if flag is not sink:
            self.emit(sink.put.format(flag.var))


def _operands(node: CBinary) -> list:
    """The operands of a chain of one AND/OR operator, in evaluation order
    (nested same-operator nodes flattened: both yield True or False, so
    the grouping does not matter)."""
    result = []
    for side in (node.left, node.right):
        if isinstance(side, CBinary) and side.op == node.op:
            result += _operands(side)
        else:
            result.append(side)
    return result
