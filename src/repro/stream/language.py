"""Declarative stream-query language.

One statement defines one continuous query over a monitored event stream::

    [STREAM <name>]
    FROM <Class.Event>
    [WHERE <condition over Class attributes>]
    [GROUP BY <Class.Attr> [AS alias], ...]
    WINDOW TUMBLING(<length>) | SLIDING(<length>[, <hop>])
         | HOPPING(<length>, <hop>)
    AGG <FUNC>(<Class.Attr> | *) [AS alias], ...
    [HAVING <condition over Window.<output column>>]
    [ANOMALY DEVIATION(<output column>, <k>[, <history>])
           | TOPK(<output column>, <k>)]

The statement is tokenized with the engine's SQL lexer and the WHERE /
HAVING sub-expressions are handed, as source-text slices, to the ECA
condition compiler — the stream language adds clause structure, not a new
expression grammar.  ``SLIDING(len)`` defaults the hop to ``len / 10``;
``TUMBLING(len)`` is ``hop == len``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.condition import (CompiledCondition, bind_condition,
                                  bind_row_condition)
from repro.core.schema import SCHEMA, EventDef, MonitoredClassDef
from repro.engine.sqlparse.lexer import Token, tokenize
from repro.errors import SQLSyntaxError, StreamSyntaxError

# clause-introducing words; GROUP BY is detected as KEYWORD GROUP + BY.
# WINDOW/AGG/... are not SQL keywords, so they surface as IDENT tokens and
# are matched case-insensitively.
_CLAUSE_WORDS = ("FROM", "WHERE", "GROUP", "WINDOW", "AGG", "HAVING",
                 "ANOMALY")
_CLAUSE_ORDER = {word: i for i, word in enumerate(
    ("STREAM",) + _CLAUSE_WORDS)}

_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV")


@dataclass(frozen=True)
class GroupSpec:
    """One GROUP BY key: a FROM-class attribute and its output column."""

    attribute: str
    alias: str


@dataclass(frozen=True)
class AggSpec:
    """One AGG item: aggregate function over a FROM-class attribute.

    ``attribute`` is None for ``COUNT(*)`` (each event contributes 1).
    """

    func: str
    attribute: str | None
    alias: str


@dataclass(frozen=True)
class StreamSpec:
    """A fully parsed and bound stream-query definition."""

    name: str
    text: str
    class_def: MonitoredClassDef
    event_def: EventDef
    where: CompiledCondition | None
    groups: tuple[GroupSpec, ...]
    window: "WindowSpec"
    aggs: tuple[AggSpec, ...]
    having: CompiledCondition | None
    anomaly: object | None  # DeviationSpec | TopKSpec | None

    @property
    def class_key(self) -> str:
        return self.class_def.name.lower()

    @property
    def engine_event(self) -> str:
        return self.event_def.engine_event

    @property
    def event_spec(self) -> str:
        return f"{self.class_def.name}.{self.event_def.name}"


def _clause_word(token: Token) -> str | None:
    if token.kind == "KEYWORD" and token.value in _CLAUSE_WORDS:
        return token.value
    if token.kind == "IDENT" and token.value.upper() in _CLAUSE_WORDS:
        return token.value.upper()
    return None


def _split_clauses(text: str,
                   tokens: list[Token]) -> dict[str, tuple[list[Token], int]]:
    """Split the token list into clauses at paren-depth-0 clause words.

    Returns ``{clause: (tokens, start position)}``; each clause's token
    list excludes its introducing word(s).  Enforces clause order and
    uniqueness.
    """
    starts: list[tuple[str, int]] = []  # (clause, token index of word)
    depth = 0
    i = 0
    if tokens and tokens[0].kind == "IDENT" \
            and tokens[0].value.upper() == "STREAM":
        starts.append(("STREAM", 0))
        i = 1
    while tokens[i].kind != "EOF":
        token = tokens[i]
        if token.kind == "OP" and token.value == "(":
            depth += 1
        elif token.kind == "OP" and token.value == ")":
            depth -= 1
            if depth < 0:
                raise StreamSyntaxError("unbalanced ')'", token.position)
        elif depth == 0:
            word = _clause_word(token)
            if word is not None:
                # `Window.Avg_D` in a HAVING expression is a qualified
                # reference, not the WINDOW clause: a clause word adjacent
                # to a '.' never opens a clause
                dotted = (tokens[i + 1].matches("OP", ".")
                          or (i > 0 and tokens[i - 1].matches("OP", ".")))
                if not dotted:
                    starts.append((word, i))
        i += 1
    if depth != 0:
        raise StreamSyntaxError("unbalanced '(' in stream query",
                                len(text))
    if not starts or (starts[0][0] != "FROM"
                      and (starts[0][0] != "STREAM" or len(starts) < 2
                           or starts[1][0] != "FROM")):
        raise StreamSyntaxError(
            "stream query must start with [STREAM <name>] FROM", 0)
    clauses: dict[str, tuple[list[Token], int]] = {}
    last_order = -1
    for n, (word, start) in enumerate(starts):
        if word in clauses:
            raise StreamSyntaxError(f"duplicate {word} clause",
                                    tokens[start].position)
        order = _CLAUSE_ORDER[word]
        if order <= last_order:
            raise StreamSyntaxError(
                f"{word} clause out of order", tokens[start].position)
        last_order = order
        end = starts[n + 1][1] if n + 1 < len(starts) else len(tokens) - 1
        body = tokens[start + 1:end]
        if word == "GROUP":
            if not body or not body[0].matches("KEYWORD", "BY"):
                raise StreamSyntaxError("expected BY after GROUP",
                                        tokens[start].position)
            body = body[1:]
        clauses[word] = (body, tokens[start].position)
    return clauses


def _source_slice(text: str, body: list[Token]) -> str:
    """The raw source text spanned by a clause's tokens (for the condition
    compiler, which has its own tokenizer)."""
    if not body:
        return ""
    start = body[0].position
    last = body[-1]
    end = last.position + _token_width(text, last)
    return text[start:end]


def _token_width(text: str, token: Token) -> int:
    if token.kind == "STRING":
        # find the closing quote, accounting for '' escapes
        i = token.position + 1
        while i < len(text):
            if text[i] == "'":
                if i + 1 < len(text) and text[i + 1] == "'":
                    i += 2
                    continue
                return i + 1 - token.position
            i += 1
        return len(text) - token.position
    if token.kind in ("KEYWORD", "IDENT", "OP"):
        return len(str(token.value))
    # NUMBER: scan forward over the literal's characters
    i = token.position
    while i < len(text) and (text[i].isalnum() or text[i] in ".+-"):
        if text[i] in "+-" and text[i - 1] not in "eE":
            break
        i += 1
    return i - token.position


class _ClauseParser:
    """Cursor over one clause's token list."""

    def __init__(self, body: list[Token], clause: str, position: int):
        self._body = body
        self._clause = clause
        self._pos = 0
        self._start = position

    def _peek(self) -> Token | None:
        return self._body[self._pos] if self._pos < len(self._body) else None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise StreamSyntaxError(
                f"unexpected end of {self._clause} clause", self._start)
        self._pos += 1
        return token

    def fail(self, message: str) -> StreamSyntaxError:
        token = self._peek()
        position = token.position if token is not None else self._start
        return StreamSyntaxError(f"{message} in {self._clause} clause",
                                 position)

    def name(self, what: str) -> str:
        """A bare identifier (keywords double as names: Count, Avg, ...)."""
        token = self._advance()
        if token.kind == "IDENT":
            return token.value
        if token.kind == "KEYWORD":
            return str(token.value)
        raise StreamSyntaxError(
            f"expected {what}, got {token.value!r}", token.position)

    def dotted(self, what: str) -> tuple[str, str]:
        """``Qualifier.Name``."""
        qualifier = self.name(what)
        self.op(".")
        return qualifier, self.name(what)

    def op(self, op: str) -> None:
        token = self._advance()
        if not token.matches("OP", op):
            raise StreamSyntaxError(
                f"expected {op!r}, got {token.value!r}", token.position)

    def number(self, what: str) -> float:
        token = self._advance()
        sign = 1.0
        if token.matches("OP", "-"):
            sign = -1.0
            token = self._advance()
        if token.kind != "NUMBER":
            raise StreamSyntaxError(
                f"expected {what}, got {token.value!r}", token.position)
        return sign * float(token.value)

    def maybe_op(self, op: str) -> bool:
        token = self._peek()
        if token is not None and token.matches("OP", op):
            self._pos += 1
            return True
        return False

    def maybe_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token is not None and token.matches("KEYWORD", keyword):
            self._pos += 1
            return True
        return False

    def done(self) -> None:
        token = self._peek()
        if token is not None:
            raise StreamSyntaxError(
                f"unexpected {token.value!r} at end of {self._clause} "
                f"clause", token.position)


def _parse_window(parser: _ClauseParser) -> "WindowSpec":
    from repro.stream.windows import WindowSpec
    kind = parser.name("window kind").lower()
    if kind not in ("tumbling", "sliding", "hopping"):
        raise StreamSyntaxError(
            f"unknown window kind {kind!r} (expected TUMBLING, SLIDING, "
            f"or HOPPING)", parser._start)
    parser.op("(")
    length = parser.number("window length")
    hop = None
    if parser.maybe_op(","):
        hop = parser.number("window hop")
    parser.op(")")
    parser.done()
    if kind == "tumbling":
        if hop is not None:
            raise StreamSyntaxError(
                "TUMBLING takes a single length argument", parser._start)
        hop = length
    elif kind == "hopping":
        if hop is None:
            raise StreamSyntaxError(
                "HOPPING requires an explicit hop argument", parser._start)
    elif hop is None:  # sliding default: ten panes per window
        hop = length / 10.0
    return WindowSpec(kind, length, hop)


def _parse_groups(parser: _ClauseParser,
                  class_def: MonitoredClassDef) -> list[GroupSpec]:
    groups: list[GroupSpec] = []
    while True:
        qualifier, attribute = parser.dotted("grouping attribute")
        if qualifier.lower() != class_def.name.lower():
            raise StreamSyntaxError(
                f"GROUP BY attribute must belong to {class_def.name}, "
                f"got {qualifier!r}", parser._start)
        attribute = class_def.attribute(attribute).name
        alias = parser.name("alias") if parser.maybe_keyword("AS") \
            else attribute
        groups.append(GroupSpec(attribute, alias))
        if not parser.maybe_op(","):
            break
    parser.done()
    return groups


def _parse_aggs(parser: _ClauseParser,
                class_def: MonitoredClassDef) -> list[AggSpec]:
    aggs: list[AggSpec] = []
    while True:
        func = parser.name("aggregate function").upper()
        if func not in _AGG_FUNCS:
            raise StreamSyntaxError(
                f"unknown aggregate {func!r} (expected one of "
                f"{', '.join(_AGG_FUNCS)})", parser._start)
        parser.op("(")
        if parser.maybe_op("*"):
            if func != "COUNT":
                raise parser.fail(f"{func}(*) is not defined; only COUNT(*)")
            attribute = None
            default_alias = "Count"
        else:
            qualifier, attr = parser.dotted("aggregated attribute")
            if qualifier.lower() != class_def.name.lower():
                raise StreamSyntaxError(
                    f"AGG attribute must belong to {class_def.name}, "
                    f"got {qualifier!r}", parser._start)
            attribute = class_def.attribute(attr).name
            default_alias = f"{func.capitalize()}_{attribute}"
        parser.op(")")
        alias = parser.name("alias") if parser.maybe_keyword("AS") \
            else default_alias
        aggs.append(AggSpec(func, attribute, alias))
        if not parser.maybe_op(","):
            break
    parser.done()
    return aggs


def _parse_anomaly(parser: _ClauseParser, columns: tuple[str, ...]):
    from repro.stream.anomaly import DeviationSpec, TopKSpec
    kind = parser.name("anomaly operator").upper()
    lowered = {c.lower(): c for c in columns}

    def column() -> str:
        name = parser.name("output column")
        if name.lower() not in lowered:
            raise StreamSyntaxError(
                f"anomaly column {name!r} is not an output column "
                f"(expected one of {sorted(columns)})", parser._start)
        return lowered[name.lower()]

    parser.op("(")
    if kind == "DEVIATION":
        col = column()
        parser.op(",")
        k = parser.number("deviation threshold k")
        history = None
        if parser.maybe_op(","):
            history = int(parser.number("history length"))
        parser.op(")")
        parser.done()
        return DeviationSpec(col, k) if history is None \
            else DeviationSpec(col, k, history)
    if kind == "TOPK":
        col = column()
        parser.op(",")
        k = parser.number("top-k rank count")
        parser.op(")")
        parser.done()
        return TopKSpec(col, int(k))
    raise StreamSyntaxError(
        f"unknown anomaly operator {kind!r} (expected DEVIATION or TOPK)",
        parser._start)


def parse_stream_query(text: str, *, name: str | None = None,
                       schema=SCHEMA) -> StreamSpec:
    """Parse, validate, and bind one stream-query statement.

    ``name`` overrides / substitutes the ``STREAM <name>`` prefix; a query
    with neither raises.  Raises :class:`StreamSyntaxError` on malformed
    text and :class:`SchemaError` on unknown classes / attributes.
    """
    try:
        tokens = tokenize(text)
    except SQLSyntaxError as exc:
        raise StreamSyntaxError(str(exc), exc.position) from exc
    if tokens[0].kind == "EOF":
        raise StreamSyntaxError("empty stream query", 0)
    clauses = _split_clauses(text, tokens)

    if "STREAM" in clauses:
        body, position = clauses["STREAM"]
        parser = _ClauseParser(body, "STREAM", position)
        declared = parser.name("stream name")
        parser.done()
        if name is None:
            name = declared
    if not name:
        raise StreamSyntaxError(
            "stream query needs a name (STREAM <name> prefix or name=)", 0)

    body, position = clauses["FROM"]
    parser = _ClauseParser(body, "FROM", position)
    class_name, event_name = parser.dotted("event spec")
    parser.done()
    class_def, event_def = schema.resolve_event(f"{class_name}.{event_name}")

    where = None
    if "WHERE" in clauses:
        body, position = clauses["WHERE"]
        if not body:
            raise StreamSyntaxError("empty WHERE clause", position)
        where = bind_condition(_source_slice(text, body), schema, set(),
                               lambda _n: set())
        extra = where.classes - {class_def.name.lower()}
        if extra:
            raise StreamSyntaxError(
                f"WHERE may only reference {class_def.name}; also saw "
                f"{sorted(extra)}", position)

    groups: list[GroupSpec] = []
    if "GROUP" in clauses:
        body, position = clauses["GROUP"]
        groups = _parse_groups(
            _ClauseParser(body, "GROUP BY", position), class_def)

    if "WINDOW" not in clauses:
        raise StreamSyntaxError("stream query requires a WINDOW clause",
                                len(text))
    body, position = clauses["WINDOW"]
    window = _parse_window(_ClauseParser(body, "WINDOW", position))

    if "AGG" not in clauses:
        raise StreamSyntaxError("stream query requires an AGG clause",
                                len(text))
    body, position = clauses["AGG"]
    aggs = _parse_aggs(_ClauseParser(body, "AGG", position), class_def)

    columns = tuple(g.alias for g in groups) + tuple(a.alias for a in aggs)
    seen: set[str] = set()
    for column in columns:
        if column.lower() in seen:
            raise StreamSyntaxError(
                f"duplicate output column {column!r}", 0)
        seen.add(column.lower())

    having = None
    if "HAVING" in clauses:
        body, position = clauses["HAVING"]
        if not body:
            raise StreamSyntaxError("empty HAVING clause", position)
        having = bind_row_condition(_source_slice(text, body), set(columns))

    anomaly = None
    if "ANOMALY" in clauses:
        body, position = clauses["ANOMALY"]
        anomaly = _parse_anomaly(
            _ClauseParser(body, "ANOMALY", position), columns)

    return StreamSpec(name=name, text=text, class_def=class_def,
                      event_def=event_def, where=where,
                      groups=tuple(groups), window=window,
                      aggs=tuple(aggs), having=having, anomaly=anomaly)
