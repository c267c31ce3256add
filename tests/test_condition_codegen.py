"""Generated condition code against a reference interpreter.

``bind_condition`` turns a condition into one generated Python function.
The reference below walks the *parsed* tree node by node, the way the
closure compiler this replaced did, so it shares nothing with the binder
or the emitter.  For random conditions over random objects and LAT rows
the two must agree on the outcome (the result, or the type of the error
raised) and on the probes made: the generated function makes the
reference's probes in the reference's order, each at most once — never
one the reference's short-circuit order did not reach.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condition import (CAttrRef, CBinary, CLiteral, CUnary,
                                  bind_condition, bind_row_condition,
                                  parse_condition)
from repro.core.objects import MonitoredObject
from repro.core.schema import SCHEMA
from repro.errors import SchemaError

# ---------------------------------------------------------------------------
# the reference: a tree-walking interpreter (test-only; nothing under src/
# interprets conditions any more)
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}


class _NoRow(Exception):
    """A referenced LAT has no matched row: the whole condition is false."""


def reference(node, context, lat_rows):
    def ev(n):
        if isinstance(n, CLiteral):
            return n.value
        if isinstance(n, CAttrRef):
            qualifier, name = n.qualifier.lower(), n.attribute.lower()
            if qualifier in lat_rows:
                row = lat_rows[qualifier]
                if row is None:
                    raise _NoRow
                return next((value for key, value in row.items()
                             if key.lower() == name), None)
            if context.get(qualifier) is None:
                raise SchemaError(f"no {qualifier!r} object in rule context")
            return context[qualifier].get(n.attribute)
        if isinstance(n, CUnary):
            value = ev(n.operand)
            if value is None:
                return None
            return value is not True if n.op == "NOT" else -value
        if n.op == "AND":
            return ev(n.left) is True and ev(n.right) is True
        if n.op == "OR":
            return ev(n.left) is True or ev(n.right) is True
        a, b = ev(n.left), ev(n.right)
        if n.op in _COMPARE:
            if a is None or b is None:
                return False
            try:
                return _COMPARE[n.op](a, b)
            except TypeError:
                return False  # this comparison only
        if a is None or b is None or (n.op == "/" and b == 0):
            return None
        return a / b if n.op == "/" else _ARITHMETIC[n.op](a, b)

    try:
        return ev(node) is True
    except _NoRow:
        return False


# ---------------------------------------------------------------------------
# recording objects, outcomes
# ---------------------------------------------------------------------------

class RecordingObject(MonitoredObject):
    """A monitored object that logs every probe made of it."""

    __slots__ = ("log",)

    def _probe(self, key):
        self.log.append((self.class_name.lower(), key))
        return super()._probe(key)


def recording(class_name, values, log):
    obj = RecordingObject(SCHEMA.monitored_class(class_name), {},
                          {key.lower(): value
                           for key, value in values.items()})
    obj.log = log
    return obj


def outcome(fn, make_context):
    """``(result or error type, probes in order)`` of one evaluation."""
    log = []
    try:
        result = fn(make_context(log))
    except (SchemaError, TypeError, OverflowError) as err:
        result = type(err)
    return result, log


def first_occurrences(probes):
    return list(dict.fromkeys(probes))


# ---------------------------------------------------------------------------
# the strategy: tests/test_fuzz.py's conditions, widened
# ---------------------------------------------------------------------------

# few attributes, so that operands share them: re-reads are the point
QUERY_ATTRS = ["Duration", "Times_Blocked", "User"]
#: LATs as declared (the spelling rows are keyed by unless a test re-cases)
LATS = {"stats_lat": ["Avg_D", "N"], "other": ["Total"]}

# integers stay small: 'SELECT' * 12 * 12 * 12 is a string worth building
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 12),
    st.floats(-10, 100, allow_nan=False),
    st.sampled_from(["", "alice", "SELECT", "o'brien"]))

_literals = st.one_of(
    st.integers(0, 12).map(str),
    st.floats(0, 100, allow_nan=False).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["0", "0.0", "1e999", "TRUE", "FALSE", "NULL", "''",
                     "'alice'", "'SELECT'", "'o''brien'"]))

_rule_refs = st.sampled_from(
    [f"Query.{a}" for a in QUERY_ATTRS]
    + ["query.duration", "QUERY.USER", "Blocker.Wait_Time",
       "Stats_LAT.Avg_D", "Stats_LAT.N", "Other.Total",
       "stats_lat.avg_d", "STATS_LAT.N"])

_row_refs = st.sampled_from(["Window.Avg_D", "Window.N", "window.avg_d",
                             "WINDOW.N"])


def conditions_over(refs):
    """tests/test_fuzz.py's ``_conditions``, widened: string, boolean and
    NULL literals, arithmetic (with ``/ 0``), unary minus, nested NOT,
    flat AND/OR chains, and a condition's value used as a term.  Most
    atoms read at least one reference: probes and short circuits are
    what is under test."""
    either = st.one_of(refs, _literals)

    def arithmetic(left, right):
        return st.tuples(left, st.sampled_from("+-*/"), right,
                         st.sampled_from(["", "", " / 0", " * 2", " - -1"])
                         ).map(lambda t: f"(({t[0]} {t[1]} {t[2]}){t[3]})")

    reading = st.one_of(refs, refs, refs.map(lambda r: f"-{r}"),
                        arithmetic(refs, either), arithmetic(either, refs))
    anything = st.one_of(reading, _literals, _literals.map(lambda v: f"--{v}"),
                         arithmetic(_literals, _literals))
    compare = st.sampled_from(["=", "!=", "<>", "<", ">", "<=", ">="])
    atoms = st.one_of(st.tuples(reading, compare, anything),
                      st.tuples(anything, compare, reading),
                      st.tuples(reading, compare, reading)).map(" ".join)

    def pair(inner):
        return st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})")

    return st.recursive(
        st.one_of(atoms, atoms, atoms, atoms,
                  st.tuples(anything, compare, anything).map(" ".join),
                  st.sampled_from(["TRUE", "FALSE", "NULL"])),
        lambda inner: st.one_of(
            pair(inner), pair(inner), pair(inner),
            # chains: the emitter flattens these, the reference does not
            st.tuples(st.sampled_from(["AND", "OR"]),
                      st.lists(inner, min_size=3, max_size=4)).map(
                lambda t: f" {t[0]} ".join(f"({c})" for c in t[1])),
            inner.map(lambda c: f"NOT ({c})"),
            st.tuples(inner, st.sampled_from(
                ["= TRUE", "!= FALSE", "+ 1 > 1"])).map(
                lambda t: f"({t[0]}) {t[1]}")),
        max_leaves=8)


@st.composite
def rows(draw, columns):
    """No matched row, or a row whose keys are spelled as declared,
    lowered or raised, some columns absent (they read as NULL)."""
    if draw(st.integers(0, 4)) == 0:
        return None
    return {draw(st.sampled_from([c, c.lower(), c.upper()])): draw(_values)
            for c in columns if draw(st.integers(0, 5)) > 0}


def bind(text):
    return bind_condition(text, SCHEMA, set(LATS),
                          lambda lat: set(LATS[lat]))


class TestGeneratedAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(conditions_over(_rule_refs),
           st.fixed_dictionaries({a: _values for a in QUERY_ATTRS}),
           st.one_of(st.none(), _values),
           st.fixed_dictionaries({lat: rows(columns)
                                  for lat, columns in LATS.items()}))
    def test_same_outcome_same_probes(self, text, query, wait, lat_rows):
        def make_context(log):
            context = {"query": recording("Query", query, log)}
            if wait is not None:  # else: no Blocker object in context
                context["blocker"] = recording(
                    "Blocker", {"Wait_Time": wait}, log)
            return context

        compiled = bind(text)
        tree = parse_condition(text)
        expected, expected_probes = outcome(
            lambda context: reference(tree, context, lat_rows),
            make_context)
        actual, actual_probes = outcome(
            lambda context: compiled.evaluate(context, lat_rows),
            make_context)
        assert actual is expected, compiled.source
        assert actual_probes == first_occurrences(expected_probes), \
            compiled.source

    @settings(deadline=None, max_examples=100)
    @given(conditions_over(_row_refs), rows(["Avg_D", "N"]))
    def test_row_conditions(self, text, row):
        """Stream HAVING: the same emitter over one plain row."""
        compiled = bind_row_condition(text, {"Avg_D", "N"})
        tree = parse_condition(text)
        expected, __ = outcome(
            lambda __: reference(tree, {}, {"window": row}), list)
        actual, __ = outcome(
            lambda __: compiled.evaluate({}, {"window": row}), list)
        assert actual is expected, compiled.source


class TestGeneratedShape:
    """Properties of the generated text itself."""

    def test_each_attribute_is_probed_once_in_the_source(self):
        atoms = " AND ".join(f"Query.Duration >= {-1.0 * j}"
                             for j in range(12))
        source = bind(atoms).source
        assert source.count("._probe('duration')") == 1
        assert source.count("context.get('query')") == 1
        assert source.count("is None") == 2  # the object, the attribute
        assert "_UNSET" not in source

    def test_probe_on_an_unsure_path_is_guarded_not_repeated(self):
        """``Times_Blocked`` is first read inside the OR's second operand,
        which may not run; the later read probes only if that did not."""
        text = "(Query.Duration > 5 OR Query.Times_Blocked > 1) " \
               "AND Query.Times_Blocked < 9"
        compiled = bind(text)
        assert "is _UNSET" in compiled.source
        for duration, probes in ((10, 2), (1, 2)):
            log = []
            context = {"query": recording(
                "Query", {"Duration": duration, "Times_Blocked": 3}, log)}
            assert compiled.evaluate(context, {}) is True
            assert len(log) == probes == len(set(log))

    def test_a_chain_of_two_hundred_operands_compiles_flat(self):
        for op in ("AND", "OR"):
            chain = f" {op} ".join(f"Query.Duration > {i}"
                                   for i in range(200))
            text = f"Query.User = 'x' OR NOT ({chain})"
            compiled = bind(text)
            depth = max((len(line) - len(line.lstrip())) // 4
                        for line in compiled.source.splitlines())
            assert depth <= 4
            context = {"query": recording(
                "Query", {"Duration": 150, "User": "y"}, [])}
            assert compiled.evaluate(context, {}) is \
                reference(parse_condition(text), context, {})

    def test_alternation_sixty_deep_compiles(self):
        text = "Query.Duration > 0"
        for level in range(60):
            op = "AND" if level % 2 else "OR"
            text = f"Query.Duration > {level + 1} {op} ({text})"
        context = {"query": recording("Query", {"Duration": 0.5}, [])}
        assert bind(text).evaluate(context, {}) is \
            reference(parse_condition(text), context, {})

    def test_code_objects_are_shared_between_equal_texts(self):
        one = bind("Query.Duration > 5 AND Query.User = 'a'")
        two = bind("Query.Duration  >  5 AND query.user = 'b'")
        assert one._fn is not two._fn
        assert one._fn.__code__ is two._fn.__code__  # literals are bound
        three = bind("Query.Duration > 5.0 AND Query.User = 'a'")
        assert three._fn.__code__ is not one._fn.__code__  # 5 is not 5.0


@pytest.mark.parametrize("text, expected", [
    ("NOT 5", True), ("NOT TRUE", False), ("NOT NULL", False),
    ("NOT (NULL > 1)", True), ("NOT (NULL AND TRUE)", True),
    ("(Query.User > 5) OR Query.Duration > 1", True),   # TypeError rule
    ("NOT (Query.User > 5)", True),
    ("Query.Duration / 0 > 1", False), ("NOT (Query.Duration / 0 > 1)", True),
    ("Query.Duration - -1 = 3", True), ("--Query.Duration = 2", True),
    ("(Query.Duration > 1) + 1 = 2", True),
    ("Query.Duration < 1e999", True),
])
def test_corner_semantics(text, expected):
    context = {"query": recording("Query", {"Duration": 2, "User": "u"}, [])}
    assert bind(text).evaluate(context, {}) is expected
    assert reference(parse_condition(text), context, {}) is expected
