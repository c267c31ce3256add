"""Tests for the rule-condition language (paper Section 5.2)."""

import pytest

from repro.core.condition import bind_condition, parse_condition
from repro.core.objects import MonitoredObject
from repro.core.schema import SCHEMA
from repro.errors import ConditionSyntaxError, SchemaError


def _query_obj(**attrs):
    cls = SCHEMA.monitored_class("Query")
    extra = {k.lower(): v for k, v in attrs.items()}
    return MonitoredObject(cls, {}, extra)


def _bind(text, lats=None, columns=None):
    lats = lats or set()
    columns = columns or {}
    return bind_condition(text, SCHEMA, lats,
                          lambda name: columns.get(name, set()))


def _eval(text, context=None, lat_rows=None, lats=None, columns=None):
    compiled = _bind(text, lats, columns)
    return compiled.evaluate(context or {}, lat_rows or {})


class TestParsing:
    def test_simple_comparison(self):
        tree = parse_condition("Query.Duration > 100")
        assert tree.op == ">"

    def test_precedence_and_or(self):
        tree = parse_condition("Query.A = 1 OR Query.B = 2 AND Query.C = 3")
        assert tree.op == "OR"
        assert tree.right.op == "AND"

    def test_arithmetic_precedence(self):
        tree = parse_condition("Query.A + 2 * 3 > 1")
        assert tree.left.op == "+"
        assert tree.left.right.op == "*"

    def test_parentheses(self):
        tree = parse_condition("(Query.A + 2) * 3 > 1")
        assert tree.left.op == "*"

    def test_string_literal(self):
        tree = parse_condition("Query.User = 'o''brien'")
        assert tree.right.value == "o'brien"

    def test_bare_name_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Duration > 5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Query.A > 5 extra")

    def test_bad_character_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Query.A > #")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("(Query.A > 5")


class TestBinding:
    def test_classes_collected(self):
        compiled = _bind("Query.Duration > 5 AND Blocker.Wait_Time > 1")
        assert compiled.classes == {"query", "blocker"}

    def test_lats_collected(self):
        compiled = _bind(
            "Query.Duration > MyLat.Avg",
            lats={"mylat"}, columns={"mylat": {"avg"}},
        )
        assert compiled.lats == {"mylat"}

    def test_atomic_count(self):
        compiled = _bind(
            "Query.Duration > 5 AND Query.ID = 1 OR NOT Query.Times_Blocked < 2"
        )
        assert compiled.atomic_count == 3

    def test_unknown_class_rejected(self):
        with pytest.raises(SchemaError):
            _bind("Nothing.Value > 5")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            _bind("Query.Nonexistent > 5")

    def test_unknown_lat_column_rejected(self):
        with pytest.raises(SchemaError):
            _bind("MyLat.Ghost > 5", lats={"mylat"},
                  columns={"mylat": {"real"}})


class TestEvaluation:
    def test_object_attribute_comparison(self):
        context = {"query": _query_obj(Duration=150.0)}
        assert _eval("Query.Duration > 100", context) is True
        assert _eval("Query.Duration > 200", context) is False

    def test_arithmetic_in_condition(self):
        context = {"query": _query_obj(Duration=10.0, Estimated_Cost=3.0)}
        assert _eval("Query.Duration > 2 * Query.Estimated_Cost + 1",
                     context) is True

    def test_string_equality(self):
        context = {"query": _query_obj(User='alice')}
        assert _eval("Query.User = 'alice'", context) is True
        assert _eval("Query.User != 'bob'", context) is True

    def test_and_or_not(self):
        context = {"query": _query_obj(Duration=10.0, Times_Blocked=0)}
        assert _eval("Query.Duration > 5 AND Query.Times_Blocked = 0",
                     context) is True
        assert _eval("Query.Duration > 50 OR Query.Times_Blocked = 0",
                     context) is True
        assert _eval("NOT Query.Duration > 50", context) is True

    def test_null_attribute_never_matches(self):
        context = {"query": _query_obj(Duration=None)}
        assert _eval("Query.Duration > 0", context) is False
        assert _eval("Query.Duration = 0", context) is False

    def test_lat_row_reference(self):
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": {"Avg": 10.0}}
        assert _eval("Query.Duration > 5 * MyLat.Avg", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is True

    def test_missing_lat_row_makes_condition_false(self):
        """The paper's implicit ∃ quantification (Section 5.2)."""
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": None}
        assert _eval("Query.Duration > 5 * MyLat.Avg", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is False

    def test_missing_lat_row_false_even_under_not(self):
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": None}
        assert _eval("NOT (Query.Duration > MyLat.Avg)", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is False

    def test_division_by_zero_is_null(self):
        context = {"query": _query_obj(Duration=5.0)}
        assert _eval("Query.Duration / 0 > 1", context) is False

    def test_unary_minus(self):
        context = {"query": _query_obj(Duration=5.0)}
        assert _eval("-Query.Duration < 0", context) is True

    def test_cross_type_comparison_false_not_error(self):
        context = {"query": _query_obj(User="alice")}
        assert _eval("Query.User > 5", context) is False


class TestGeneratedSourceCarriesNoUserText:
    """Conditions arrive over the wire (``install_rule`` / ``install_stream``)
    and are compiled to Python source.  Only schema- and LAT-validated
    identifiers and plain finite numbers may reach that source; every
    string literal and every number whose ``repr`` is not a literal is
    bound as a constant of the function's namespace.  An emitter that
    interpolated a literal (``f"{a} == '{value}'"``, or ``repr(value)``
    for ``inf``) fails here: the source would contain the literal's text,
    or not compile at all."""

    def test_string_literal_that_closes_the_quote(self):
        value = "x' + __import__('os').system('id') + '"
        text = "Query.User = 'x'' + __import__(''os'').system(''id'') + '''"
        assert parse_condition(text).right.value == value
        compiled = _bind(text)
        assert "__import__" not in compiled.source
        assert "system" not in compiled.source
        assert compiled.evaluate({"query": _query_obj(User=value)}, {}) \
            is True
        assert compiled.evaluate({"query": _query_obj(User="x")}, {}) \
            is False

    def test_string_literal_with_triple_quote_backslash_newline(self):
        value = 'a"""b\\c\nd\'\'\'e'
        text = "Query.Query_Text = '" + value.replace("'", "''") + "'"
        compiled = _bind(text)
        for piece in (value, '"""', "\\", "'''"):
            assert piece not in compiled.source
        assert compiled.evaluate(
            {"query": _query_obj(Query_Text=value)}, {}) is True
        assert compiled.evaluate(
            {"query": _query_obj(Query_Text=value + " ")}, {}) is False

    def test_number_whose_repr_is_not_a_literal(self):
        """``1e999`` tokenises to ``inf``; ``repr(inf)`` is a name."""
        compiled = _bind("Query.Duration < 1e999 AND Query.Duration > -1e999")
        assert "inf" not in compiled.source
        assert compiled.evaluate(
            {"query": _query_obj(Duration=1e300)}, {}) is True

    def test_source_is_a_function_of_names_and_plain_numbers_only(self):
        compiled = _bind(
            "Query.Duration > 5 * MyLat.Avg_D AND Query.User != 'root'",
            lats={"mylat"}, columns={"mylat": {"Avg_D"}})
        assert "'duration'" in compiled.source
        assert "'Avg_D'" in compiled.source       # the declared spelling
        assert "5 *" in compiled.source
        assert "root" not in compiled.source
