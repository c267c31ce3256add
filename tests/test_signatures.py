"""Tests for the four signature kinds (paper Section 4.2)."""

import pytest

from repro import DatabaseServer, SQLCM
from repro.core.signatures import (SignatureRegistry, digest,
                                   linearize_expr, linearize_logical,
                                   linearize_physical, sequence_signature)
from repro.engine.catalog import ProcedureDef
from repro.engine.planner.logical import build_logical_plan
from repro.engine.sqlparse.parser import parse_statement


@pytest.fixture
def sig_server(items_server):
    sqlcm = SQLCM(items_server)
    sqlcm.enable_signatures(True)
    return items_server, sqlcm


def _logical_sig(server, sql):
    logical = build_logical_plan(parse_statement(sql), server.catalog)
    return digest(linearize_logical(logical))


class TestExprLinearization:
    def test_constants_become_wildcards(self):
        a = parse_statement("SELECT a FROM t WHERE a = 5").where
        b = parse_statement("SELECT a FROM t WHERE a = 99").where
        assert linearize_expr(a) == linearize_expr(b)

    def test_different_columns_differ(self):
        a = parse_statement("SELECT a FROM t WHERE a = 5").where
        b = parse_statement("SELECT a FROM t WHERE b = 5").where
        assert linearize_expr(a) != linearize_expr(b)

    def test_parameters_stay_symbolic(self):
        a = parse_statement("SELECT a FROM t WHERE a = @x").where
        b = parse_statement("SELECT a FROM t WHERE a = @y").where
        assert linearize_expr(a) != linearize_expr(b)
        c = parse_statement("SELECT a FROM t WHERE a = @x").where
        assert linearize_expr(a) == linearize_expr(c)

    def test_conjunct_order_normalized(self):
        a = parse_statement(
            "SELECT a FROM t WHERE a = 1 AND b = 2").where
        b = parse_statement(
            "SELECT a FROM t WHERE b = 7 AND a = 3").where
        assert linearize_expr(a) == linearize_expr(b)

    def test_commutative_operands_normalized(self):
        a = parse_statement("SELECT a FROM t WHERE a = b").where
        b = parse_statement("SELECT a FROM t WHERE b = a").where
        assert linearize_expr(a) == linearize_expr(b)

    def test_non_commutative_preserved(self):
        a = parse_statement("SELECT a FROM t WHERE a < b").where
        b = parse_statement("SELECT a FROM t WHERE b < a").where
        assert linearize_expr(a) != linearize_expr(b)


class TestLogicalSignature:
    def test_same_template_same_signature(self, items_server):
        a = _logical_sig(items_server,
                         "SELECT name FROM items WHERE id = 1")
        b = _logical_sig(items_server,
                         "SELECT name FROM items WHERE id = 42")
        assert a == b

    def test_different_shape_differs(self, items_server):
        a = _logical_sig(items_server,
                         "SELECT name FROM items WHERE id = 1")
        b = _logical_sig(items_server,
                         "SELECT name, price FROM items WHERE id = 1")
        assert a != b

    def test_formatting_insensitive(self, items_server):
        a = _logical_sig(items_server,
                         "SELECT name FROM items WHERE id = 1")
        b = _logical_sig(items_server,
                         "select   name from ITEMS where ID=7")
        assert a == b

    def test_predicate_order_insensitive(self, items_server):
        a = _logical_sig(
            items_server,
            "SELECT name FROM items WHERE id = 1 AND price > 2")
        b = _logical_sig(
            items_server,
            "SELECT name FROM items WHERE price > 5 AND id = 9")
        assert a == b


class TestSignaturesThroughEngine:
    def test_signature_available_after_commit(self, sig_server):
        server, __ = sig_server
        session = server.create_session()
        result = session.execute("SELECT name FROM items WHERE id = 1")
        assert result.query.logical_signature is not None
        assert result.query.physical_signature is not None

    def test_signature_cached_with_plan(self, sig_server):
        server, __ = sig_server
        session = server.create_session()
        first = session.execute("SELECT name FROM items WHERE id = 1")
        entry = server.plan_cache.get("SELECT name FROM items WHERE id = 1")
        assert entry.logical_signature == first.query.logical_signature
        second = session.execute("SELECT name FROM items WHERE id = 1")
        assert second.query.logical_signature == \
            first.query.logical_signature

    def test_physical_differs_when_plan_differs(self, sig_server):
        server, __ = sig_server
        session = server.create_session()
        seek = session.execute("SELECT name FROM items WHERE id = 1")
        scan = session.execute("SELECT name FROM items WHERE qty = 10")
        assert seek.query.physical_signature != scan.query.physical_signature

    def test_no_signatures_when_not_needed(self, items_server):
        SQLCM(items_server)  # no rules/LATs referencing signatures
        session = items_server.create_session()
        result = session.execute("SELECT name FROM items WHERE id = 1")
        assert result.query.logical_signature is None

    def test_instance_counting(self, sig_server):
        server, sqlcm = sig_server
        session = server.create_session()
        result = None
        for i in range(5):
            result = session.execute(f"SELECT name FROM items WHERE id = {i}")
        # 5 instances share the template signature... but distinct texts
        # compile separately; all share one logical signature
        assert sqlcm.instance_count(result.query.logical_signature) == 5

    @pytest.mark.parametrize("sql, logical, physical", [
        ("SELECT 1", "SINGLEROW", "SINGLEROW"),
        ("SELECT DISTINCT segment FROM items", "DISTINCT", "DISTINCT"),
        ("DELETE FROM items WHERE id = 6", "DELETE(items)", "DELETE(items)"),
        ("SELECT a.name FROM items a JOIN items b ON a.price < b.price",
         "JOIN(INNER)", "NLJOIN(INNER)"),
    ])
    def test_every_plan_shape_linearizes(self, sig_server, sql, logical,
                                         physical):
        server, __ = sig_server
        result = server.create_session().execute(sql)
        assert result.error is None
        assert result.query.logical_signature is not None
        assert logical in linearize_logical(
            build_logical_plan(parse_statement(sql), server.catalog))
        assert physical in linearize_physical(result.query.plan)


class TestTransactionSignatures:
    def test_same_statement_sequence_same_signature(self, sig_server):
        server, sqlcm = sig_server
        captured = []
        server.events.subscribe(
            "txn.commit",
            lambda e, p: captured.append(
                sqlcm.transaction_signature(p["statements"],
                                            physical=False)),
        )
        session = server.create_session()
        for __ in range(2):
            session.execute("BEGIN")
            session.execute("SELECT name FROM items WHERE id = 1")
            session.execute("UPDATE items SET qty = 5 WHERE id = 2")
            session.execute("COMMIT")
        assert captured[0] == captured[1]

    def test_different_code_paths_differ(self, sig_server):
        server, sqlcm = sig_server
        server.create_procedure(ProcedureDef(
            name="twopath",
            params=("mode",),
            body=[],
        ))
        captured = []
        server.events.subscribe(
            "txn.commit",
            lambda e, p: captured.append(
                sqlcm.transaction_signature_ids(p["statements"])),
        )
        session = server.create_session()
        session.execute("BEGIN")
        session.execute("SELECT name FROM items WHERE id = 1")
        session.execute("COMMIT")
        session.execute("BEGIN")
        session.execute("SELECT qty FROM items WHERE id = 1")
        session.execute("COMMIT")
        assert captured[0] != captured[1]

    def test_sequence_signature_order_sensitive(self):
        assert sequence_signature([1, 2]) != sequence_signature([2, 1])
        assert sequence_signature([1, 2]) == sequence_signature([1, 2])


class TestSignatureRegistry:
    def test_stable_ids(self):
        registry = SignatureRegistry()
        a = registry.id_of(b"aaa")
        b = registry.id_of(b"bbb")
        assert a != b
        assert registry.id_of(b"aaa") == a
        assert len(registry) == 2

    def test_none_maps_to_zero(self):
        assert SignatureRegistry().id_of(None) == 0
