"""Tests for the interactive shell (repro.cli)."""

import io

import pytest

from repro.cli import Shell
from repro.core.durability import DurabilityManager


@pytest.fixture
def shell():
    out = io.StringIO()
    return Shell(out=out), out


def output_of(shell_pair) -> str:
    __, out = shell_pair
    return out.getvalue()


class TestSQLExecution:
    def test_create_insert_select_roundtrip(self, shell):
        sh, __ = shell
        sh.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY, b FLOAT);"
            "INSERT INTO t VALUES (1, 2.5), (2, 3.5);"
            "SELECT a, b FROM t ORDER BY a;"
        )
        text = output_of(shell)
        assert "(2 rows affected)" in text
        assert "1 | 2.5" in text
        assert "(2 rows)" in text

    def test_error_reported_not_raised(self, shell):
        sh, __ = shell
        sh.execute_line("SELECT broken FROM nowhere")
        assert "error:" in output_of(shell)

    def test_syntax_error_reported(self, shell):
        sh, __ = shell
        sh.execute_line("SELEKT 1")
        assert "error:" in output_of(shell)

    def test_blank_lines_and_comments_skipped(self, shell):
        sh, __ = shell
        sh.execute_line("")
        sh.execute_line("-- just a comment")
        assert output_of(shell) == ""


class TestMetaCommands:
    def test_help(self, shell):
        sh, __ = shell
        sh.execute_line(".help")
        assert ".monitor topk" in output_of(shell)

    def test_clock(self, shell):
        sh, __ = shell
        sh.execute_line(".clock")
        assert "virtual time" in output_of(shell)

    def test_lats_empty_then_populated(self, shell):
        sh, __ = shell
        sh.execute_line(".lats")
        assert "(no LATs)" in output_of(shell)
        sh.execute_line(".monitor topk 3")
        sh.execute_line(".lats")
        assert "TopK_LAT" in output_of(shell)

    def test_monitor_topk_end_to_end(self, shell):
        sh, __ = shell
        sh.run_script(
            ".monitor topk 2\n"
            "CREATE TABLE t (a INT PRIMARY KEY, b FLOAT);\n"
            "INSERT INTO t VALUES (1, 1.0);\n"
            "SELECT a FROM t;\n"
            "SELECT b FROM t;\n"
            ".lat TopK_LAT\n"
        )
        text = output_of(shell)
        assert "Duration=" in text

    def test_rules_listing(self, shell):
        sh, __ = shell
        sh.execute_line(".monitor outliers")
        sh.execute_line(".rules")
        text = output_of(shell)
        assert "ON Query.Commit" in text

    def test_rule_source_shows_the_generated_code(self, shell):
        sh, __ = shell
        sh.execute_line(".monitor outliers")
        sh.execute_line(".rules Duration_LAT_track --source")
        text = output_of(shell)
        assert "def insert(self, source, weight, now):" in text
        assert "-- dispatch program of query.commit over a query object " \
               "(Duration_LAT_track is rule 1)" in text
        assert "def dispatch(sqlcm, context, now, obs, governor):" in text
        sh.execute_line(".rules Duration_LAT_outliers --source")
        assert "def _condition(context, lat_rows):" in output_of(shell)
        sh.execute_line(".rules nope --source")
        assert "error: unknown rule 'nope'" in output_of(shell)

    def test_rule_source_is_the_program_the_shell_runs(self, shell):
        """The shell observes itself, so its rules run framed: the program
        it prints opens each rule's attribution frame, and is the one its
        dispatches ran."""
        sh, __ = shell
        sh.run_script(".monitor topk 2\n"
                      "CREATE TABLE t (a INT PRIMARY KEY);\n"
                      "INSERT INTO t VALUES (1);\n")
        rule = next(iter(sh.sqlcm.rules.values()))
        sh.execute_line(f".rules {rule.name} --source")
        assert "with obs.attrib('rule', name0):" in output_of(shell)
        (key, (__, program)), = [
            item for item in sh.sqlcm._dispatch_programs.items()
            if item[0][0] == "query.commit"]
        assert key[2] is True  # framed
        assert program[0].__source__ in output_of(shell)

    def test_checkpoint_attaches_then_checkpoints(self, shell, tmp_path):
        sh, __ = shell
        sh.run_script(
            ".monitor topk 2\n"
            f".checkpoint {tmp_path}\n"
            "CREATE TABLE t (a INT PRIMARY KEY);\n"
            "INSERT INTO t VALUES (1);\n")
        assert f"checkpoint generation 1 written to {tmp_path} (1 total;" \
            in output_of(shell)
        sh.execute_line(f".checkpoint {tmp_path}")
        assert "checkpoint generation 2 written" in output_of(shell)
        recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
        assert recovered.state_digest() == sh.sqlcm.state_digest()

    def test_queries_history(self, shell):
        sh, __ = shell
        sh.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY);"
            "INSERT INTO t VALUES (1);"
        )
        sh.execute_line(".queries")
        assert "INSERT INTO t" in output_of(shell)

    def test_unknown_meta(self, shell):
        sh, __ = shell
        sh.execute_line(".frobnicate")
        assert "unknown meta-command" in output_of(shell)

    def test_unknown_lat(self, shell):
        sh, __ = shell
        sh.execute_line(".lat Ghost")
        assert "error:" in output_of(shell)

    def test_outbox_empty(self, shell):
        sh, __ = shell
        sh.execute_line(".outbox")
        assert "(empty)" in output_of(shell)


class TestScriptParsing:
    def test_multiline_statement_joined(self, shell):
        sh, __ = shell
        sh.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY,\n"
            "                b FLOAT);\n"
            "INSERT INTO t\n"
            "VALUES (1, 2.0);\n"
            "SELECT COUNT(*) FROM t;"
        )
        assert "(1 rows)" in output_of(shell)

    def test_meta_flushes_pending_sql(self, shell):
        sh, __ = shell
        sh.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY);\n"
            "INSERT INTO t VALUES (7)\n"
            ".queries\n"
        )
        assert "INSERT INTO t" in output_of(shell)
