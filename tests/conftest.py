"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import DatabaseServer, ServerConfig, SQLCM
from repro.workloads.tpch import TPCHConfig, setup_tpch

# tier-1 is a fixed function of the tree: examples derive from each test's
# source, and no on-disk example database feeds runs into one another.  The
# randomised CI job overrides this with ``--hypothesis-profile=default``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def server() -> DatabaseServer:
    """A fresh server tracking completed queries (handy for assertions)."""
    return DatabaseServer(ServerConfig(track_completed_queries=True))


@pytest.fixture
def session(server):
    return server.create_session(user="tester", application="tests")


@pytest.fixture
def items_server(server):
    """Server with a small 'items' table loaded."""
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, "
        "name VARCHAR(30), price FLOAT, qty INT, segment VARCHAR(10))"
    )
    loader = server.create_session()
    loader.execute(
        "INSERT INTO items (id, name, price, qty, segment) VALUES "
        "(1, 'apple', 1.5, 10, 'fruit'), "
        "(2, 'pear', 2.0, 5, 'fruit'), "
        "(3, 'plum', 0.5, 40, 'fruit'), "
        "(4, 'hammer', 9.5, 3, 'tools'), "
        "(5, 'wrench', 7.25, 8, 'tools'), "
        "(6, 'nail', 0.05, 500, 'tools')"
    )
    return server


@pytest.fixture
def sqlcm(server) -> SQLCM:
    return SQLCM(server)


@pytest.fixture(scope="session")
def tiny_tpch_config() -> TPCHConfig:
    return TPCHConfig().scaled(0.02)  # ~1200 lineitem rows


@pytest.fixture
def tpch_server(tiny_tpch_config):
    """Server with a tiny TPC-H dataset loaded (fresh per test)."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    counts = setup_tpch(server, tiny_tpch_config)
    server.tpch_counts = counts  # type: ignore[attr-defined]
    return server
