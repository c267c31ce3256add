"""Tests for catalog schema objects."""

import pytest

from repro.engine.catalog import (Catalog, ColumnDef, IndexDef, ProcedureDef,
                                  TableSchema)
from repro.engine.types import SQLType
from repro.errors import BindError, CatalogError


def _schema(name="t"):
    return TableSchema(name, [
        ColumnDef("id", SQLType.INTEGER, nullable=False),
        ColumnDef("name", SQLType.STRING),
        ColumnDef("price", SQLType.FLOAT),
    ], primary_key=["id"])


class TestTableSchema:
    def test_column_lookup_case_insensitive(self):
        schema = _schema()
        assert schema.column_index("ID") == 0
        assert schema.column_index("Name") == 1
        assert schema.column("PRICE").sql_type is SQLType.FLOAT

    def test_unknown_column_raises_bind_error(self):
        with pytest.raises(BindError):
            _schema().column_index("missing")

    def test_primary_key_creates_clustered_index(self):
        schema = _schema()
        assert "pk_t" in schema.indexes
        index = schema.indexes["pk_t"]
        assert index.clustered and index.unique
        assert index.columns == ("id",)

    def test_no_primary_key_no_index(self):
        schema = TableSchema("x", [ColumnDef("a", SQLType.INTEGER)])
        assert schema.indexes == {}

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("x", [
                ColumnDef("a", SQLType.INTEGER),
                ColumnDef("A", SQLType.FLOAT),
            ])

    def test_empty_table_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("x", [])

    def test_pk_over_unknown_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("x", [ColumnDef("a", SQLType.INTEGER)],
                        primary_key=["b"])

    def test_invalid_column_name_rejected(self):
        with pytest.raises(CatalogError):
            ColumnDef("not a name", SQLType.INTEGER)

    def test_add_index_validates_columns(self):
        schema = _schema()
        with pytest.raises(BindError):
            schema.add_index(IndexDef("ix", "t", ("missing",)))

    def test_duplicate_index_name_rejected(self):
        schema = _schema()
        schema.add_index(IndexDef("ix", "t", ("name",)))
        with pytest.raises(CatalogError):
            schema.add_index(IndexDef("ix", "t", ("price",)))

    def test_index_on_matches_leading_columns(self):
        schema = _schema()
        schema.add_index(IndexDef("ix2", "t", ("name", "price")))
        assert schema.index_on(("name",)).name == "ix2"
        assert schema.index_on(("price",)) is None

    def test_index_needs_columns(self):
        with pytest.raises(CatalogError):
            IndexDef("bad", "t", ())


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(_schema())
        assert catalog.has_table("T")
        assert catalog.table("t").name == "t"

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table(_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(_schema())

    def test_unknown_table_raises(self):
        with pytest.raises(BindError):
            Catalog().table("nope")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table(_schema())
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_procedures(self):
        catalog = Catalog()
        catalog.create_procedure(ProcedureDef("p", ("x",), ["SELECT 1"]))
        assert catalog.procedure("P").params == ("x",)
        with pytest.raises(CatalogError):
            catalog.create_procedure(ProcedureDef("p", (), []))
        with pytest.raises(BindError):
            catalog.procedure("missing")
