"""Schema objects (columns, tables, indexes) and the system catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.types import SQLType
from repro.errors import BindError, CatalogError


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table schema."""

    name: str
    sql_type: SQLType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class IndexDef:
    """A (clustered or secondary) index over one or more columns."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    clustered: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError(f"index {self.name!r} must have at least one column")


class TableSchema:
    """Column layout, primary key, and indexes of one table."""

    def __init__(self, name: str, columns: Iterable[ColumnDef],
                 primary_key: Iterable[str] | None = None):
        self.name = name
        self.columns: tuple[ColumnDef, ...] = tuple(columns)
        if not self.columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self._by_name = {c.name.lower(): i for i, c in enumerate(self.columns)}
        if len(self._by_name) != len(self.columns):
            raise CatalogError(f"table {name!r} has duplicate column names")
        self.primary_key: tuple[str, ...] = tuple(primary_key or ())
        for col in self.primary_key:
            if col.lower() not in self._by_name:
                raise CatalogError(
                    f"primary key column {col!r} not in table {name!r}"
                )
        self.indexes: dict[str, IndexDef] = {}
        if self.primary_key:
            pk_index = IndexDef(
                name=f"pk_{name}",
                table=name,
                columns=self.primary_key,
                unique=True,
                clustered=True,
            )
            self.indexes[pk_index.name] = pk_index

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Ordinal position of a column (case-insensitive)."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise BindError(
                f"unknown column {name!r} in table {self.name!r}"
            ) from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def add_index(self, index: IndexDef) -> None:
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        for col in index.columns:
            self.column_index(col)  # raises BindError on unknown column
        self.indexes[index.name] = index

    def index_on(self, columns: tuple[str, ...]) -> IndexDef | None:
        """Find an index whose leading columns match ``columns`` exactly."""
        wanted = tuple(c.lower() for c in columns)
        for index in self.indexes.values():
            leading = tuple(c.lower() for c in index.columns[: len(wanted)])
            if leading == wanted:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"TableSchema({self.name!r}, {len(self.columns)} cols)"


@dataclass
class ProcedureDef:
    """A stored procedure: named, parameterized body of statements.

    ``body`` is a list of *steps*; each step is either a SQL string (possibly
    containing ``@param`` references) or an ``IfStep`` choosing between two
    branches based on a predicate over the parameter values.  This mirrors
    the paper's ``IF Condition THEN A ELSE B`` stored-procedure example that
    motivates transaction signatures.
    """

    name: str
    params: tuple[str, ...]
    body: list[Any] = field(default_factory=list)


@dataclass
class IfStep:
    """A conditional step inside a stored procedure body."""

    predicate: Any  # Callable[[dict], bool]
    then_branch: list[Any]
    else_branch: list[Any] = field(default_factory=list)


class Catalog:
    """System catalog: all table schemas and stored procedures."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._procedures: dict[str, ProcedureDef] = {}

    # -- tables -----------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableSchema:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema
        return schema

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name.lower()]

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise BindError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[TableSchema]:
        return list(self._tables.values())

    # -- stored procedures --------------------------------------------------

    def create_procedure(self, proc: ProcedureDef) -> ProcedureDef:
        key = proc.name.lower()
        if key in self._procedures:
            raise CatalogError(f"procedure {proc.name!r} already exists")
        self._procedures[key] = proc
        return proc

    def procedure(self, name: str) -> ProcedureDef:
        try:
            return self._procedures[name.lower()]
        except KeyError:
            raise BindError(f"unknown procedure {name!r}") from None

    def has_procedure(self, name: str) -> bool:
        return name.lower() in self._procedures
