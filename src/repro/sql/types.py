"""SQL-level schemas over the type table.

The types themselves are :class:`repro.types.SQLType`, one enum for
storage, SQL, the UDF boundary and the wire, whose facts live in
:data:`repro.types.TYPES`.  The paper's OR-DBMS setting gives them an
ADT flavour: BYTES (images, generic blobs) and FLOATARR (time series
like ``Stocks.history``) are first-class column types whose values can
be passed to UDFs, sliced via callbacks, and spilled to LOB storage when
large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import PlanError
from ..types import SQLType


def sql_type_from_name(name: str) -> SQLType:
    """The type a SQL spelling names, in any case."""
    try:
        return SQLType(name)
    except ValueError:
        raise PlanError(f"unknown SQL type {name!r}") from None


@dataclass(frozen=True)
class ColumnDef:
    """One column in CREATE TABLE."""

    name: str
    sql_type: SQLType
    nullable: bool = True


@dataclass(frozen=True)
class SchemaColumn:
    """One output column of an operator: qualified name + type."""

    table: Optional[str]  # alias (or table name); None for computed columns
    name: str
    sql_type: SQLType


class RowSchema:
    """Orders and resolves the columns a row carries at some plan node."""

    def __init__(self, columns: List[SchemaColumn]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        """Index of a column reference; ambiguity and misses raise."""
        matches = [
            index
            for index, column in enumerate(self.columns)
            if column.name.lower() == name.lower()
            and (
                table is None
                or (column.table or "").lower() == table.lower()
            )
        ]
        if not matches:
            qualified = f"{table}.{name}" if table else name
            raise PlanError(f"unknown column {qualified!r}")
        if len(matches) > 1:
            raise PlanError(f"ambiguous column reference {name!r}")
        return matches[0]

    def concat(self, other: "RowSchema") -> "RowSchema":
        return RowSchema(self.columns + other.columns)

    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    def types(self) -> List[SQLType]:
        return [column.sql_type for column in self.columns]


def schema_for_table(table_info, alias: Optional[str] = None) -> RowSchema:
    """Schema of a base-table scan (storage catalog -> SQL view)."""
    label = alias or table_info.name
    return RowSchema(
        [
            SchemaColumn(
                table=label,
                name=column.name,
                sql_type=column.col_type,
            )
            for column in table_info.columns
        ]
    )
