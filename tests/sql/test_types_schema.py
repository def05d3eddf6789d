"""SQL type mapping and row-schema resolution."""

import pytest

from repro.errors import PlanError
from repro.sql.types import (
    RowSchema,
    SchemaColumn,
    SQLType,
    schema_for_table,
    sql_type_from_name,
)
from repro.storage.catalog import Column, TableInfo


class TestTypeNames:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("INT", SQLType.INT),
            ("integer", SQLType.INT),
            ("BIGINT", SQLType.INT),
            ("double", SQLType.FLOAT),
            ("REAL", SQLType.FLOAT),
            ("Boolean", SQLType.BOOL),
            ("varchar", SQLType.STRING),
            ("TEXT", SQLType.STRING),
            ("bytea", SQLType.BYTES),
            ("BLOB", SQLType.BYTES),
            ("TimeSeries", SQLType.FLOATARR),
            ("floatarray", SQLType.FLOATARR),
        ],
    )
    def test_accepted_spellings(self, name, expected):
        assert sql_type_from_name(name) is expected

    def test_unknown_rejected(self):
        with pytest.raises(PlanError):
            sql_type_from_name("quaternion")


class TestRowSchema:
    def make(self):
        return RowSchema(
            [
                SchemaColumn("t", "a", SQLType.INT),
                SchemaColumn("t", "b", SQLType.STRING),
                SchemaColumn("u", "a", SQLType.FLOAT),
            ]
        )

    def test_qualified_resolution(self):
        schema = self.make()
        assert schema.resolve("a", "t") == 0
        assert schema.resolve("a", "u") == 2
        assert schema.resolve("A", "T") == 0  # case-insensitive

    def test_unqualified_unique(self):
        assert self.make().resolve("b") == 1

    def test_unqualified_ambiguous(self):
        with pytest.raises(PlanError, match="ambiguous"):
            self.make().resolve("a")

    def test_missing(self):
        with pytest.raises(PlanError, match="unknown column"):
            self.make().resolve("zzz")
        with pytest.raises(PlanError, match="unknown column"):
            self.make().resolve("b", "u")

    def test_concat(self):
        left = RowSchema([SchemaColumn("l", "x", SQLType.INT)])
        right = RowSchema([SchemaColumn("r", "y", SQLType.INT)])
        combined = left.concat(right)
        assert combined.names() == ["x", "y"]
        assert combined.resolve("y") == 1

    def test_names_types(self):
        schema = self.make()
        assert schema.names() == ["a", "b", "a"]
        assert schema.types() == [SQLType.INT, SQLType.STRING, SQLType.FLOAT]


class TestSchemaForTable:
    def test_alias_labels_columns(self):
        table = TableInfo(
            name="stocks",
            columns=[Column("id", SQLType.INT),
                     Column("hist", SQLType.FLOATARR)],
            first_page=2,
        )
        schema = schema_for_table(table, alias="s")
        assert schema.resolve("id", "s") == 0
        with pytest.raises(PlanError):
            schema.resolve("id", "stocks")  # alias replaces the name
        assert schema.columns[1].sql_type is SQLType.FLOATARR
