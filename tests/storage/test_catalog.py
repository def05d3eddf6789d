"""System catalog: CRUD and persistence."""

import os

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import (
    Catalog,
    Column,
    IndexInfo,
    TableInfo,
    UDFInfo,
)
from repro.types import SQLType


def sample_table(name="t"):
    return TableInfo(
        name=name,
        columns=[
            Column("id", SQLType.INT, nullable=False),
            Column("data", SQLType.BYTES),
        ],
        first_page=3,
        indexes=[IndexInfo("t_id", "id", 9)],
    )


def sample_udf(name="f"):
    return UDFInfo(
        name=name,
        language="jaguar",
        design="sandbox_jit",
        entry="f",
        payload=b"def f(x: int) -> int:\n    return x",
        param_types=["int"],
        ret_type="int",
        callbacks=["cb_noop"],
    )


class TestTables:
    def test_add_get(self):
        catalog = Catalog()
        catalog.add_table(sample_table())
        table = catalog.get_table("T")  # case-insensitive
        assert table.columns[0].name == "id"
        assert table.column_index("data") == 1

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add_table(sample_table())
        with pytest.raises(CatalogError, match="already exists"):
            catalog.add_table(sample_table())

    def test_unknown_raises(self):
        with pytest.raises(CatalogError, match="unknown table"):
            Catalog().get_table("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.add_table(sample_table())
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_unknown_column(self):
        with pytest.raises(CatalogError, match="no column"):
            sample_table().column_index("ghost")


class TestUDFs:
    def test_add_get_drop(self):
        catalog = Catalog()
        catalog.add_udf(sample_udf())
        assert catalog.get_udf("F").design == "sandbox_jit"
        catalog.drop_udf("f")
        assert not catalog.has_udf("f")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add_udf(sample_udf())
        with pytest.raises(CatalogError):
            catalog.add_udf(sample_udf())


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        catalog = Catalog(path)
        catalog.add_table(sample_table())
        catalog.add_udf(sample_udf())
        catalog.save()

        reloaded = Catalog(path)
        table = reloaded.get_table("t")
        assert [c.name for c in table.columns] == ["id", "data"]
        assert table.columns[0].col_type is SQLType.INT
        assert not table.columns[0].nullable
        assert table.indexes[0].root_page == 9
        udf = reloaded.get_udf("f")
        assert udf.payload == sample_udf().payload
        assert udf.callbacks == ["cb_noop"]

    def test_save_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        catalog = Catalog(path)
        catalog.add_table(sample_table("a"))
        catalog.save()
        catalog.add_table(sample_table("b"))
        catalog.save()
        assert not os.path.exists(path + ".tmp")
        assert Catalog(path).has_table("b")

    def test_changes_notify_and_leave_the_file_alone(self, tmp_path):
        """DDL marks the running statement catalog-dirty through
        ``on_change``; only ``save`` (a checkpoint) writes the file."""
        path = str(tmp_path / "catalog.json")
        notes = []
        catalog = Catalog(path, on_change=lambda: notes.append(1))
        catalog.add_table(sample_table())
        catalog.add_udf(sample_udf())
        catalog.drop_udf("f")
        catalog.drop_table("t")
        assert len(notes) == 4
        assert not os.path.exists(path)
        catalog.save()
        assert os.path.exists(path)
        assert len(notes) == 4

    def test_memory_catalog_never_touches_disk(self):
        catalog = Catalog(None)
        catalog.add_table(sample_table())
        catalog.save()  # no-op, no error
