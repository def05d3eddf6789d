"""Large-object lifecycle through SQL DML (spill, free, update)."""

import pytest

from repro.database import Database
from repro.storage.lob import LOBRef
from repro.storage.record import deserialize_record


@pytest.fixture
def small_threshold_db():
    # Tiny threshold so spills are easy to trigger.
    database = Database(lob_threshold=64)
    database.execute("CREATE TABLE t (id INT, blob BYTEARRAY)")
    yield database
    database.close()


def stored_value(db, table_name, row_id):
    table = db.catalog.get_table(table_name)
    for __, record in table.heap.scan():
        row = deserialize_record(record, table.column_types())
        if row[0] == row_id:
            return row[1]
    raise AssertionError(f"row {row_id} not found")


class TestSpill:
    def test_small_value_stays_inline(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(10))")
        assert isinstance(stored_value(db, "t", 1), bytes)

    def test_large_value_spills(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(1000))")
        ref = stored_value(db, "t", 1)
        assert isinstance(ref, LOBRef)
        assert ref.length == 1000
        assert db.lobs.read(ref) == bytes(1000)

    def test_length_on_lob_without_materializing(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(5000))")
        assert db.execute("SELECT length(blob) FROM t").scalar() == 5000


class TestLifecycle:
    def test_delete_frees_lob_pages(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(50000))")
        pages_after_insert = db.disk.num_pages
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("INSERT INTO t VALUES (2, zerobytes(50000))")
        # The freed chain was reused: no significant growth.
        assert db.disk.num_pages <= pages_after_insert + 2

    def test_update_replaces_lob(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(2000))")
        old_ref = stored_value(db, "t", 1)
        db.execute("UPDATE t SET blob = patbytes(3000, 9) WHERE id = 1")
        new_ref = stored_value(db, "t", 1)
        assert isinstance(new_ref, LOBRef)
        assert new_ref.length == 3000
        assert new_ref.first_page != old_ref.first_page or True
        from repro.sql.expressions import _patbytes

        assert db.lobs.read(new_ref) == _patbytes(3000, 9)

    def test_update_shrinks_to_inline(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, zerobytes(2000))")
        db.execute("UPDATE t SET blob = zerobytes(8) WHERE id = 1")
        assert isinstance(stored_value(db, "t", 1), bytes)

    def test_drop_table_frees_lobs(self, small_threshold_db):
        db = small_threshold_db
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, zerobytes(20000))")
        pages_full = db.disk.num_pages
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t2 (id INT, blob BYTEARRAY)")
        for i in range(5):
            db.execute(f"INSERT INTO t2 VALUES ({i}, zerobytes(20000))")
        assert db.disk.num_pages <= pages_full + 3


class TestUDFOverLobs:
    def test_by_value_udf_reads_lob(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, patbytes(4000, 2))")
        db.execute(
            "CREATE FUNCTION total(bytes) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS "
            "'def total(d: bytes) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(len(d)):\n"
            "        s = s + d[i]\n"
            "    return s'"
        )
        from repro.sql.expressions import _patbytes

        assert db.execute(
            "SELECT total(blob) FROM t"
        ).scalar() == sum(_patbytes(4000, 2))

    def test_handle_udf_range_reads_lob(self, small_threshold_db):
        db = small_threshold_db
        db.execute("INSERT INTO t VALUES (1, patbytes(4000, 2))")
        db.execute(
            "CREATE FUNCTION head(handle) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_lob_read' AS "
            "'def head(h: int) -> int:\n"
            "    chunk: bytes = cb_lob_read(h, 0, 10)\n"
            "    s: int = 0\n"
            "    for i in range(len(chunk)):\n"
            "        s = s + chunk[i]\n"
            "    return s'"
        )
        from repro.sql.expressions import _patbytes

        assert db.execute(
            "SELECT head(blob) FROM t"
        ).scalar() == sum(_patbytes(4000, 2)[:10])
