"""One write protocol for every database.

An in-memory ``Database()`` and a path-backed ``Database(path)`` run the
same tracked, commit-granular storage protocol; the WAL only logs it.
So one script leaves both with the same page count, free-list head and
free-list chain after every statement.
"""

from repro.database import Database

from .faults import check_free_list

SCRIPT = [
    "CREATE TABLE t (id INT, data BYTEARRAY)",
    "INSERT INTO t VALUES (1, zerobytes(5000))",
    "INSERT INTO t VALUES (2, zerobytes(3000))",
    "INSERT INTO t VALUES (3, zerobytes(10))",
    # Frees the old LOB pages and allocates the new ones in one
    # statement: the freed pages are reusable only after it.
    "UPDATE t SET data = zerobytes(6000) WHERE id = 1",
    "UPDATE t SET data = zerobytes(2000) WHERE id = 2",
    "DELETE FROM t WHERE id = 1",
    "DROP TABLE t",
    "CREATE TABLE t (id INT, data BYTEARRAY)",
    "INSERT INTO t VALUES (4, zerobytes(7000))",
    "INSERT INTO t VALUES (5, zerobytes(50))",
]


def storage_state(db):
    return db.disk.geometry(), check_free_list(db)


def test_memory_and_path_databases_keep_one_geometry(tmp_path):
    memory = Database(page_size=1024)
    disk = Database(str(tmp_path / "db"), page_size=1024)
    try:
        for sql in SCRIPT:
            memory.execute(sql)
            disk.execute(sql)
            assert storage_state(memory) == storage_state(disk), sql
        assert memory.query("SELECT id FROM t") == [(4,), (5,)]
        assert disk.query("SELECT id FROM t") == [(4,), (5,)]
    finally:
        memory.close()
        disk.close()
