"""Index-bound intersection: every range conjunct on the chosen index
narrows one B+-tree scan, so a lookup reads only the heap pages of the
rows it returns, whatever the table's length.  UPDATE and DELETE find
their rows through the same scan."""

import random
import sqlite3

import pytest

from repro.database import Database
from repro.storage.btree import BPlusTree

#: 512-byte pages hold four 100-byte rows: 1024 rows are 256 heap pages.
ROWS = 1024


def build(ids=range(ROWS), indexed=("id", "v")):
    database = Database(page_size=512, buffer_capacity=64)
    database.execute("CREATE TABLE t (id INT, v INT, pad BYTEARRAY)")
    for column in indexed:
        database.execute(f"CREATE INDEX t_{column} ON t ({column})")
    database.insert_rows("t", [(i, i % 10, bytes(100)) for i in ids])
    return database


@pytest.fixture(scope="module")
def db():
    database = build()
    yield database
    database.close()


def height(db):
    tree = BPlusTree(db.pool, db.catalog.get_table("t").indexes[0].root_page)
    node, levels = tree._read(tree.root_page), 1
    while not node.is_leaf:
        node, levels = tree._read(node.children[0]), levels + 1
    return levels


def run(db, where):
    """(EXPLAIN lines of the scan, rows, buffer-pool fetches)."""
    sql = f"SELECT id FROM t WHERE {where}"
    plan = [line.strip() for (line,) in db.query("EXPLAIN " + sql)][1:]
    before = db.pool.hits + db.pool.misses
    rows = [row[0] for row in db.query(sql)]
    return plan, rows, db.pool.hits + db.pool.misses - before


def within(db, fetches, rows):
    # One heap fetch per row; the tree descent plus at most two more
    # leaves for a range this short (one it crosses into, one read to
    # rule out duplicates of the upper bound).
    return fetches <= len(rows) + height(db) + 2


@pytest.mark.parametrize(
    "where, bounds, want",
    [
        ("id >= 500 AND id < 508", "[500..507]", range(500, 508)),
        ("5 < id AND 12 >= id", "[6..12]", range(6, 13)),
        ("id BETWEEN 700 AND 720 AND id < 705", "[700..704]",
         range(700, 705)),
        ("id > 900 AND id >= 898 AND id <= 903 AND id < 1000",
         "[901..903]", range(901, 904)),
    ],
)
def test_bounds_intersect_into_one_index_scan(db, where, bounds, want):
    plan, rows, fetches = run(db, where)
    assert plan == [f"IndexScan t AS t USING t_id {bounds} [batch=64]"]
    assert rows == list(want)
    assert within(db, fetches, rows)


def test_contradictory_bounds_read_no_page(db):
    plan, rows, fetches = run(db, "id > 9 AND id < 3")
    assert plan == ["IndexScan t AS t USING t_id [10..2] [batch=64]"]
    assert rows == []
    assert fetches == 0


def test_other_indexed_column_stays_residual(db):
    plan, rows, fetches = run(db, "id >= 100 AND id < 120 AND v > 7")
    assert plan == [
        "IndexScan t AS t USING t_id [100..119] [batch=64]",
        "filter[0]: (t.v > 7)",
    ]
    assert rows == [108, 109, 118, 119]
    # The residual filters rows the index already fetched.
    assert within(db, fetches, range(20))


OPS = ("=", "<", "<=", ">", ">=")


def conjunct(rng, column, high):
    low = -3
    if rng.random() < 0.2:
        a = rng.randint(low, high)
        b = a + rng.randint(-3, high // 20 + 3)
        return f"{column} BETWEEN {a} AND {b}"
    op = rng.choice(OPS)
    value = rng.randint(low, high)
    if rng.random() < 0.3:  # literal first
        return f"{value} {op} {column}"
    return f"{column} {op} {value}"


def fetched(db, sql):
    """(rowcount, buffer-pool fetches) of one statement."""
    before = db.pool.hits + db.pool.misses
    rowcount = db.execute(sql).rowcount
    return rowcount, db.pool.hits + db.pool.misses - before


def test_point_update_reads_the_path_to_its_row():
    """The index descent, the row's page to read it and again to write
    it; no index entry changes, and the table's length does not count."""
    counts = []
    for rows in (ROWS, 4 * ROWS):
        database = build(range(rows))
        try:
            rowcount, fetches = fetched(
                database, "UPDATE t SET pad = zerobytes(100) WHERE id = 500"
            )
            assert rowcount == 1
            assert fetches <= height(database) + 2
            counts.append(fetches)
        finally:
            database.close()
    assert counts[0] == counts[1]


def test_point_delete_reads_the_same_for_a_longer_table():
    counts = []
    for rows in (ROWS, 4 * ROWS):
        database = build(range(rows), indexed=("id",))
        try:
            counts.append(fetched(database, "DELETE FROM t WHERE id = 500"))
            assert database.query(
                "SELECT count(*) FROM t WHERE id >= 499 AND id <= 501"
            ) == [(2,)]
        finally:
            database.close()
    assert counts[0][0] == 1
    assert counts[0] == counts[1]


def test_update_moves_keys_ahead_of_its_index_scan_once():
    """Halloween protection: a row whose new key lands further along the
    range the index scan walks is not met, and updated, again."""
    database = build()
    try:
        assert database.execute(
            "UPDATE t SET id = id + 1000 WHERE id >= 500 AND id < 2000"
        ).rowcount == ROWS - 500
        assert sorted(row[0] for row in database.query("SELECT id FROM t")) \
            == list(range(500)) + list(range(1500, ROWS + 1000))
    finally:
        database.close()


def test_random_bounds_match_sqlite(db):
    """Each random WHERE, as a SELECT on the shared table and as
    UPDATEs (moving records and keys) and a DELETE on a second one,
    gives what sqlite3 gives."""
    rng = random.Random(20261015)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INT, v INT)")
    oracle.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 10) for i in range(ROWS)]
    )
    target = mirror = None

    def write(engine_sql, sqlite_sql):
        want = mirror.execute(sqlite_sql).rowcount
        assert target.execute(engine_sql).rowcount == want, engine_sql
        table = "SELECT id, v, {} FROM t ORDER BY id"
        assert target.query(table.format("length(pad)")) == list(
            mirror.execute(table.format("n"))
        ), engine_sql

    for step in range(150):
        if step % 30 == 0:
            # An insert only appends, so putting back what each DELETE
            # removed grows the heap: start the written table over.  It
            # holds every fourth id, which keeps each write small.
            if target is not None:
                target.close()
            ids = range(0, ROWS + 4, 4)
            target = build(ids)
            mirror = sqlite3.connect(":memory:")
            mirror.execute("CREATE TABLE t (id INT, v INT, n INT)")
            mirror.executemany(
                "INSERT INTO t VALUES (?, ?, 100)", [(i, i % 10) for i in ids]
            )
        parts = [
            conjunct(rng, "id", ROWS + 3)
            for __ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.3:
            parts.append(conjunct(rng, "v", 12))
        rng.shuffle(parts)
        where = " AND ".join(parts)
        sql = f"SELECT id FROM t WHERE {where}"
        want = sorted(row[0] for row in oracle.execute(sql))
        plan, got, __ = run(db, where)
        assert plan[0].startswith("IndexScan"), where
        assert sorted(got) == want, where

        # A record that grows moves: its id entry keeps the key and
        # takes the new RID, while its v entry changes key.
        size = (50, 100, 150)[step % 3]
        write(
            f"UPDATE t SET v = 9 - v, pad = zerobytes({size}) WHERE {where}",
            f"UPDATE t SET v = 9 - v, n = {size} WHERE {where}",
        )
        # Moving keys along the index the scan walks (Halloween).
        shift = f"UPDATE t SET id = id + 2000 WHERE {where}"
        write(shift, shift)
        restore = "UPDATE t SET id = id - 2000 WHERE id >= 2000"
        write(restore, restore)
        gone = mirror.execute(
            f"SELECT id, v, n FROM t WHERE {where}"
        ).fetchall()
        write(f"DELETE FROM t WHERE {where}", f"DELETE FROM t WHERE {where}")
        target.insert_rows("t", [(i, v, bytes(n)) for i, v, n in gone])
        mirror.executemany("INSERT INTO t VALUES (?, ?, ?)", gone)
    target.close()
