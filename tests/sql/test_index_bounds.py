"""Index-bound intersection: every range conjunct on the chosen index
narrows one B+-tree scan, so a lookup reads only the heap pages of the
rows it returns, whatever the table's length."""

import random
import sqlite3

import pytest

from repro.database import Database
from repro.storage.btree import BPlusTree

#: 512-byte pages hold four 100-byte rows: 1024 rows are 256 heap pages.
ROWS = 1024


@pytest.fixture(scope="module")
def db():
    database = Database(page_size=512, buffer_capacity=64)
    database.execute("CREATE TABLE t (id INT, v INT, pad BYTEARRAY)")
    database.execute("CREATE INDEX t_id ON t (id)")
    database.execute("CREATE INDEX t_v ON t (v)")
    database.insert_rows(
        "t", [(i, i % 10, bytes(100)) for i in range(ROWS)]
    )
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


def test_random_bounds_match_sqlite(db):
    rng = random.Random(20261015)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INT, v INT)")
    oracle.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, i % 10) for i in range(ROWS)]
    )
    for __ in range(150):
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
