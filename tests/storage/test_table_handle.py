"""One heap handle per table: the page chain is walked at most once per
table per process (on the first insert after open), never per statement
or per row, and a point lookup costs the same on a long table as on a
short one."""

import pytest

from repro.database import Database
from repro.storage.btree import BPlusTree
from repro.storage.disk import NO_PAGE
from repro.storage.heapfile import HeapFile

from .faults import (
    CrashPoint, abandon, apply_statements, build_db, trace_ops,
)

#: 512-byte pages hold four 100-byte rows, so 1024 rows are 256 pages.
PAGE = 512
PAD = 100
ROWS_PER_PAGE = 4


def small_db(path=None):
    return Database(path, page_size=PAGE, buffer_capacity=64)


def make_table(db, rows=0):
    db.execute("CREATE TABLE t (id INT, pad BYTEARRAY)")
    db.execute("CREATE INDEX t_id ON t (id)")
    db.execute(f"INSERT INTO t VALUES (0, zerobytes({PAD}))")
    if rows > 1:
        db.insert_rows("t", [(i, bytes(PAD)) for i in range(1, rows)])
    return db.catalog.get_table("t")


def forbid_tail_walk(monkeypatch):
    """From here on, walking a heap chain to find its tail is a failure."""

    def refuse(self):
        raise AssertionError("heap chain walked to find its tail")

    monkeypatch.setattr(HeapFile, "_find_last_page", refuse)


def count_tail_walks(monkeypatch):
    walks = []
    original = HeapFile._find_last_page

    def counting(self):
        walks.append(self.first_page)
        return original(self)

    monkeypatch.setattr(HeapFile, "_find_last_page", counting)
    return walks


def fetches(db, sql):
    """(rows, buffer-pool fetches the statement made)."""
    before = db.pool.hits + db.pool.misses
    rows = db.query(sql)
    return rows, db.pool.hits + db.pool.misses - before


def tree_height(db, table):
    tree = BPlusTree(db.pool, table.indexes[0].root_page)
    node, height = tree._read(tree.root_page), 1
    while not node.is_leaf:
        node, height = tree._read(node.children[0]), height + 1
    return height


def mid_leaf_key(db, table):
    """A key in the middle of the middle leaf: its lookup ends inside
    that leaf instead of peeking at the next one for duplicates."""
    tree = BPlusTree(db.pool, table.indexes[0].root_page)
    __, node = tree._leftmost_leaf()
    leaves = [node]
    while node.next_leaf != NO_PAGE:
        node = tree._read(node.next_leaf)
        leaves.append(node)
    leaf = leaves[len(leaves) // 2]
    return leaf.keys[len(leaf.keys) // 2]


def ids_in_storage_order(table):
    from repro.storage.record import deserialize_record

    types = table.column_types()
    return [
        deserialize_record(record, types)[0]
        for __, record in table.heap.scan()
    ]


class TestNoChainWalkAfterOpen:
    def test_dml_and_selects_run_with_walking_forbidden(self, monkeypatch):
        db = small_db()
        table = make_table(db)
        forbid_tail_walk(monkeypatch)
        db.insert_rows("t", [(i, bytes(PAD)) for i in range(1, 200)])
        db.execute(f"INSERT INTO t VALUES (200, zerobytes({PAD}))")
        assert len(list(table.heap.pages())) == 201 // ROWS_PER_PAGE + 1
        # Growing row 0 past its page's free space moves it to the tail.
        db.execute("UPDATE t SET pad = zerobytes(300) WHERE id = 0")
        assert ids_in_storage_order(table)[-1] == 0
        assert db.query("SELECT id FROM t WHERE id = 0") == [(0,)]
        assert db.query(
            "SELECT id FROM t WHERE id >= 100 AND id < 104"
        ) == [(100,), (101,), (102,), (103,)]
        assert db.query("SELECT COUNT(*) FROM t") == [(201,)]
        db.close()

    @pytest.mark.parametrize("rows", [64, 1024])
    def test_point_lookup_costs_tree_height_plus_one(self, rows, monkeypatch):
        db = small_db()
        table = make_table(db, rows)
        forbid_tail_walk(monkeypatch)
        assert len(list(table.heap.pages())) == rows // ROWS_PER_PAGE
        key = mid_leaf_key(db, table)
        got, cost = fetches(db, f"SELECT id FROM t WHERE id = {key}")
        assert got == [(key,)]
        assert cost <= tree_height(db, table) + 1
        db.close()

    def test_drop_and_recreate_starts_a_fresh_chain(self, monkeypatch):
        db = small_db()
        old = make_table(db, 40)
        forbid_tail_walk(monkeypatch)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INT, pad BYTEARRAY)")
        db.execute(f"INSERT INTO t VALUES (7, zerobytes({PAD}))")
        new = db.catalog.get_table("t")
        assert new.heap is not old.heap
        assert len(list(new.heap.pages())) == 1
        assert db.query("SELECT id FROM t") == [(7,)]
        db.close()

    def test_snapshot_reads_see_every_insert(self, monkeypatch):
        db = small_db()
        make_table(db)
        db.snapshots.enable(db)
        forbid_tail_walk(monkeypatch)
        for i in range(1, 30):
            db.execute(f"INSERT INTO t VALUES ({i}, zerobytes({PAD}))")
            assert db.query("SELECT COUNT(*) FROM t") == [(i + 1,)]
            assert db.query(f"SELECT id FROM t WHERE id = {i}") == [(i,)]
        db.insert_rows("t", [(i, bytes(PAD)) for i in range(30, 90)])
        assert db.query("SELECT COUNT(*) FROM t") == [(90,)]
        assert db.query(
            "SELECT id FROM t WHERE id > 85 AND id <= 87"
        ) == [(86,), (87,)]
        db.close()


def reference_pages(n):
    """Chain length of a table that took ``n`` rows without a reopen."""
    db = small_db()
    table = make_table(db, n)
    pages = len(list(table.heap.pages()))
    db.close()
    return pages


class TestTailAfterReopen:
    def test_reopen_walks_once_and_appends_at_the_tail(
        self, db_path, monkeypatch
    ):
        db = small_db(db_path)
        make_table(db, 150)
        db.close()
        walks = count_tail_walks(monkeypatch)
        db = small_db(db_path)
        table = db.catalog.get_table("t")
        db.insert_rows("t", [(i, bytes(PAD)) for i in range(150, 250)])
        db.execute(f"INSERT INTO t VALUES (250, zerobytes({PAD}))")
        assert walks == [table.first_page]
        assert ids_in_storage_order(table) == list(range(251))
        assert len(list(table.heap.pages())) == reference_pages(251)
        db.close()

    def test_crash_recovery_appends_at_the_tail(self, tmp_path):
        pad = 900  # inline (below the LOB threshold): 8 rows per 8K page
        setup = ["CREATE TABLE t (id INT, pad BYTEARRAY)"] + [
            f"INSERT INTO t VALUES ({i}, zerobytes({pad}))" for i in range(20)
        ]
        statements = [
            f"INSERT INTO t VALUES ({i}, zerobytes({pad}))"
            for i in range(20, 60)
        ]
        writes = [
            at for at, (kind, __) in enumerate(
                trace_ops(str(tmp_path), setup, statements)
            ) if kind == "write"
        ]
        crash_dir = str(tmp_path / "crash")
        point = CrashPoint(writes[len(writes) // 2], "kill")
        db = build_db(crash_dir, setup, faults=point)
        point.armed = True
        acked, crashed = apply_statements(db, statements)
        assert crashed
        abandon(db)

        db = Database(crash_dir)
        committed = 20 + db.wal.recovered_statements - len(setup)
        assert committed >= 20 + acked
        for i in range(1000, 1010):
            db.execute(f"INSERT INTO t VALUES ({i}, zerobytes({pad}))")
        table = db.catalog.get_table("t")
        assert ids_in_storage_order(table) == (
            list(range(committed)) + list(range(1000, 1010))
        )
        pages = len(list(table.heap.pages()))
        db.close()

        reference = Database()
        reference.execute("CREATE TABLE t (id INT, pad BYTEARRAY)")
        reference.insert_rows(
            "t", [(i, bytes(pad)) for i in range(committed + 10)]
        )
        want = len(list(reference.catalog.get_table("t").heap.pages()))
        reference.close()
        assert pages == want
