"""MVCC-lite snapshot store: versions, copy-on-write installs, GC, and
snapshot index scans over the frozen B+-tree."""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import StorageError
from repro.sql.parser import parse_statement
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.mvcc import SnapshotManager
from repro.storage.page import copy_record
from repro.storage.record import RecordCodec


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT, v FLOAT)")
    database.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, NULL)")
    yield database
    database.close()


def enabled(db):
    db.snapshots.enable(db)
    return db.snapshots


def row_count(image):
    return sum(len(rows) for rows in image.heap.scan_rows(copy_record))


class TestLifecycle:
    def test_disabled_pin_raises(self, db):
        with pytest.raises(StorageError):
            db.snapshots.pin()

    def test_disabled_install_is_noop(self, db):
        db.execute("INSERT INTO t VALUES (4, 4.0)")
        assert db.snapshots.stats()["installs"] == 0
        assert db.snapshots.version_of("t") == 0

    def test_enable_builds_initial_images(self, db):
        manager = enabled(db)
        assert manager.version_of("t") == 1
        with manager.pin() as snapshot:
            image = snapshot.image_for("t")
            assert image is not None
            assert row_count(image) == 3

    def test_enable_is_idempotent(self, db):
        manager = enabled(db)
        manager.enable(db)
        assert manager.version_of("t") == 1


class TestWriterInstalls:
    def test_write_bumps_version(self, db):
        manager = enabled(db)
        db.execute("INSERT INTO t VALUES (4, 4.0)")
        assert manager.version_of("t") == 2
        db.execute("UPDATE t SET v = 9.0 WHERE id = 1")
        assert manager.version_of("t") == 3
        db.execute("DELETE FROM t WHERE id = 2")
        assert manager.version_of("t") == 4

    def test_create_table_installs_image(self, db):
        manager = enabled(db)
        db.execute("CREATE TABLE u (a INT)")
        assert manager.version_of("u") == 1

    def test_drop_table_forgets(self, db):
        manager = enabled(db)
        db.execute("DROP TABLE t")
        assert manager.version_of("t") == 0

    def test_unchanged_pages_shared_by_reference(self, db):
        manager = enabled(db)
        # Grow the table onto several pages, reinstalling each time;
        # only the tail page mutates, so earlier pages must be reused.
        db.insert_rows(
            "t", [(100 + i, float(i)) for i in range(2000)]
        )
        before = manager.stats()
        db.execute("INSERT INTO t VALUES (9999, 9.0)")
        after = manager.stats()
        assert after["installs"] == before["installs"] + 1
        assert after["pages_reused"] > before["pages_reused"]
        # The append dirtied one page (maybe two across a boundary).
        assert after["pages_copied"] - before["pages_copied"] <= 2

    def test_programmatic_insert_rows_installs(self, db):
        manager = enabled(db)
        db.insert_rows("t", [(10, 1.0), (11, 2.0)])
        assert manager.version_of("t") == 2


class TestSnapshotIsolation:
    def test_pinned_snapshot_ignores_later_writes(self, db):
        manager = enabled(db)
        snapshot = manager.pin()
        db.execute("INSERT INTO t VALUES (4, 4.0)")
        db.execute("UPDATE t SET v = 0.0 WHERE id = 1")
        image = snapshot.image_for("t")
        assert row_count(image) == 3  # still the old rows
        assert snapshot.versions()["t"] == 1
        snapshot.release()
        with manager.pin() as fresh:
            assert row_count(fresh.image_for("t")) == 4

    def test_retired_image_retained_while_pinned_then_dropped(self, db):
        manager = enabled(db)
        snapshot = manager.pin()
        db.execute("INSERT INTO t VALUES (4, 4.0)")
        assert manager.retained_count() == 1
        snapshot.release()
        assert manager.retained_count() == 0

    def test_release_is_idempotent(self, db):
        manager = enabled(db)
        snapshot = manager.pin()
        snapshot.release()
        snapshot.release()
        assert manager.retained_count() == 0

    def test_current_image_survives_unpinned(self, db):
        manager = enabled(db)
        with manager.pin():
            pass
        # The current image is kept regardless of pins.
        with manager.pin() as snapshot:
            assert snapshot.image_for("t") is not None

    def test_table_created_after_pin_reads_live(self, db):
        manager = enabled(db)
        snapshot = manager.pin()
        db.execute("CREATE TABLE late (a INT)")
        assert snapshot.image_for("late") is None
        snapshot.release()


class TestSnapshotQueries:
    """A snapshot-enabled database answers every statement exactly as a
    plain one does: reads come from pinned images instead of live pages,
    and nothing else about the result changes."""

    STATEMENTS = [
        "SELECT id, v FROM t WHERE id >= 2 ORDER BY id",
        "CREATE INDEX idx_t_id ON t (id)",
        "SELECT id FROM t WHERE id >= 2 ORDER BY id",
        "INSERT INTO t VALUES (4, 4.0)",
        "SELECT count(*) FROM t",
        "UPDATE t SET v = 9.0 WHERE id <= 2",
        "DELETE FROM t WHERE id = 3",
        "SELECT id, v FROM t WHERE id >= 2 ORDER BY id",
    ]

    def test_snapshot_database_equals_plain_database(self, db):
        plain = Database()
        try:
            plain.execute("CREATE TABLE t (id INT, v FLOAT)")
            plain.execute(
                "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, NULL)"
            )
            manager = enabled(db)
            for sql in self.STATEMENTS:
                got, want = db.execute(sql), plain.execute(sql)
                assert (got.columns, got.rows, got.rowcount) == (
                    want.columns, want.rows, want.rowcount
                ), sql
            # The reads really were snapshot reads, and all were released.
            assert manager.stats()["snapshots_pinned"] == 4
            assert manager.retained_count() == 0
        finally:
            plain.close()


def facts_db(rows, page_size=4096, key=lambda i: i):
    """A table ``f(id, qty)`` of ``rows`` rows, not indexed yet."""
    db = Database(page_size=page_size)
    db.execute("CREATE TABLE f (id INT, qty INT)")
    db.insert_rows("f", [(key(i), i % 7) for i in range(rows)])
    return db


def indexed_db(rows, page_size=4096, key=lambda i: i):
    """:func:`facts_db` with an index on ``id``."""
    db = facts_db(rows, page_size, key)
    db.execute("CREATE INDEX f_id ON f (id)")
    return db


class TestSnapshotIndexScan:
    """A snapshot index scan walks the frozen tree: it decodes only the
    rows it returns and never fetches a live frame."""

    @pytest.mark.parametrize("sql, returned", [
        ("SELECT qty FROM f WHERE id = 321", 1),
        ("SELECT qty FROM f WHERE id >= 100 AND id < 124", 24),
        ("SELECT qty FROM f WHERE id BETWEEN 10 AND 19", 10),
        ("SELECT qty FROM f WHERE id > 50 AND id < 40", 0),
    ], ids=["point", "range", "between", "empty"])
    def test_decodes_only_returned_rows(self, monkeypatch, sql, returned):
        db = indexed_db(600)
        enabled(db)
        assert "IndexScan" in db.query("EXPLAIN " + sql)[-1][0]
        decoded = []
        decode = RecordCodec.decode

        def counting(self, *args):
            decoded.append(args)
            return decode(self, *args)

        def no_live_frame(*args):
            raise AssertionError("a snapshot read fetched a live frame")

        monkeypatch.setattr(RecordCodec, "decode", counting)
        monkeypatch.setattr(BufferPool, "fetch", no_live_frame)
        assert len(db.query(sql)) == returned
        assert len(decoded) == returned
        monkeypatch.undo()
        db.close()

    def test_image_pages_are_read_only(self, db):
        db.execute("CREATE INDEX idx_t_id ON t (id)")
        with enabled(db).pin() as snapshot:
            image = snapshot.image_for("t")
            index = db.catalog.get_table("t").indexes[0]
            tree = BPlusTree(image, image.root_of(index))
            assert tree.search(2) == BPlusTree(
                db.pool, index.root_page
            ).search(2)
            frozen = dict(image.pages)
            with pytest.raises(StorageError):
                tree.insert(7, tree.search(2)[0])
            assert image.pages == frozen
            with pytest.raises(StorageError):
                image.fetch(10_000)


class TestCopyOnWriteTreePages:
    def test_insert_copies_only_touched_pages(self):
        # Even keys on 512-byte pages: a three-level tree whose leaves
        # (bar the last) are half full, so an odd key lands in a leaf
        # with room and splits nothing.
        db = indexed_db(1000, page_size=512, key=lambda i: 2 * i)
        manager = enabled(db)
        table = db.catalog.get_table("f")
        with manager.pin() as snapshot:
            before = snapshot.image_for("f")
        live = BPlusTree(db.pool, table.indexes[0].root_page)
        tree_pages = set(live.pages())
        assert len(tree_pages) > 40 and before.page_count() > 80
        stats = manager.stats()
        db.execute("INSERT INTO f VALUES (101, 7)")
        with manager.pin() as snapshot:
            after = snapshot.image_for("f")
        copied = {
            page_id for page_id, entry in after.pages.items()
            if before.pages.get(page_id) is not entry
        }
        (rid,) = live.search(101)
        leaf, __ = live._find_leaf(101)
        assert copied == {rid.page_id, leaf}
        assert after.roots == before.roots
        root = table.indexes[0].root_page
        assert after.pages[root] is before.pages[root]
        now = manager.stats()
        assert now["pages_copied"] - stats["pages_copied"] == 2
        assert now["pages_reused"] - stats["pages_reused"] == (
            after.page_count() - 2
        )
        db.close()


class TestCreateIndexOrdering:
    """CREATE INDEX installs the new tree before the catalog names the
    index, and a SELECT fixes its plan before it pins, so a plan that
    names an index never meets an image without its tree."""

    QUERIES = [
        ("SELECT qty FROM f WHERE id = 321", [(321 % 7,)]),
        ("SELECT count(*) FROM f WHERE id >= 100 AND id < 124", [(24,)]),
    ]

    def check_reads(self, db):
        for sql, want in self.QUERIES:
            # execute_script plans each statement itself (no cached
            # plan), which is the plan-then-pin path of _execute.
            assert db.execute_script(sql)[0].rows == want, sql
            assert db.query(sql) == want, sql

    def test_reader_at_every_publish_step(self, monkeypatch):
        db = facts_db(600)
        manager = enabled(db)
        install = manager.install
        bump_epoch = db.catalog.bump_epoch
        steps = []

        def reading_install(*args, **kwargs):
            steps.append("install")
            self.check_reads(db)
            install(*args, **kwargs)
            self.check_reads(db)

        def reading_bump_epoch():
            steps.append("epoch")
            self.check_reads(db)
            bump_epoch()
            self.check_reads(db)

        monkeypatch.setattr(manager, "install", reading_install)
        monkeypatch.setattr(db.catalog, "bump_epoch", reading_bump_epoch)
        db.execute("CREATE INDEX f_id ON f (id)")
        assert steps == ["install", "epoch"]
        assert "IndexScan" in db.query(
            "EXPLAIN " + self.QUERIES[0][0]
        )[-1][0]
        monkeypatch.undo()
        self.check_reads(db)
        db.close()

    def test_index_created_while_a_reader_plans(self, monkeypatch):
        db = facts_db(600)
        enabled(db)
        plan = db._executor.plan
        plans = []

        def plan_after_create_index(*args, **kwargs):
            monkeypatch.setattr(db._executor, "plan", plan)
            db.execute("CREATE INDEX f_id ON f (id)")
            plans.append(plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(db._executor, "plan", plan_after_create_index)
        sql, want = self.QUERIES[0]
        assert db.execute_script(sql)[0].rows == want
        scan = plans[0]
        while not hasattr(scan, "index"):
            scan = scan.child
        assert scan.index.name == "f_id"
        db.close()

    def test_concurrent_reader(self):
        db = Database(page_size=1024)
        names = [f"f{n}" for n in range(6)]
        for name in names:
            db.execute(f"CREATE TABLE {name} (id INT, qty INT)")
            db.insert_rows(name, [(i, i % 7) for i in range(300)])
        enabled(db)
        done = threading.Event()
        errors = []

        def reader():
            try:
                while not done.is_set():
                    for name in names:
                        rows = db.query(
                            f"SELECT qty FROM {name} WHERE id = 123"
                        )
                        assert rows == [(123 % 7,)], rows
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for name in names:
                db.execute(f"CREATE INDEX {name}_id ON {name} (id)")
                db.execute(
                    f"INSERT INTO {name} VALUES (1000, 1), (1001, 2)"
                )
        finally:
            done.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        db.close()


# -- the differential: pinned snapshots against a replayed plain database ----

KEYS = st.integers(min_value=0, max_value=150)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.lists(st.one_of(st.none(), KEYS), min_size=1,
                           max_size=12)),
        st.tuples(st.just("move"), KEYS, st.integers(-40, 40)),
        st.tuples(st.just("delete"), KEYS, st.integers(0, 6)),
        st.tuples(st.just("pin")),
    ),
    max_size=40,
)

#: Point, range, BETWEEN, open and empty ranges (index scans), and one
#: heap scan, all returning rows in their scan's order.
READS = [
    "SELECT id, v FROM t WHERE id = 0",
    "SELECT id, v FROM t WHERE id = 37",
    "SELECT id, v FROM t WHERE id = 150",
    "SELECT id, v FROM t WHERE id >= 20 AND id < 60",
    "SELECT id, v FROM t WHERE id BETWEEN -30 AND 10",
    "SELECT id, v FROM t WHERE id > 120",
    "SELECT id, v FROM t WHERE id <= 5",
    "SELECT id, v FROM t WHERE id > 90 AND id < 80",
    "SELECT id, v FROM t",
]

SETUP = ["CREATE TABLE t (id INT, v INT)", "CREATE INDEX t_id ON t (id)"]


def statements(operations):
    """The write statements of a run; ``("pin",)`` stays a marker."""
    serial = 0
    for operation in operations:
        if operation[0] == "insert":
            values = []
            for key in operation[1]:
                serial += 1
                values.append(f"({'NULL' if key is None else key}, {serial})")
            yield "INSERT INTO t VALUES " + ", ".join(values)
        elif operation[0] == "move":
            __, key, delta = operation
            sign = "+" if delta >= 0 else "-"
            yield (f"UPDATE t SET id = id {sign} {abs(delta)} "
                   f"WHERE id >= {key} AND id < {key + 5}")
        elif operation[0] == "delete":
            __, key, width = operation
            yield f"DELETE FROM t WHERE id >= {key} AND id <= {key + width}"
        else:
            yield None


def snapshot_reads(db, snapshot):
    return [
        db._executor.select_with_plan(
            parse_statement(sql), snapshot=snapshot, private=True
        )[0].rows
        for sql in READS
    ]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPERATIONS)
def test_pinned_snapshots_equal_replayed_state(operations):
    """Interleave inserts, key-moving updates and deletes on an indexed
    table small enough to split leaves and roots, pinning snapshots
    along the way.  Each snapshot answers every read exactly as a plain
    database holding the state at its pin does, and a fresh snapshot
    answers as live pages do."""
    db = Database(page_size=256)
    for sql in SETUP:
        db.execute(sql)
    manager = enabled(db)
    log, pinned = [], []
    try:
        for sql in statements(operations):
            if sql is None:
                pinned.append((manager.pin(), len(log)))
            else:
                db.execute(sql)
                log.append(sql)
        for snapshot, length in pinned:
            plain = Database(page_size=256)
            for sql in SETUP + log[:length]:
                plain.execute(sql)
            want = [plain.query(sql) for sql in READS]
            plain.close()
            assert snapshot_reads(db, snapshot) == want
        with manager.pin() as fresh:
            assert snapshot_reads(db, fresh) == snapshot_reads(db, None)
    finally:
        for snapshot, __ in pinned:
            snapshot.release()
    assert manager.retained_count() == 0
    db.close()


def test_differential_reaches_leaf_and_root_splits():
    """The differential's page size splits leaves and roots well within
    its operation budget: a snapshot pinned before the splits still
    reads its one-leaf tree."""
    db = Database(page_size=256)
    for sql in SETUP:
        db.execute(sql)
    manager = enabled(db)
    db.execute("INSERT INTO t VALUES (5, 1), (6, 2)")
    index = db.catalog.get_table("t").indexes[0]
    first_root = index.root_page
    with manager.pin() as early:
        for start in range(0, 240, 12):
            db.execute("INSERT INTO t VALUES " + ", ".join(
                f"({key}, {key})" for key in range(start, start + 12)
            ))
        live = BPlusTree(db.pool, index.root_page)
        levels, node = 1, live._read(live.root_page)
        while not node.is_leaf:
            levels, node = levels + 1, live._read(node.children[0])
        assert levels >= 3  # the leaf root split, then the first inner
        assert early.image_for("t").root_of(index) == first_root
        assert snapshot_reads(db, early)[-1] == [(5, 1), (6, 2)]
    db.close()


class TestManagerStats:
    def test_stats_shape(self, db):
        manager = enabled(db)
        stats = manager.stats()
        assert stats["enabled"] is True
        assert stats["installs"] >= 1
        assert stats["versions"] == {"t": 1}
        assert isinstance(SnapshotManager().stats()["enabled"], bool)
