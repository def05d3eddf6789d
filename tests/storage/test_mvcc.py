"""MVCC-lite snapshot store: versions, copy-on-write installs, GC."""

import pytest

from repro.database import Database
from repro.errors import StorageError
from repro.storage.mvcc import SnapshotManager


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
            assert len(list(image.records())) == 3

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
        assert len(list(image.records())) == 3  # still the old rows
        assert snapshot.versions()["t"] == 1
        snapshot.release()
        with manager.pin() as fresh:
            assert len(list(fresh.image_for("t").records())) == 4

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


class TestManagerStats:
    def test_stats_shape(self, db):
        manager = enabled(db)
        stats = manager.stats()
        assert stats["enabled"] is True
        assert stats["installs"] >= 1
        assert stats["versions"] == {"t": 1}
        assert isinstance(SnapshotManager().stats()["enabled"], bool)
