"""WAL crash recovery, verified bit-identically at every fault point.

The acceptance criterion of the durability issue: for *every* injected
crash point — kill-at-write, torn append, failed fsync — reopening the
database recovers exactly the committed-statement prefix, byte-for-byte
equal to a serial replay of those statements on a fresh database.  The
sweep runs across all six UDF execution designs (their CREATE FUNCTION
payloads and catalog blobs differ), plus group-commit behaviour, the
``db.stats()["wal"]`` counters, and the clean-shutdown checkpoint.

The harness lives in :mod:`tests.storage.faults`; see its module
docstring for the checking protocol.
"""

import os
import shutil
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.designs import Design
from repro.database import Database
from repro.errors import DiskError, SimulatedCrash, WALError
from repro.server.client import Client
from repro.server.server import DatabaseServer
from repro.storage.wal import FaultPoint, WriteAheadLog
from tests.storage.faults import (
    CrashPoint,
    abandon,
    apply_statements,
    build_db,
    check_free_list,
    fingerprint,
    run_crash_check,
    trace_ops,
)

SETUP = [
    "CREATE TABLE items (id INT, name STRING, data BYTEARRAY)",
    "CREATE TABLE totals (id INT, v INT)",
    "CREATE INDEX totals_id ON totals(id)",
    "INSERT INTO items VALUES (1, 'a', zerobytes(16)), "
    "(2, 'b', zerobytes(2000))",
    "INSERT INTO totals VALUES (1, 100), (2, 200), (3, 300)",
]

#: The exhaustive-sweep workload: multi-row DML, an index-maintaining
#: UPDATE, DDL (catalog record), a LOB spill, a logical failure whose
#: partial effects must replay deterministically, and a LOB-freeing
#: DELETE.
WORKLOAD = [
    "INSERT INTO totals VALUES (10, 1000), (11, 1100)",
    "UPDATE totals SET v = v + 7 WHERE id <= 2",
    "CREATE FUNCTION plus2(int) RETURNS int LANGUAGE JAGUAR "
    "DESIGN SANDBOX AS 'def plus2(x: int) -> int: return x + 2'",
    "INSERT INTO items VALUES (3, 'c', zerobytes(5000))",
    "INSERT INTO totals VALUES (1)",   # arity error: logical failure
    "DELETE FROM items WHERE id = 2",  # frees LOB pages
    "UPDATE totals SET v = plus2(v) WHERE id = 10",
]


def mode_for(ops, index):
    """Pick the crash mode matching the op kind at ``index`` (writes
    alternate kill/torn so both get swept; fsyncs fail)."""
    kind = ops[index][0]
    if kind == "fsync":
        return "fsync"
    return "kill" if index % 2 == 0 else "torn"


def triple_native(x):
    return x * 3 + 1


DESIGN_SQL = {
    Design.NATIVE_INTEGRATED:
        "LANGUAGE NATIVE DESIGN INTEGRATED AS "
        "'tests.storage.test_wal_recovery:triple_native'",
    Design.NATIVE_SFI:
        "LANGUAGE NATIVE DESIGN SFI AS "
        "'tests.storage.test_wal_recovery:triple_native'",
    Design.NATIVE_ISOLATED:
        "LANGUAGE NATIVE DESIGN ISOLATED AS "
        "'tests.storage.test_wal_recovery:triple_native'",
    Design.SANDBOX_JIT:
        "LANGUAGE JAGUAR DESIGN SANDBOX AS "
        "'def arith(x: int) -> int:\n    return x * 3 + 1'",
    Design.SANDBOX_INTERP:
        "LANGUAGE JAGUAR DESIGN SANDBOX_INTERP AS "
        "'def arith(x: int) -> int:\n    return x * 3 + 1'",
    Design.SANDBOX_ISOLATED:
        "LANGUAGE JAGUAR DESIGN SANDBOX_ISOLATED AS "
        "'def arith(x: int) -> int:\n    return x * 3 + 1'",
}


# -- the tentpole: every crash point recovers bit-identically -----------------

class TestCrashSweep:
    @pytest.mark.parametrize("lose_tail", [False, True],
                             ids=["keep-tail", "lose-tail"])
    def test_every_fault_point_recovers_committed_prefix(
        self, tmp_path, lose_tail
    ):
        """Sweep a crash over every storage write and fsync the workload
        performs; each recovered state must equal the serial replay of
        its committed prefix, byte for byte."""
        base = str(tmp_path)
        ops = trace_ops(base, SETUP, WORKLOAD)
        assert len(ops) > len(WORKLOAD)  # pages + commits + fsyncs
        replays = {}
        recovered = []
        for index in range(len(ops)):
            recovered.append(run_crash_check(
                base, SETUP, WORKLOAD,
                at=index, mode=mode_for(ops, index),
                lose_tail=lose_tail, replays=replays,
            ))
        # The sweep exercised real prefixes, not just all-or-nothing.
        assert min(recovered) < max(recovered)

    def test_crash_points_cover_wal_and_disk_sites(self, tmp_path):
        ops = trace_ops(str(tmp_path), SETUP, WORKLOAD)
        sites = {site for __, site in ops}
        assert "wal.append" in sites
        assert "wal.fsync" in sites

    def test_recovery_is_idempotent(self, tmp_path):
        """Reopening a recovered database recovers nothing further and
        leaves the files byte-identical."""
        base = str(tmp_path)
        path = os.path.join(base, "db")
        ops = trace_ops(base, SETUP, WORKLOAD)
        # A write op past the midpoint, so real statements committed.
        at = next(
            i for i, (kind, __) in enumerate(ops)
            if kind == "write" and i >= len(ops) // 2
        )
        point = CrashPoint(at=at, mode="torn")
        db = build_db(path, SETUP, faults=point)
        point.armed = True
        __, crashed = apply_statements(db, WORKLOAD)
        assert crashed
        db.close()  # dead storage: no checkpoint, the files stay as crashed

        first = Database(path)
        assert first.wal.recovered_statements > 0
        first.close()
        state = fingerprint(path)
        second = Database(path)
        assert second.wal.recovered_statements == 0
        second.close()
        assert fingerprint(path) == state


# -- all six designs ----------------------------------------------------------

class TestAllDesignsRecover:
    @pytest.mark.parametrize("design", list(DESIGN_SQL),
                             ids=lambda d: d.value)
    def test_design_workload_recovers_at_every_op(self, tmp_path, design):
        """A workload whose catalog blob and UDF execution differ per
        design: crash at every op (lost tail — the strictest variant)
        and require bit-identical recovery."""
        workload = [
            f"CREATE FUNCTION arith(int) RETURNS int {DESIGN_SQL[design]}",
            "UPDATE totals SET v = arith(v) WHERE id <= 2",
            "INSERT INTO totals VALUES (12, 1200)",
        ]
        base = str(tmp_path)
        ops = trace_ops(base, SETUP, workload)
        replays = {}
        for index in range(len(ops)):
            run_crash_check(
                base, SETUP, workload,
                at=index, mode=mode_for(ops, index),
                lose_tail=True, replays=replays,
            )


# -- property suite: random statement sequences -------------------------------

POOL = [
    "INSERT INTO totals VALUES (20, 2000), (21, 2100)",
    "UPDATE totals SET v = v + 7 WHERE id <= 2",
    "DELETE FROM totals WHERE id = 2",
    "INSERT INTO items VALUES (9, 'z', zerobytes(3000))",
    "DELETE FROM items WHERE id = 2",
    "CREATE FUNCTION fx(int) RETURNS int LANGUAGE JAGUAR "
    "DESIGN SANDBOX AS 'def fx(x: int) -> int: return x + 2'",
    "INSERT INTO totals VALUES (1)",    # arity error
    "CREATE INDEX bad ON items(name)",  # non-INT column: logical failure
]


class TestRecoveryProperty:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(POOL) - 1),
            min_size=2, max_size=4,
        ),
        lose_tail=st.booleans(),
    )
    def test_random_sequences_crash_at_every_point(self, picks, lose_tail):
        """Random statement sequences (duplicates become deterministic
        logical failures), crashed at every fault point: the recovered
        database equals the committed prefix, bit-identically."""
        statements = [POOL[i] for i in picks]
        base = tempfile.mkdtemp(prefix="walprop-")
        try:
            ops = trace_ops(base, SETUP, statements)
            replays = {}
            for index in range(len(ops)):
                run_crash_check(
                    base, SETUP, statements,
                    at=index, mode=mode_for(ops, index),
                    lose_tail=lose_tail, replays=replays,
                )
        finally:
            shutil.rmtree(base, ignore_errors=True)


# -- failed fsync semantics ---------------------------------------------------

class TestFailedFsync:
    def test_failed_fsync_refuses_commit_then_stops_accepting(
        self, tmp_path
    ):
        """A failed fsync must surface as WALError (the commit is not
        acknowledged) and the engine must refuse further writes rather
        than silently lose data."""
        path = str(tmp_path / "db")
        ops = trace_ops(str(tmp_path), SETUP, WORKLOAD[:1])
        fsync_index = next(
            i for i, (kind, __) in enumerate(ops) if kind == "fsync"
        )
        point = CrashPoint(at=fsync_index, mode="fsync")
        db = build_db(path, SETUP, faults=point)
        point.armed = True
        with pytest.raises(WALError):
            db.execute(WORKLOAD[0])
        with pytest.raises((SimulatedCrash, WALError)):
            db.execute("INSERT INTO totals VALUES (30, 3000)")
        db.close()  # dead storage: no checkpoint, the files stay as crashed
        # Recovery: the un-acknowledged statement may or may not survive
        # in the log tail; either way the state equals a committed
        # prefix (the full sweep asserts bit-identity — here we pin the
        # user-visible contract).
        recovered = Database(path)
        rows = recovered.query("SELECT id FROM totals WHERE id = 30")
        assert rows == []
        recovered.close()


# -- group commit -------------------------------------------------------------

class TestGroupCommit:
    def test_concurrent_writers_share_fsyncs(self, tmp_path):
        """Writers on disjoint tables landing within the group window
        retire on a shared fsync: fewer fsyncs than statements, batch
        sizes > 1 in the stats."""
        db = Database(str(tmp_path / "db"), group_commit_window=0.2)
        names = [f"w{i}" for i in range(4)]
        for name in names:
            db.execute(f"CREATE TABLE {name} (id INT, v INT)")
        before = db.stats()["wal"]["fsyncs"]
        barrier = threading.Barrier(len(names))
        errors = []

        def writer(name):
            try:
                barrier.wait(5)
                db.execute(f"INSERT INTO {name} VALUES (1, 10)")
            except Exception as exc:  # pragma: no cover - fail loud
                errors.append((name, exc))

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in names
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors, errors
        stats = db.stats()["wal"]
        fsyncs = stats["fsyncs"] - before
        assert fsyncs < len(names)
        assert stats["max_batch"] >= 2
        assert stats["grouped_commits"] >= 2
        db.close()

    def test_window_zero_syncs_each_statement(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        assert db.group_commit_window == 0.0
        db.execute("CREATE TABLE t (id INT)")
        before = db.stats()["wal"]["fsyncs"]
        for i in range(3):
            db.execute(f"INSERT INTO t VALUES ({i})")
        assert db.stats()["wal"]["fsyncs"] == before + 3
        db.close()

    def test_window_is_mutable_at_runtime(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        db.group_commit_window = 0.005
        assert db.group_commit_window == 0.005
        db.close()

    def test_in_memory_database_has_no_wal(self):
        db = Database()
        try:
            assert db.wal is None
            assert "wal" not in db.stats()
            with pytest.raises(ValueError):
                db.group_commit_window = 0.01
        finally:
            db.close()


# -- stats counters -----------------------------------------------------------

class TestWalStats:
    def test_counters_move_and_recovery_is_counted(self, tmp_path):
        path = str(tmp_path / "db")
        db = build_db(path, SETUP)
        stats = db.stats()["wal"]
        assert stats["statements_logged"] == len(SETUP)
        assert stats["appends"] > stats["statements_logged"]
        assert stats["fsyncs"] >= len(SETUP)
        assert stats["bytes_appended"] > 0
        assert stats["recovered_statements"] == 0
        abandon(db)  # crash: no checkpoint

        recovered = Database(path)
        stats = recovered.stats()["wal"]
        assert stats["recovered_statements"] == len(SETUP)
        recovered.close()

    def test_commit_batches_accounting(self, tmp_path):
        db = build_db(str(tmp_path / "db"), SETUP)
        stats = db.stats()["wal"]
        # Serial writers: every batch has exactly one statement.
        assert stats["commit_batches"] >= len(SETUP)
        assert stats["max_batch"] == 1
        assert stats["mean_batch"] == 1.0
        assert stats["grouped_commits"] == 0
        db.close()


# -- free list is commit-granular ---------------------------------------------

class TestCommitGranularFreeList:
    def test_uncommitted_free_never_reaches_shared_state(self, tmp_path):
        """A statement's page frees stay buffered in its tracker until
        it publishes: a concurrent committer's geometry must not carry
        the uncommitted ``free_head``, and after a crash the free list
        must not thread through the in-flight statement's pages."""
        path = str(tmp_path / "db")
        db = build_db(path, SETUP)
        head_before = db.disk.geometry()[1]
        ready = threading.Event()
        release = threading.Event()
        state = {}

        def inflight():
            # Simulates a write statement paused mid-flight after
            # freeing pages (e.g. a DELETE dropping a LOB chain).
            tracker = db.pool.begin_tracking()
            ref = db.lobs.write(b"y" * 20000)  # three LOB pages
            db.lobs.free(ref)
            state["first_page"] = ref.first_page
            state["buffered"] = list(tracker.freed)
            ready.set()
            release.wait(10)
            db.pool.end_tracking(tracker)

        thread = threading.Thread(target=inflight)
        thread.start()
        assert ready.wait(10)
        # The frees are buffered, not applied: the shared head is
        # untouched, so an allocator can never be handed these pages.
        assert len(state["buffered"]) == 3
        assert db.disk.geometry()[1] == head_before
        # A concurrent committer on another table logs its geometry —
        # which must not name the uncommitted frees.
        db.execute("INSERT INTO totals VALUES (40, 4000)")
        assert db.disk.geometry()[1] == head_before
        # Crash before the in-flight statement ever publishes.
        release.set()
        thread.join(10)
        abandon(db)

        recovered = Database(path)
        free = check_free_list(recovered)
        assert state["first_page"] not in free
        assert recovered.query(
            "SELECT v FROM totals WHERE id = 40"
        ) == [(4000,)]
        # Allocation and freeing on the recovered free list work.
        recovered.execute(
            "INSERT INTO items VALUES (7, 'q', zerobytes(5000))"
        )
        recovered.execute("DELETE FROM items WHERE id = 7")
        check_free_list(recovered)
        recovered.close()
        reopened = Database(path)
        check_free_list(reopened)
        reopened.close()

    @pytest.mark.parametrize("at", [6, 14, 26])
    def test_concurrent_free_and_commit_crash_keeps_free_list_sound(
        self, tmp_path, at
    ):
        """Two writers — one churning LOB allocations/frees, one
        inserting on a disjoint table — crashed mid-run: the recovered
        free list must be structurally sound and reusable."""
        path = str(tmp_path / f"db{at}")
        point = CrashPoint(at=at, mode="torn")
        db = build_db(path, SETUP, faults=point)
        point.armed = True

        def churn_items():
            try:
                for i in range(20):
                    db.execute(
                        f"INSERT INTO items VALUES "
                        f"({100 + i}, 'x', zerobytes(4000))"
                    )
                    db.execute(f"DELETE FROM items WHERE id = {100 + i}")
            except Exception:
                pass  # crashed (or post-crash refusal): expected

        def churn_totals():
            try:
                for i in range(40):
                    db.execute(
                        f"INSERT INTO totals VALUES ({500 + i}, {i})"
                    )
            except Exception:
                pass

        threads = [
            threading.Thread(target=churn_items),
            threading.Thread(target=churn_totals),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        point.armed = False
        db.close()  # dead storage: no checkpoint, the files stay as crashed

        recovered = Database(path)
        check_free_list(recovered)
        recovered.query("SELECT count(*) FROM items")
        recovered.query("SELECT count(*) FROM totals")
        # The recovered free list hands out usable pages.
        recovered.execute(
            "INSERT INTO items VALUES (900, 'w', zerobytes(4000))"
        )
        recovered.close()
        reopened = Database(path)
        check_free_list(reopened)
        assert reopened.query(
            "SELECT count(*) FROM items WHERE id = 900"
        ) == [(1,)]
        reopened.close()


# -- dead-WAL shutdown must not write the header ------------------------------

class _FailWalFsync(FaultPoint):
    """Fail WAL fsyncs once armed; data-file syncs stay healthy (the
    scenario where the log dies but the disk manager would happily
    persist its poisoned in-memory header on close)."""

    def __init__(self) -> None:
        self.armed = False

    def fsync(self, site: str) -> bool:
        return not (self.armed and site == "wal.fsync")


class TestDeadWalClose:
    def test_close_after_dead_wal_leaves_header_alone(self, tmp_path):
        """After a failed commit fsync, ``close()`` must not sync the
        data file: the in-memory header holds the crashed statement's
        free list, and with the log tail lost there is no committed
        record to restore the header from on reopen."""
        path = str(tmp_path / "db")
        fault = _FailWalFsync()
        db = build_db(path, SETUP, faults=fault)
        db.checkpoint()  # empty log: recovery will have nothing to redo
        before = fingerprint(path)
        fault.armed = True
        with pytest.raises(WALError):
            db.execute("DELETE FROM items WHERE id = 2")  # frees LOBs
        fault.armed = False
        db.close()  # dead WAL: must skip checkpoint AND header sync
        # The never-fsynced log tail dies with the OS page cache.
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "r+b") as handle:
            handle.truncate(0)
        assert fingerprint(path) == before, (
            "close() persisted state the WAL never made durable"
        )

        recovered = Database(path)
        assert recovered.wal.recovered_statements == 0
        # The unacknowledged DELETE vanished; the free list is sound.
        assert recovered.query("SELECT count(*) FROM items") == [(2,)]
        check_free_list(recovered)
        recovered.execute(
            "INSERT INTO items VALUES (5, 'e', zerobytes(3000))"
        )
        recovered.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestRefusedOpenClosesFiles:
    """A path-backed database that cannot open closes what it opened
    before the error propagates: the files are closed while the
    traceback, which still references the half-built objects, is alive,
    not later by the garbage collector."""

    def test_corrupt_data_file(self, tmp_path):
        path = tmp_path / "db"
        path.mkdir()
        (path / "data.pages").write_bytes(b"not a database at all" * 20)
        before = _open_fds()
        with pytest.raises(DiskError, match="magic") as refused:
            Database(str(path))
        assert _open_fds() == before, refused.traceback

    def test_failed_recovery(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db")
        build_db(path, SETUP).close()

        def refuse(self, disk, catalog_path):
            raise WALError("recovery refused")

        monkeypatch.setattr(WriteAheadLog, "recover", refuse)
        before = _open_fds()
        with pytest.raises(WALError, match="refused") as refused:
            Database(path)
        assert _open_fds() == before, refused.traceback


# -- statements larger than the buffer pool -----------------------------------

class TestPoolBoundedStatements:
    def test_insert_rows_chunks_into_pool_sized_commit_units(
        self, tmp_path
    ):
        """A bulk batch far larger than the buffer pool commits in
        chunks instead of dying with every frame pending."""
        db = Database(str(tmp_path / "db"), buffer_capacity=16)
        db.execute("CREATE TABLE big (id INT, data BYTEARRAY)")
        logged_before = db.stats()["wal"]["statements_logged"]
        rows = [(i, b"z" * 3000) for i in range(120)]  # one LOB page each
        assert db.insert_rows("big", rows) == 120
        assert db.query("SELECT count(*) FROM big") == [(120,)]
        chunks = db.stats()["wal"]["statements_logged"] - logged_before
        assert chunks > 1  # genuinely chunked...
        assert chunks < 120  # ...but far coarser than row-at-a-time
        db.close()
        reopened = Database(str(tmp_path / "db"))
        assert reopened.query("SELECT count(*) FROM big") == [(120,)]
        reopened.close()

    def test_oversize_statement_fails_with_explicit_error(self, tmp_path):
        """A single SQL statement that dirties more pages than the pool
        holds fails with the working-set error (not a misleading
        'all frames pinned'), and the engine stays usable."""
        db = Database(str(tmp_path / "db"), buffer_capacity=16)
        db.execute("CREATE TABLE big (id INT, data BYTEARRAY)")
        values = ", ".join(
            f"({i}, zerobytes(3000))" for i in range(40)
        )
        with pytest.raises(Exception) as excinfo:
            db.execute(f"INSERT INTO big VALUES {values}")
        assert "working set exceeds the buffer pool" in str(excinfo.value)
        # Partial effects committed deterministically; engine healthy.
        db.execute("INSERT INTO big VALUES (900, zerobytes(2000))")
        assert db.query(
            "SELECT count(*) FROM big WHERE id = 900"
        ) == [(1,)]
        db.close()


# -- clean shutdown -----------------------------------------------------------

class TestCleanShutdown:
    def test_close_checkpoints_and_truncates_the_log(self, tmp_path):
        path = str(tmp_path / "db")
        db = build_db(path, SETUP)
        assert db.wal.size() > 0
        db.close()
        assert os.path.getsize(os.path.join(path, "wal.log")) == 0
        reopened = Database(path)
        assert reopened.wal.recovered_statements == 0
        assert reopened.query("SELECT count(*) FROM totals") == [(3,)]
        assert reopened.stats()["wal"]["checkpoints"] == 0
        reopened.close()

    def test_server_stop_then_close_checkpoints(self, tmp_path):
        """The ``stop()`` regression: server drains, database closes,
        and the log is empty — a restart recovers nothing and loses
        nothing."""
        path = str(tmp_path / "db")
        database = Database(path)
        with DatabaseServer(database, trust_all_clients=True) as server:
            with Client(server.host, server.port) as client:
                client.execute("CREATE TABLE t (id INT, v INT)")
                client.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
                stats = client.execute("SELECT count(*) FROM t").scalar()
                assert stats == 2
            server.stop()
        database.close()
        assert os.path.getsize(os.path.join(path, "wal.log")) == 0
        reopened = Database(path)
        assert reopened.wal.recovered_statements == 0
        assert reopened.query("SELECT id, v FROM t ORDER BY id") == [
            (1, 10), (2, 20)
        ]
        stats = reopened.stats()["wal"]
        assert stats["statements_logged"] == 0  # nothing replayed
        reopened.close()
