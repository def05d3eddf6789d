"""The server under concurrency, end to end.

Serial-replay equality under concurrent mixed workloads, snapshot-read
isolation while a writer commits, shared plan-cache behaviour over the
wire, per-tenant admission refusal, ``stop()`` drain semantics, and
chunked result streaming.  Parity: with one client the wire replies are
identical to embedded ``execute`` on an identically loaded database,
across all six UDF designs.

The per-table write-lock gate (ROADMAP): concurrent writers on disjoint
tables must (a) produce exactly the state a serial replay produces —
including after a durable close/reopen of the WAL-backed database — and
(b) genuinely not serialize: a stalled writer on table A must not block
a writer on table B.
"""

import gc
import os
import threading
import time

import pytest

from repro.core.designs import Design
from repro.database import Database
from repro.server import protocol
from repro.server.client import Client, ServerReportedError
from repro.server.server import DatabaseServer

SETUP = [
    "CREATE TABLE nums (id INT, v FLOAT)",
    "INSERT INTO nums VALUES (1, 1.5), (2, 2.5), (3, NULL), "
    "(4, 4.5), (5, 5.5)",
]


def make_db():
    database = Database()
    for sql in SETUP:
        database.execute(sql)
    return database


@pytest.fixture
def adb():
    database = make_db()
    with DatabaseServer(database, trust_all_clients=True) as server:
        yield server
    database.close()


# -- host payloads for the native designs (resolved by module:attr) ----------

def triple_native(x):
    return x * 3 + 1


#: Deterministic blocking for drain/admission tests: the UDF signals
#: ``STARTED`` and then parks on ``GATE`` until the test releases it.
GATE = threading.Event()
STARTED = threading.Event()


def gated_native(x):
    STARTED.set()
    GATE.wait(10)
    return x


@pytest.fixture
def gate():
    GATE.clear()
    STARTED.clear()
    yield
    GATE.set()


GATED_UDF = (
    "CREATE FUNCTION gated(int) RETURNS int LANGUAGE NATIVE "
    "DESIGN INTEGRATED AS "
    "'tests.server.test_concurrent_server:gated_native'"
)


class Census:
    """How many ``counted_native`` calls are parked on ``GATE``."""

    lock = threading.Lock()
    now = 0
    peak = 0


def counted_native(x):
    with Census.lock:
        Census.now += 1
        Census.peak = max(Census.peak, Census.now)
    GATE.wait(10)
    with Census.lock:
        Census.now -= 1
    return x


COUNTED_UDF = (
    "CREATE FUNCTION counted(int) RETURNS int LANGUAGE NATIVE "
    "DESIGN INTEGRATED AS "
    "'tests.server.test_concurrent_server:counted_native'"
)


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


# -- parity: one client, all six designs -------------------------------------

DESIGN_SQL = {
    Design.NATIVE_INTEGRATED:
        "LANGUAGE NATIVE DESIGN INTEGRATED AS "
        "'tests.server.test_concurrent_server:triple_native'",
    Design.NATIVE_SFI:
        "LANGUAGE NATIVE DESIGN SFI AS "
        "'tests.server.test_concurrent_server:triple_native'",
    Design.NATIVE_ISOLATED:
        "LANGUAGE NATIVE DESIGN ISOLATED AS "
        "'tests.server.test_concurrent_server:triple_native'",
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

PARITY_SQL = "SELECT id, arith(id) FROM nums WHERE id <= 4 ORDER BY id"


class TestSingleClientParity:
    @pytest.mark.parametrize(
        "design", list(DESIGN_SQL), ids=lambda d: d.value
    )
    def test_wire_matches_embedded(self, design):
        create = f"CREATE FUNCTION arith(int) RETURNS int {DESIGN_SQL[design]}"
        embedded = make_db()
        try:
            embedded.execute(create)
            expected = embedded.execute(PARITY_SQL)
        finally:
            embedded.close()
        database = make_db()
        try:
            with DatabaseServer(database, trust_all_clients=True) as server:
                with Client(server.host, server.port) as client:
                    client.execute(create)
                    served = client.execute(PARITY_SQL)
        finally:
            database.close()
        assert served.columns == expected.columns
        assert served.rowcount == expected.rowcount
        assert served.rows == expected.rows == [
            (1, 4), (2, 7), (3, 10), (4, 13)
        ]

    def test_error_frames_match(self, adb):
        with Client(adb.host, adb.port) as client:
            with pytest.raises(ServerReportedError) as info:
                client.execute("SELECT * FROM no_such_table")
            assert info.value.error_class == "CatalogError"
            with pytest.raises(ServerReportedError) as info:
                client.execute("SELEC oops")
            assert info.value.error_class == "ParseError"
            assert client.ping()  # connection survives both


# -- satellite (d): concurrent mixed workload == serial replay ---------------

class TestSerialReplayEquality:
    N_CLIENTS = 4
    REPEATS = 3

    @staticmethod
    def _statements(worker):
        udf = (
            f"CREATE FUNCTION add{worker}(int) RETURNS int "
            f"LANGUAGE JAGUAR DESIGN SANDBOX AS "
            f"'def add{worker}(x: int) -> int: return x + {worker}'"
        )
        queries = [
            f"SELECT id, add{worker}(id) FROM nums ORDER BY id",
            "SELECT count(*), sum(id) FROM nums",
            f"SELECT add{worker}(id) FROM nums WHERE v IS NOT NULL "
            f"ORDER BY id",
        ]
        return udf, queries

    def test_mixed_select_create_function(self, adb):
        """N clients interleaving SELECTs and CREATE FUNCTIONs produce
        exactly the rows a serial replay produces."""
        outcomes = {}
        errors = []

        def worker(n):
            try:
                udf, queries = self._statements(n)
                with Client(adb.host, adb.port) as client:
                    client.execute(udf)
                    collected = []
                    for __ in range(self.REPEATS):
                        for sql in queries:
                            result = client.execute(sql)
                            collected.append(
                                (sql, result.columns, result.rows)
                            )
                    outcomes[n] = collected
            except Exception as exc:  # pragma: no cover - fail loud
                errors.append((n, exc))

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        assert sorted(outcomes) == list(range(self.N_CLIENTS))

        # Serial replay on a fresh embedded database.
        serial_db = make_db()
        try:
            for n in range(self.N_CLIENTS):
                udf, queries = self._statements(n)
                serial_db.execute(udf)
                expected = []
                for __ in range(self.REPEATS):
                    for sql in queries:
                        result = serial_db.execute(sql)
                        expected.append(
                            (sql, result.columns, result.rows)
                        )
                assert outcomes[n] == expected
        finally:
            serial_db.close()


# -- ROADMAP gate: concurrent multi-table writers ----------------------------

class TestConcurrentMultiTableWriters:
    N_WRITERS = 4
    ROWS = 12

    @classmethod
    def _script(cls, n):
        """One writer's statements, all against its own table."""
        return (
            [f"CREATE TABLE tab{n} (id INT, v INT)"]
            + [
                f"INSERT INTO tab{n} VALUES ({i}, {i * 10 + n})"
                for i in range(cls.ROWS)
            ]
            + [
                f"UPDATE tab{n} SET v = v + {n + 1} WHERE id <= 5",
                f"DELETE FROM tab{n} WHERE id = 0",
            ]
        )

    @classmethod
    def _select(cls, n):
        return f"SELECT id, v FROM tab{n} ORDER BY id"

    def test_disjoint_writers_match_serial_replay_and_survive_reopen(
        self, tmp_path
    ):
        """N clients writing to N disjoint tables concurrently on a
        WAL-backed database: final contents equal a serial replay, and
        a close/reopen (checkpoint + recovery path) preserves them."""
        path = str(tmp_path / "db")
        database = Database(path, group_commit_window=0.002)
        observed = {}
        try:
            with DatabaseServer(
                database, trust_all_clients=True
            ) as server:
                errors = []

                def worker(n):
                    try:
                        with Client(server.host, server.port) as client:
                            for sql in self._script(n):
                                client.execute(sql)
                    except Exception as exc:  # pragma: no cover
                        errors.append((n, exc))

                threads = [
                    threading.Thread(target=worker, args=(n,))
                    for n in range(self.N_WRITERS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not errors, errors

                with Client(server.host, server.port) as check:
                    for n in range(self.N_WRITERS):
                        observed[n] = check.execute(self._select(n)).rows
            wal_stats = database.stats()["wal"]
            # Every writer's statements were logged and made durable.
            assert wal_stats["statements_logged"] >= (
                self.N_WRITERS * (self.ROWS + 3)
            )
        finally:
            database.close()

        # Serial replay on a fresh in-memory database.
        serial = Database()
        try:
            for n in range(self.N_WRITERS):
                for sql in self._script(n):
                    serial.execute(sql)
            for n in range(self.N_WRITERS):
                assert observed[n] == serial.execute(self._select(n)).rows
        finally:
            serial.close()

        # Durability: the clean close checkpointed; reopen sees it all.
        reopened = Database(path)
        try:
            assert reopened.wal.recovered_statements == 0
            for n in range(self.N_WRITERS):
                assert reopened.query(self._select(n)) == observed[n]
        finally:
            reopened.close()

    def test_stalled_writer_does_not_block_other_tables(self, gate):
        """Deterministic non-serialization proof: a writer parked inside
        a UDF on table A holds only A's write lock, so an INSERT into
        table B completes while A's statement is still in flight."""
        database = Database()
        try:
            database.execute("CREATE TABLE a (id INT, v INT)")
            database.execute("CREATE TABLE b (id INT, v INT)")
            database.execute("INSERT INTO a VALUES (1, 10)")
            with DatabaseServer(
                database, trust_all_clients=True
            ) as server:
                with Client(server.host, server.port) as setup:
                    setup.execute(GATED_UDF)
                slow = {}

                def stalled():
                    with Client(server.host, server.port) as c1:
                        c1.execute(
                            "UPDATE a SET v = gated(v) WHERE id = 1"
                        )
                        slow["done"] = True

                t1 = threading.Thread(target=stalled)
                t1.start()
                assert STARTED.wait(5)  # the UPDATE holds table a's lock

                fast = {}

                def other_table():
                    with Client(server.host, server.port) as c2:
                        c2.execute("INSERT INTO b VALUES (2, 20)")
                        fast["done"] = True

                t2 = threading.Thread(target=other_table)
                t2.start()
                t2.join(timeout=3)
                # B's writer finished while A's writer is still parked.
                assert fast.get("done") is True
                assert "done" not in slow
                GATE.set()
                t1.join(timeout=10)
                assert slow.get("done") is True
                with Client(server.host, server.port) as check:
                    # gated(v) returns v: the stalled UPDATE committed
                    # its (identity) write, and B's insert is visible.
                    assert check.execute(
                        "SELECT v FROM a WHERE id = 1"
                    ).rows == [(10,)]
                    assert check.execute(
                        "SELECT v FROM b"
                    ).rows == [(20,)]
        finally:
            GATE.set()
            database.close()


# -- satellite (d): snapshot isolation while a writer commits ----------------

class TestSnapshotIsolation:
    WRITES = 30

    def test_readers_never_see_partial_statements(self, adb):
        """Each INSERT writes a *pair* of rows in one statement; a
        snapshot reader must only ever count complete pairs."""
        with Client(adb.host, adb.port) as ddl:
            ddl.execute("CREATE TABLE pairs (k INT, half INT)")

        stop_readers = threading.Event()
        bad_counts = []
        reader_errors = []

        def reader():
            try:
                with Client(adb.host, adb.port) as client:
                    last = 0
                    while not stop_readers.is_set():
                        count = client.execute(
                            "SELECT count(*) FROM pairs"
                        ).scalar()
                        if count % 2 != 0 or count < last:
                            bad_counts.append((last, count))
                        last = count
            except Exception as exc:  # pragma: no cover - fail loud
                reader_errors.append(exc)

        readers = [
            threading.Thread(target=reader) for __ in range(3)
        ]
        for t in readers:
            t.start()
        try:
            with Client(adb.host, adb.port) as writer:
                for k in range(self.WRITES):
                    writer.execute(
                        f"INSERT INTO pairs VALUES ({k}, 0), ({k}, 1)"
                    )
        finally:
            stop_readers.set()
            for t in readers:
                t.join(timeout=10)
        assert not reader_errors, reader_errors
        assert not bad_counts, bad_counts
        with Client(adb.host, adb.port) as client:
            final = client.execute("SELECT count(*) FROM pairs").scalar()
        assert final == 2 * self.WRITES


# -- satellite (d): plan cache over the wire ---------------------------------

class TestPlanCacheOverWire:
    SQL = "SELECT id, v FROM nums ORDER BY id"

    def test_cross_session_hits_and_epoch_invalidation(self, adb):
        database = adb.database
        # The set-up INSERTs went through the cache too: count from here.
        base = database.plan_cache.stats()

        def moved(key):
            return database.plan_cache.stats()[key] - base[key]

        with Client(adb.host, adb.port) as c1:
            c1.execute(self.SQL)
        with Client(adb.host, adb.port) as c2:
            c2.execute(self.SQL)  # second session shares the plan
            assert moved("hits") == 1 and moved("misses") == 1

            c2.execute(
                "CREATE FUNCTION bump(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS "
                "'def bump(x: int) -> int: return x'"
            )
            c2.execute(self.SQL)  # epoch moved: must re-plan
            assert moved("hits") == 1
            assert moved("misses") == 2
            assert moved("invalidations") == 1


# -- satellite (d): admission refusal on an exhausted tenant budget ----------

class TestAdmissionOverWire:
    def test_tenant_over_budget_is_refused(self, gate):
        database = make_db()
        try:
            with DatabaseServer(
                database,
                trust_all_clients=True,
                tenant_slots=1,
                tenant_queue_cap=1,
            ) as server:
                with Client(server.host, server.port) as setup:
                    setup.execute(GATED_UDF)
                slow = "SELECT gated(id) FROM nums WHERE id = 1"
                c1 = Client(server.host, server.port, tenant="acme")
                c2 = Client(server.host, server.port, tenant="acme")
                c3 = Client(server.host, server.port, tenant="acme")
                try:
                    r1, r2 = {}, {}
                    t1 = threading.Thread(
                        target=lambda: r1.update(
                            rows=c1.execute(slow).rows
                        )
                    )
                    t1.start()
                    assert STARTED.wait(5)  # c1 occupies the one slot
                    t2 = threading.Thread(
                        target=lambda: r2.update(
                            rows=c2.execute(slow).rows
                        )
                    )
                    t2.start()
                    time.sleep(0.3)  # c2 reaches the (now full) queue
                    with pytest.raises(ServerReportedError) as info:
                        c3.execute(slow)
                    assert info.value.error_class == "AdmissionRefused"
                    # A different tenant is admitted immediately.
                    with Client(
                        server.host, server.port, tenant="other"
                    ) as c4:
                        assert c4.execute(
                            "SELECT count(*) FROM nums"
                        ).scalar() == 5
                    GATE.set()
                    t1.join(timeout=10)
                    t2.join(timeout=10)
                    assert r1["rows"] == [(1,)]
                    assert r2["rows"] == [(1,)]
                    assert server.admission.stats()["refused"] >= 1
                finally:
                    GATE.set()
                    for c in (c1, c2, c3):
                        c.close()
        finally:
            database.close()


# -- satellite (a): stop() drains in-flight statements ------------------------

class TestStopDrains:
    def test_stop_during_inflight_statement_delivers_result(self, gate):
        database = make_db()
        server = DatabaseServer(database, trust_all_clients=True)
        server.start()
        outcome = {}
        try:
            with Client(server.host, server.port) as setup:
                setup.execute(GATED_UDF)
            client = Client(server.host, server.port)

            def run():
                try:
                    outcome["rows"] = client.execute(
                        "SELECT gated(id) FROM nums WHERE id = 2"
                    ).rows
                except Exception as exc:
                    outcome["error"] = exc

            worker = threading.Thread(target=run)
            worker.start()
            assert STARTED.wait(5)  # the statement is in flight

            stopper = threading.Thread(target=server.stop)
            stopper.start()
            time.sleep(0.1)  # stop() is now draining
            GATE.set()
            stopper.join(timeout=10)
            worker.join(timeout=10)
            # The in-flight statement still got its result frame.
            assert outcome.get("rows") == [(2,)]
            client.close()
        finally:
            GATE.set()
            server.stop()
            database.close()


# -- the concurrency bound lives in admission --------------------------------

class TestConcurrencyBound:
    def test_concurrency_bounds_running_statements(self, gate):
        """``concurrency=2``: of four gated statements on four sessions
        (four tenants), exactly two run until the gate opens."""
        database = make_db()
        Census.now = Census.peak = 0
        try:
            with DatabaseServer(
                database, trust_all_clients=True, concurrency=2
            ) as server:
                with Client(server.host, server.port) as setup:
                    setup.execute(COUNTED_UDF)
                clients = [
                    Client(server.host, server.port) for __ in range(4)
                ]
                rows = {}

                def run(i):
                    rows[i] = clients[i].execute(
                        f"SELECT counted(id) FROM nums WHERE id = {i + 1}"
                    ).rows

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(4)
                ]
                try:
                    for t in threads:
                        t.start()
                    wait_until(lambda: sum(
                        server.admission.stats()["queued"].values()
                    ) == 2 and Census.now == 2)
                    time.sleep(0.2)  # nobody else gets in meanwhile
                    assert Census.now == 2
                    GATE.set()
                    for t in threads:
                        t.join(timeout=10)
                finally:
                    GATE.set()
                    for client in clients:
                        client.close()
            assert Census.peak == 2
            assert rows == {i: [(i + 1,)] for i in range(4)}
        finally:
            database.close()


# -- every thread and socket the server starts has an owner ------------------

class TestResourceOwnership:
    CYCLES = 20

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_start_stop_cycles_leave_no_thread_or_fd(self, gate):
        """Each cycle stops a server holding one idle and one busy
        connection; afterwards threads and fds are back at baseline."""
        database = make_db()
        database.execute(GATED_UDF)
        gc.collect()
        threads_before = set(threading.enumerate())
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            for cycle in range(self.CYCLES):
                GATE.clear()
                STARTED.clear()
                server = DatabaseServer(database, trust_all_clients=True)
                server.start()
                idle = Client(server.host, server.port)
                busy = Client(server.host, server.port)
                outcome = {}
                worker = threading.Thread(target=lambda: outcome.update(
                    rows=busy.execute(
                        f"SELECT gated(id) FROM nums WHERE id = "
                        f"{cycle % 5 + 1}"
                    ).rows
                ))
                worker.start()
                assert STARTED.wait(5)
                stopper = threading.Thread(target=server.stop)
                stopper.start()
                time.sleep(0.01)  # let stop() begin draining
                GATE.set()
                stopper.join(timeout=10)
                worker.join(timeout=10)
                assert not stopper.is_alive() and not worker.is_alive()
                # The busy client got its result, then EOF; the idle
                # one got EOF.
                assert outcome["rows"] == [(cycle % 5 + 1,)]
                assert busy._sock.recv(1) == b""
                assert idle._sock.recv(1) == b""
                idle.close()
                busy.close()
            gc.collect()
            assert set(threading.enumerate()) <= threads_before
            assert threading.active_count() <= len(threads_before)
            assert len(os.listdir("/proc/self/fd")) == fds_before
        finally:
            GATE.set()
            database.close()

    def test_anonymous_sessions_leave_no_tenant_group(self, adb):
        """Each anonymous session is its own tenant; its group goes when
        the session closes.  A named tenant keeps its group."""
        groups = adb.database.thread_groups
        with Client(adb.host, adb.port, tenant="acme") as named:
            named.execute("SELECT id FROM nums WHERE id = 1")
        baseline = groups.names()
        assert "tenant:acme" in baseline
        for __ in range(30):
            with Client(adb.host, adb.port) as client:
                assert client.execute(
                    "SELECT id FROM nums WHERE id = 2"
                ).rows == [(2,)]
        wait_until(lambda: not adb.stats_snapshot()["open_connections"])
        assert groups.names() == baseline


# -- a client that vanishes mid-statement -------------------------------------

class TestClientVanishes:
    def test_disconnect_mid_statement_releases_everything(self, gate):
        database = make_db()
        try:
            with DatabaseServer(
                database, trust_all_clients=True
            ) as server:
                with Client(server.host, server.port) as setup:
                    setup.execute(GATED_UDF)
                client = Client(server.host, server.port, tenant="acme")
                client._send(protocol.OP_EXECUTE, protocol.encode_values(
                    "SELECT gated(id) FROM nums WHERE id = 1"
                ))
                assert STARTED.wait(5)
                client._sock.close()  # gone, without OP_CLOSE
                GATE.set()
                wait_until(lambda: not any(
                    server.stats_snapshot()[key]
                    for key in ("busy_statements", "open_connections")
                ))
                stats = server.stats_snapshot()
                assert stats["busy_statements"] == 0
                assert stats["admission"]["in_flight"] == {}
                group = database.thread_groups.group_for("tenant:acme")
                assert group.reserved == {"fuel": 0, "memory": 0}
                assert group.reservations_by_holder == {}
                with Client(
                    server.host, server.port, tenant="acme"
                ) as again:
                    assert again.execute(
                        "SELECT count(*) FROM nums"
                    ).scalar() == 5
        finally:
            GATE.set()
            database.close()


# -- satellite (c): chunked result streaming ----------------------------------

class TestChunkedStreaming:
    def test_result_frames_chunking_unit(self):
        rows = [(bytes(3 * protocol.RESULT_CHUNK_CAP // 2),)]
        frames = list(protocol.result_frames(["data"], rows, 1))
        assert [op for op, __ in frames[:-1]] == [
            protocol.OP_RESULT_PART
        ]
        assert frames[-1][0] == protocol.OP_RESULT
        assert all(
            len(payload) <= protocol.RESULT_CHUNK_CAP
            for __, payload in frames
        )
        columns, rowcount, decoded = protocol.decode_result(
            b"".join(payload for __, payload in frames)
        )
        assert columns == ["data"] and rowcount == 1
        assert decoded == rows

    def test_small_results_stay_single_frame(self):
        frames = list(protocol.result_frames(["id"], [(1,), (2,)], 2))
        assert len(frames) == 1
        assert frames[0][0] == protocol.OP_RESULT

    def test_large_lob_round_trips(self):
        size = protocol.RESULT_CHUNK_CAP + 500_000
        database = Database()
        try:
            database.execute("CREATE TABLE blobs (id INT, data BYTEARRAY)")
            database.execute(
                f"INSERT INTO blobs VALUES (7, zerobytes({size}))"
            )
            with DatabaseServer(database) as server:
                with Client(server.host, server.port) as client:
                    result = client.execute(
                        "SELECT id, data FROM blobs"
                    )
                    assert result.rows == [(7, bytes(size))]
                    # More bytes than one chunk arrived: it streamed.
                    assert client.bytes_received > protocol.RESULT_CHUNK_CAP
        finally:
            database.close()


# -- satellite (b): server counters surface through db.stats() ----------------

class TestServerStats:
    def test_server_counters_in_db_stats(self, adb):
        with Client(adb.host, adb.port) as client:
            client.execute("SELECT count(*) FROM nums")
            client.execute("SELECT count(*) FROM nums")
            stats = adb.database.stats()["server"]
            assert stats["open_connections"] == 1
        assert stats["sessions_served"] == 1
        assert stats["concurrency"] == adb.concurrency
        # Admissions are counted before a statement runs, so they are
        # settled by the time its reply arrives.
        assert stats["admission"]["admitted"] >= 2
        assert adb.database.stats()["plan_cache"]["hits"] >= 1
        assert stats["snapshots"]["enabled"] is True

    ADMISSION_KEYS = {
        "tenant_slots", "queue_cap", "admitted", "refused", "completed",
        "queued", "in_flight",
    }

    @pytest.mark.parametrize("wal", [False, True], ids=["memory", "wal"])
    def test_server_section_shape(self, tmp_path, wal):
        """The keys and value types of ``db.stats()["server"]``."""
        database = Database(str(tmp_path / "db")) if wal else make_db()
        try:
            with DatabaseServer(database) as server:
                with Client(server.host, server.port) as client:
                    client.execute("CREATE TABLE shape (id INT)")
                    client.execute("INSERT INTO shape VALUES (1)")
                    client.execute("SELECT id FROM shape")
                    stats = database.stats()["server"]
                    probe = server.admission.stats()
        finally:
            database.close()
        assert set(stats) == {
            "concurrency", "sessions_served", "open_connections",
            "busy_statements", "admission", "snapshots",
        } | ({"wal"} if wal else set())
        for key in (
            "concurrency", "sessions_served", "open_connections",
            "busy_statements",
        ):
            assert type(stats[key]) is int, key
        admission = stats["admission"]
        assert set(admission) == set(probe) == self.ADMISSION_KEYS
        for key in self.ADMISSION_KEYS - {"queued", "in_flight"}:
            assert type(admission[key]) is int, key
        for key in ("queued", "in_flight"):
            assert type(admission[key]) is dict, key
            assert all(
                type(tenant) is str and type(count) is int
                for tenant, count in admission[key].items()
            )
        assert type(stats["snapshots"]) is dict
        if wal:
            assert type(stats["wal"]) is dict

    def test_session_counters_thread_safe_increment(self, adb):
        with Client(adb.host, adb.port) as client:
            for __ in range(5):
                client.execute("SELECT count(*) FROM nums")
        # sessions_served moves under the state lock; no torn counts.
        assert adb.stats_snapshot()["sessions_served"] >= 1
