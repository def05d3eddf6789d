"""Client/server integration: queries, migration, authorization, sessions."""

import threading

import pytest

from repro.database import Database
from repro.server.client import Client, LocalUDFHarness, ServerReportedError
from repro.server.server import DatabaseServer
from repro.server.session import Session, UNTRUSTED_DESIGNS
from repro.core.designs import Design
from repro.errors import AuthError, ClientError


@pytest.fixture
def served_db():
    database = Database()
    database.execute("CREATE TABLE nums (id INT, v FLOAT)")
    database.execute(
        "INSERT INTO nums VALUES (1, 1.5), (2, 2.5), (3, NULL)"
    )
    with DatabaseServer(database) as server:
        yield server
    database.close()


@pytest.fixture
def client(served_db):
    with Client(served_db.host, served_db.port) as connection:
        yield connection


class TestQueries:
    def test_hello_and_ping(self, client):
        assert client.session_id >= 1
        assert client.ping()

    def test_select_round_trips_types(self, client):
        result = client.execute("SELECT id, v FROM nums ORDER BY id")
        assert result.columns == ["id", "v"]
        assert result.rows == [(1, 1.5), (2, 2.5), (3, None)]

    def test_ddl_and_dml_through_wire(self, client):
        client.execute("CREATE TABLE w (a INT, b STRING)")
        client.execute("INSERT INTO w VALUES (1, 'x'), (2, 'y')")
        assert client.execute("SELECT count(*) FROM w").scalar() == 2

    def test_dml_rowcounts_match_embedded(self, client):
        script = [
            "CREATE TABLE w (a INT, b INT)",
            "INSERT INTO w VALUES (1, 10), (2, 20), (3, 30)",
            "UPDATE w SET b = b + 1 WHERE a >= 2",
            "DELETE FROM w WHERE a = 1",
            "SELECT a FROM w ORDER BY a",
        ]
        embedded = Database()
        try:
            expected = [embedded.execute(sql).rowcount for sql in script]
        finally:
            embedded.close()
        assert expected == [0, 3, 2, 1, 2]
        assert [client.execute(sql).rowcount for sql in script] == expected

    def test_errors_reported_not_fatal(self, client):
        with pytest.raises(ServerReportedError) as info:
            client.execute("SELECT * FROM no_such_table")
        assert info.value.error_class == "CatalogError"
        # The connection survives the error.
        assert client.ping()

    def test_parse_error_reported(self, client):
        with pytest.raises(ServerReportedError) as info:
            client.execute("SELEC oops")
        assert info.value.error_class == "ParseError"

    def test_multiple_clients_served_concurrently(self, served_db):
        results = {}

        def worker(name):
            with Client(served_db.host, served_db.port) as c:
                results[name] = c.execute(
                    "SELECT count(*) FROM nums"
                ).scalar()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {i: 3 for i in range(5)}


class TestMigration:
    """Section 6.4: develop at the client, test locally, migrate."""

    SRC = (
        "def volat(h: farr) -> float:\n"
        "    total: float = 0.0\n"
        "    for i in range(len(h)):\n"
        "        total = total + h[i] * h[i]\n"
        "    return total\n"
    )

    def test_develop_test_migrate_execute(self, client):
        harness = LocalUDFHarness()
        classfile = harness.develop(
            self.SRC, "volat",
            test_vectors=[(([1.0, 2.0],), 5.0), (([],), 0.0)],
        )
        client.register_udf_classfile(
            "volat", ["farr"], "float", classfile
        )
        client.execute("CREATE TABLE series (h TIMESERIES)")
        client.execute("INSERT INTO series VALUES (NULL)")
        # NULL argument -> NULL result (never reaches the UDF).
        assert client.execute("SELECT volat(h) FROM series").rows == [(None,)]

    def test_local_test_failure_blocks_migration(self):
        harness = LocalUDFHarness()
        with pytest.raises(ClientError, match="local test failed"):
            harness.develop(
                self.SRC, "volat", test_vectors=[(([1.0],), 999.0)]
            )

    def test_identical_bytes_run_both_sides(self, client):
        """The portability claim: the classfile bytes the client tested
        are byte-for-byte what the server loads."""
        harness = LocalUDFHarness()
        classfile = harness.compile_to_bytes(
            "def trip(x: int) -> int:\n    return x * 3", "udf_trip"
        )
        local = harness.run(classfile, "trip", [14])
        client.register_udf_classfile("trip", ["int"], "int", classfile)
        remote = client.execute("SELECT trip(id) FROM nums WHERE id = 2")
        assert local == 42
        assert remote.scalar() == 6

    def test_server_reverifies_bad_classfile(self, client):
        with pytest.raises(ServerReportedError) as info:
            client.register_udf_classfile(
                "evil", ["int"], "int", b"JAGC\x01\x00not a classfile"
            )
        assert info.value.error_class in ("ClassFormatError", "VerifyError")

    def test_mock_callbacks_in_local_harness(self):
        harness = LocalUDFHarness(
            mock_callbacks={"cb_lob_length": lambda h: 77}
        )
        src = "def peek(h: int) -> int:\n    return cb_lob_length(h)"
        classfile = harness.compile_to_bytes(src, "udf_peek")
        result = harness.run(
            classfile, "peek", [1], callbacks=["cb_lob_length"]
        )
        assert result == 77


class TestAuthorization:
    def test_untrusted_cannot_register_native_integrated(self, client):
        with pytest.raises(ServerReportedError) as info:
            client.register_udf_classfile(
                "native_sneak", ["int"], "int",
                b"repro.core.generic_udf:noop_native",
                design="native_integrated",
                entry="noop_native",
            )
        assert info.value.error_class == "AuthError"

    def test_trusted_server_mode_allows_native(self):
        database = Database()
        with DatabaseServer(database, trust_all_clients=True) as server:
            with Client(server.host, server.port) as c:
                assert c.trusted
                c.register_udf_classfile(
                    "gen", ["bytes", "int", "int", "int"], "int",
                    b"repro.core.generic_udf:generic_native",
                    design="native_integrated",
                    entry="generic_native",
                )
        database.close()

    def test_session_policy_object(self):
        session = Session(peer="1.2.3.4:5", trusted=False)
        for design in UNTRUSTED_DESIGNS:
            session.check_design_allowed(design)
        with pytest.raises(AuthError):
            session.check_design_allowed(Design.NATIVE_INTEGRATED)
        with pytest.raises(AuthError):
            session.check_design_allowed(Design.NATIVE_SFI)
        trusted = Session(peer="local", trusted=True)
        trusted.check_design_allowed(Design.NATIVE_INTEGRATED)


class TestConcurrentUDFQueries:
    def test_parallel_clients_running_sandboxed_udfs(self, served_db):
        """Multiple client threads exercise the same sandboxed UDF; the
        per-query contexts must not interfere (the server serializes
        statements, but executor state spans queries)."""
        import threading

        with Client(served_db.host, served_db.port) as setup_client:
            setup_client.execute(
                "CREATE FUNCTION sq(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS 'def sq(x: int) -> int: return x * x'"
            )

        results = {}

        def worker(tag):
            with Client(served_db.host, served_db.port) as c:
                values = []
                for __ in range(10):
                    values.append(
                        c.execute("SELECT sq(id) FROM nums WHERE id = 2").scalar()
                    )
                results[tag] = values

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == {i: [4] * 10 for i in range(4)}
