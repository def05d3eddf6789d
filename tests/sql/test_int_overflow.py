"""SQL integer arithmetic stays in the INT type's 64-bit domain.

``+``, ``-`` (binary and unary) and ``*`` on INT values that leave the
domain raise a named :class:`~repro.errors.ExecutionError`, embedded and
through :class:`~repro.server.server.DatabaseServer` alike, instead of
returning a Python int no INT column or wire batch can hold.
``wrap64(...)``, the VM's wrapping arithmetic that inlined UDF bodies
are built from, keeps its two's-complement result.
"""

import pytest

from repro.database import Database
from repro.errors import ExecutionError
from repro.server.client import Client, ServerReportedError
from repro.server.server import DatabaseServer

BIG = 4611686018427387904  # 2**62

OVERFLOWS = [
    (f"SELECT v * {BIG} FROM t", "'*' gives 13835058055282163712"),
    (f"SELECT v + 9223372036854775807 FROM t", "'+' gives"),
    (f"SELECT v - 9223372036854775807 - 5 FROM t", "'-' gives"),
    (f"SELECT -(v - 9223372036854775807 - 4) FROM t", "'-' gives"),
    (f"SELECT v FROM t WHERE v * {BIG} > 0", "'*' gives"),
]


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (v INT)")
    database.execute("INSERT INTO t VALUES (3)")
    yield database
    database.close()


@pytest.mark.parametrize("sql, detail", OVERFLOWS)
def test_embedded_overflow_is_an_execution_error(db, sql, detail):
    with pytest.raises(ExecutionError, match="integer overflow") as excinfo:
        db.query(sql)
    assert detail in str(excinfo.value)


@pytest.mark.parametrize("sql, detail", OVERFLOWS)
def test_served_overflow_is_the_same_error(db, sql, detail):
    with pytest.raises(ExecutionError) as embedded:
        db.query(sql)
    with DatabaseServer(db) as server:
        with Client(server.host, server.port) as client:
            with pytest.raises(ServerReportedError) as served:
                client.execute(sql)
            assert client.execute("SELECT v * 2 FROM t").rows == [(6,)]
    assert served.value.error_class == "ExecutionError"
    assert str(served.value) == f"ExecutionError: {embedded.value}"


def test_results_inside_the_domain_are_unchanged(db):
    assert db.query(
        "SELECT v * 3074457345618258602, v - 9223372036854775807, "
        "-(v - 3), v * 1.5 FROM t"
    ) == [(9223372036854775806, -9223372036854775804, 0, 4.5)]


def test_wrap64_keeps_the_vm_semantics(db):
    assert db.query(f"SELECT wrap64(v * {BIG}) FROM t") == [(-BIG,)]
    assert db.query(
        "SELECT wrap64(v + 9223372036854775807) FROM t"
    ) == [(-9223372036854775806,)]
    # Only wrap64's own argument wraps: an overflow inside it still fails.
    with pytest.raises(ExecutionError, match="integer overflow"):
        db.query(f"SELECT wrap64((v * {BIG}) * 2 + 1) FROM t")


def test_an_overflowing_update_writes_nothing(db):
    with pytest.raises(ExecutionError, match="integer overflow"):
        db.execute(f"UPDATE t SET v = v * {BIG}")
    assert db.query("SELECT v FROM t") == [(3,)]
