"""SQL integer arithmetic stays in the INT type's 64-bit domain.

``+``, ``-`` (binary and unary), ``*``, ``/`` and SUM on INT values that
leave the domain raise a named :class:`~repro.errors.ExecutionError`,
embedded and through :class:`~repro.server.server.DatabaseServer` alike,
instead of returning a Python int no INT column or wire batch can hold;
an INT literal past the domain is a :class:`~repro.errors.LexError`
before anything is planned.  SUM over INT adds exactly, in an int.
``wrap64(...)``, the VM's wrapping arithmetic that inlined UDF bodies
are built from, keeps its two's-complement result.
"""

import pytest

from repro.database import Database
from repro.errors import ExecutionError, LexError
from repro.server.client import Client, ServerReportedError
from repro.server.server import DatabaseServer
from repro.sql.parser import parse_statement
from repro.sql.planner import plan_select
from repro.types import SQLType

BIG = 4611686018427387904  # 2**62

OVERFLOWS = [
    (f"SELECT v * {BIG} FROM t", "'*' gives 13835058055282163712"),
    (f"SELECT v + 9223372036854775807 FROM t", "'+' gives"),
    (f"SELECT v - 9223372036854775807 - 5 FROM t", "'-' gives"),
    (f"SELECT -(v - 9223372036854775807 - 4) FROM t", "'-' gives"),
    (f"SELECT v FROM t WHERE v * {BIG} > 0", "'*' gives"),
    (f"SELECT (v - 9223372036854775807 - 4) / -1 FROM t",
     "'/' gives 9223372036854775808"),
]

#: ``2**53 + 1`` is the least int a float cannot hold.
BEYOND_FLOAT = 9007199254740993


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


def served(db, sql):
    """``sql``'s rows, or its error, through a server over ``db``."""
    with DatabaseServer(db) as server:
        with Client(server.host, server.port) as client:
            try:
                return client.execute(sql).rows
            except ServerReportedError as exc:
                return exc


@pytest.fixture
def exact_db():
    database = Database()
    database.execute("CREATE TABLE e (g INT, v INT, f FLOAT)")
    database.insert_rows("e", [(1, -7, 0.5), (1, 3, None),
                               (2, BEYOND_FLOAT, 2.0), (2, None, -1.5)])
    yield database
    database.close()


@pytest.mark.parametrize("sql, rows", [
    ("SELECT sum(v) FROM e", [(9007199254740989,)]),
    ("SELECT g, sum(v), min(v), max(v) FROM e GROUP BY g",
     [(1, -4, -7, 3), (2, BEYOND_FLOAT, BEYOND_FLOAT, BEYOND_FLOAT)]),
    ("SELECT sum(DISTINCT v), count(v), count(*) FROM e",
     [(9007199254740989, 3, 4)]),
    ("SELECT sum(f), min(f), avg(v) FROM e WHERE g = 1",
     [(0.5, 0.5, -2.0)]),
    ("SELECT sum(v), min(v), count(v) FROM e WHERE g > 2",
     [(None, None, 0)]),
])
def test_aggregates_are_exact_and_typed_embedded_and_served(
        exact_db, sql, rows):
    """SUM over INT adds in an int: the float sum would give
    9007199254740988.0.  Served rows have the same values and classes."""
    embedded = exact_db.query(sql)
    assert embedded == rows
    over_wire = served(exact_db, sql)
    assert over_wire == rows
    for got in (embedded, over_wire):
        assert [list(map(type, row)) for row in got] == [
            list(map(type, row)) for row in rows
        ]


def test_sum_min_and_max_take_their_argument_type(exact_db):
    plan = plan_select(parse_statement(
        "SELECT sum(v), min(v), max(f), sum(f), avg(v), count(f), "
        "sum(v * 2), max(v / 2.0) FROM e"
    ), exact_db.catalog)
    assert [column.sql_type for column in plan.schema.columns] == [
        SQLType.INT, SQLType.INT, SQLType.FLOAT, SQLType.FLOAT,
        SQLType.FLOAT, SQLType.INT, SQLType.INT, SQLType.FLOAT,
    ]


@pytest.mark.parametrize("values, total", [
    ([9223372036854775807, 1], 9223372036854775808),
    ([-9223372036854775807, -2], -9223372036854775809),
])
def test_a_sum_outside_the_domain_is_the_same_error_served(values, total):
    db = Database()
    db.execute("CREATE TABLE s (g INT, v INT)")
    db.insert_rows("s", [(1, value) for value in values])
    try:
        for sql in ("SELECT sum(v) FROM s", "SELECT g, sum(v) FROM s GROUP BY g"):
            with pytest.raises(ExecutionError) as embedded:
                db.query(sql)
            assert str(embedded.value) == (
                f"integer overflow: 'sum' gives {total}, outside the 64-bit "
                f"INT range"
            )
            error = served(db, sql)
            assert error.error_class == "ExecutionError"
            assert str(error) == f"ExecutionError: {embedded.value}"
        # AVG does not refuse: its total is exact and its result a float.
        assert db.query("SELECT avg(v) FROM s") == [(total / 2,)]
    finally:
        db.close()


@pytest.mark.parametrize("sql", [
    "SELECT 99999999999999999999 FROM t",
    "SELECT v FROM t WHERE v < 9223372036854775808",
    "INSERT INTO t VALUES (18446744073709551616)",
    "SELECT -9223372036854775808 FROM t",
])
def test_an_int_literal_outside_the_domain_is_refused_before_planning(
        db, sql):
    with pytest.raises(LexError, match="outside the 64-bit INT range") as (
            embedded):
        db.query(sql)
    error = served(db, sql)
    assert error.error_class == "LexError"
    assert str(error) == f"LexError: {embedded.value}"
    assert db.query("SELECT v FROM t") == [(3,)]


def test_the_int_domain_ends_are_written_as_literals(db):
    assert db.query(
        "SELECT 9223372036854775807, -9223372036854775807 - 1, "
        "(-9223372036854775807 - 1) / 1 FROM t"
    ) == [(9223372036854775807, -9223372036854775808, -9223372036854775808)]
