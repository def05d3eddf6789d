"""A UDF's result is a value of its declared type or NULL, in every design.

The call site checks each batch's results against ``RETURNS``: a native
UDF declared ``RETURNS int`` that answers a string raises the engine's
:class:`~repro.errors.UDFInvocationError`, naming the UDF and the type,
whether the value is selected or computed on; an int from a ``RETURNS
float`` UDF is widened, as arguments are.  A result leaves the call site
in its type's canonical class whichever design ran it: ``bytes`` for
BYTES (a sandbox's ``bytearray`` included), ``array('d')`` for FLOATARR
(a native list or an isolated worker's tuple included).
"""

from array import array

import pytest

from repro.database import Database
from repro.errors import UDFInvocationError

NATIVE_DESIGNS = ("INTEGRATED", "SFI", "ISOLATED")
SANDBOX_DESIGNS = ("SANDBOX_JIT", "SANDBOX_INTERP", "SANDBOX_ISOLATED")


def not_an_int(x):
    return "not an int"


def maybe_none(x):
    return None if x % 2 else x


def halve(x):
    return x // 2


def mutable_copy(data):
    return bytearray(data)


def float_list(x):
    return [float(x), 2.0]


def text_list(x):
    return ["a"]


def int_array(x):
    return array("i", [x])


def too_big(x):
    return 2 ** 70


def _db(design, payload, returns="int"):
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    for value in (1, 2, 3):
        db.execute(f"INSERT INTO t VALUES ({value})")
    db.execute(
        f"CREATE FUNCTION w(int) RETURNS {returns} LANGUAGE NATIVE "
        f"DESIGN {design} AS 'tests.sql.test_udf_results:{payload}'"
    )
    return db


@pytest.mark.parametrize("design", ["ISOLATED", "INTEGRATED"])
@pytest.mark.parametrize("sql", ["SELECT w(a) FROM t",
                                 "SELECT w(a) + 1 FROM t"])
def test_wrong_result_type_is_an_engine_error(design, sql):
    with _db(design, "not_an_int") as db:
        with pytest.raises(UDFInvocationError) as excinfo:
            db.query(sql)
    message = str(excinfo.value)
    assert "'w'" in message and "str" in message and "int" in message


@pytest.mark.parametrize("design", NATIVE_DESIGNS)
def test_null_is_a_value_of_every_type(design):
    with _db(design, "maybe_none") as db:
        assert db.query("SELECT w(a) FROM t ORDER BY a") == [
            (None,), (2,), (None,)
        ]


@pytest.mark.parametrize("design", NATIVE_DESIGNS)
def test_int_result_of_a_float_udf_is_widened(design):
    with _db(design, "halve", returns="float") as db:
        rows = db.query("SELECT w(a) FROM t ORDER BY a")
    assert rows == [(0.0,), (1.0,), (1.0,)]
    assert all(type(value) is float for (value,) in rows)


@pytest.mark.parametrize("design", NATIVE_DESIGNS + SANDBOX_DESIGNS)
def test_bytes_result_is_bytes_in_every_design(design):
    """A ``RETURNS bytes`` UDF answers ``bytes``, the column's class:
    a native UDF's ``bytearray`` and a sandbox's byte array alike."""
    if design in NATIVE_DESIGNS:
        body = (f"LANGUAGE NATIVE DESIGN {design} "
                "AS 'tests.sql.test_udf_results:mutable_copy'")
    else:
        body = (f"LANGUAGE JAGUAR DESIGN {design} AS "
                "'def same(b: bytes) -> bytes:\n    return b\n'")
    with Database() as db:
        db.execute("CREATE TABLE t (b BYTEARRAY)")
        db.execute("INSERT INTO t VALUES (patbytes(3, 7))")
        db.execute(f"CREATE FUNCTION same(bytes) RETURNS bytes {body}")
        [(result, column)] = db.query("SELECT same(b), b FROM t")
    assert result == column
    assert type(result) is bytes and type(column) is bytes


@pytest.mark.parametrize("design", NATIVE_DESIGNS)
def test_float_list_is_a_float_array(design):
    with _db(design, "float_list", returns="farr") as db:
        rows = db.query("SELECT w(a) FROM t ORDER BY a")
        db.execute("CREATE TABLE s (v FLOATARRAY)")
        db.execute("INSERT INTO s VALUES (w(1))")
        [(stored,)] = db.query("SELECT v FROM s")
    assert rows == [(array("d", [x, 2.0]),) for x in (1.0, 2.0, 3.0)]
    assert all(type(value) is array for (value,) in rows)
    assert stored == array("d", [1.0, 2.0])


@pytest.mark.parametrize("design", NATIVE_DESIGNS)
@pytest.mark.parametrize("payload, returns", [
    ("text_list", "farr"),
    ("int_array", "farr"),
    ("too_big", "int"),
])
def test_value_outside_the_type_is_an_engine_error(design, payload, returns):
    """Selected or written, a result outside its declared type raises
    UDFInvocationError naming the UDF; nothing reaches a column."""
    with _db(design, payload, returns=returns) as db:
        db.execute("CREATE TABLE s (a INT, v FLOATARRAY, i INT)")
        db.execute("INSERT INTO s VALUES (1, NULL, NULL)")
        column = "v" if returns == "farr" else "i"
        for sql in ("SELECT w(a) FROM t",
                    f"UPDATE s SET {column} = w(a)"):
            with pytest.raises(UDFInvocationError, match="'w'"):
                db.query(sql)
        assert db.query("SELECT v, i FROM s") == [(None, None)]


@pytest.mark.parametrize("design", NATIVE_DESIGNS)
@pytest.mark.parametrize("payload, returns, detail", [
    ("text_list", "farr", "'a'"),
    ("int_array", "farr", "typecode"),
    ("too_big", "int", "1180591620717411303424"),
])
def test_every_native_design_refuses_with_one_message(
        design, payload, returns, detail):
    """An isolated worker conforms its results to RETURNS before it
    encodes them, so Design 2 refuses a value outside the type with the
    in-process designs' message, not an encoder's."""
    with _db(design, payload, returns=returns) as db:
        with pytest.raises(UDFInvocationError) as excinfo:
            db.query("SELECT w(a) FROM t")
    message = str(excinfo.value)
    assert message.startswith(
        f"UDF 'w' returned a value outside its declared type {returns}: "
    ), message
    assert detail in message and "remotely" not in message
