"""A UDF's result is a value of its declared type or NULL, in every design.

The call site checks each batch's results against ``RETURNS``: a native
UDF declared ``RETURNS int`` that answers a string raises the engine's
:class:`~repro.errors.UDFInvocationError`, naming the UDF and the type,
whether the value is selected or computed on; an int from a ``RETURNS
float`` UDF is widened, as arguments are.
"""

import pytest

from repro.database import Database
from repro.errors import UDFInvocationError

NATIVE_DESIGNS = ("INTEGRATED", "SFI", "ISOLATED")


def not_an_int(x):
    return "not an int"


def maybe_none(x):
    return None if x % 2 else x


def halve(x):
    return x // 2


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
