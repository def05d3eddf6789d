"""The type table: every row is read by each layer, and every storable
type's values round-trip through each codec in their canonical class.

A value of a storable type goes through three paths: a page record
(``serialize_record``/``deserialize_record``), a tagged adtstream value
(``dumps``/``loads``) and an adtstream row batch
(``dump_rows``/``load_rows``); each must give back an equal value of the
row's canonical class.  Arbitrary bytes given to a generated schema's
:class:`~repro.storage.record.RecordCodec` decode or raise
:class:`~repro.errors.RecordError`, nothing else.
"""

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import adtstream
from repro.core.udf import UDFSignature
from repro.errors import (
    ParseError, PlanError, RecordError, UDFRegistrationError,
)
from repro.sql.parser import parse_statement
from repro.storage.record import (
    RecordCodec, deserialize_record, serialize_record,
)
from repro.types import TYPES, SQLType

STORABLE = [t for t in SQLType if t.row.storable]

#: One value of each type, in its canonical class.
SAMPLES = {
    SQLType.INT: 7,
    SQLType.FLOAT: 2.5,
    SQLType.BOOL: True,
    SQLType.STRING: "é",
    SQLType.BYTES: b"\x00\xff",
    SQLType.FLOATARR: array("d", [1.5, -2.0]),
    SQLType.HANDLE: 3,
    SQLType.NULL: None,
}


def test_the_table_has_a_row_per_type():
    assert set(TYPES) == set(SQLType) == set(SAMPLES)
    assert all(row.sql_type is t for t, row in TYPES.items())


@pytest.mark.parametrize("sql_type", list(SQLType), ids=lambda t: t.name)
def test_every_row_is_read_by_each_layer(sql_type):
    row = sql_type.row
    sample = SAMPLES[sql_type]
    # The parser: every spelling, in a column and in a UDF signature.
    for spelling in row.spellings:
        assert SQLType(spelling.upper()) is sql_type
        create_table = f"CREATE TABLE s (a {spelling})"
        create_function = (f"CREATE FUNCTION f({spelling}) RETURNS int "
                           "LANGUAGE JAGUAR DESIGN SANDBOX AS 'x'")
        if row.storable:
            table = parse_statement(create_table)
            assert table.columns[0].sql_type is sql_type
        else:
            with pytest.raises((ParseError, PlanError)):
                parse_statement(create_table)
        if row.udf_name is not None:
            function = parse_statement(create_function)
            assert function.param_types == (row.udf_name,)
        else:
            with pytest.raises(ParseError):
                parse_statement(create_function)
    # The record codec.
    if row.storable:
        record = serialize_record([sample], [sql_type])
        assert deserialize_record(record, [sql_type]) == [sample]
    else:
        with pytest.raises(RecordError, match="not storable"):
            RecordCodec([sql_type])
    # adtstream.
    if row.tag is not None:
        assert adtstream.dumps(sample)[0] == row.tag
    # The UDF boundary.
    if row.udf_name is not None:
        signature = UDFSignature((row.udf_name,), row.udf_name)
        assert signature.param_types == (sql_type,)
        assert signature.vm_param_types() == (row.vm_type,)
        assert signature.names == ([row.udf_name], row.udf_name)
        assert row.conform(sample) is sample
    else:
        with pytest.raises(UDFRegistrationError):
            UDFSignature((sql_type.value,), "int")


_VALUES = {
    SQLType.INT: st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    SQLType.FLOAT: st.floats(allow_nan=False),
    SQLType.BOOL: st.booleans(),
    SQLType.STRING: st.text(max_size=40),
    SQLType.BYTES: st.binary(max_size=60),
    SQLType.FLOATARR: st.lists(st.floats(allow_nan=False), max_size=8).map(
        lambda xs: array("d", xs)
    ),
}
#: Values of the other classes a type accepts, with what they become.
_ACCEPTED = {
    SQLType.FLOAT: st.integers(-(2 ** 60), 2 ** 60).map(
        lambda x: (x, float(x))),
    SQLType.BYTES: st.binary(max_size=60).map(
        lambda b: (bytearray(b), b)),
    SQLType.FLOATARR: st.lists(st.floats(allow_nan=False), max_size=8).map(
        lambda xs: (xs, array("d", xs))),
}


def _same(out, value, sql_type):
    assert type(out) is sql_type.row.canonical
    assert out == value


@st.composite
def _columns(draw):
    """A storable type and one to five values of it."""
    sql_type = draw(st.sampled_from(STORABLE))
    values = draw(st.lists(_VALUES[sql_type], min_size=1, max_size=5))
    return sql_type, values


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_columns())
def test_values_round_trip_every_path(case):
    sql_type, values = case
    for value in values:
        record = serialize_record([value], [sql_type])
        [out] = deserialize_record(record, [sql_type])
        _same(out, value, sql_type)
        _same(adtstream.loads(adtstream.dumps(value)), value, sql_type)
    batch = adtstream.load_rows(adtstream.dump_rows([(v,) for v in values]))
    for (out,), value in zip(batch, values):
        _same(out, value, sql_type)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_ACCEPTED, key=lambda t: t.name)).flatmap(
    lambda t: st.tuples(st.just(t), _ACCEPTED[t])))
def test_accepted_classes_are_stored_canonical(case):
    sql_type, (value, canonical) = case
    [out] = deserialize_record(
        serialize_record([value], [sql_type]), [sql_type])
    _same(out, canonical, sql_type)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(STORABLE), min_size=1, max_size=10),
       st.binary(max_size=120))
def test_arbitrary_bytes_decode_or_raise_record_error(types, data):
    try:
        RecordCodec(types).decode(data, 0, len(data))
    except RecordError:
        pass


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_damaged_records_decode_or_raise_record_error(data):
    """A valid record with one byte changed, or cut short."""
    types = data.draw(st.lists(st.sampled_from(STORABLE), min_size=1,
                               max_size=8))
    values = [data.draw(st.one_of(st.none(), _VALUES[t])) for t in types]
    record = bytearray(serialize_record(values, types))
    position = data.draw(st.integers(0, len(record) - 1))
    record[position] = data.draw(st.integers(0, 255))
    end = data.draw(st.integers(0, len(record)))
    try:
        RecordCodec(types).decode(record, 0, end)
    except RecordError:
        pass
