"""Record serialization: round trips (incl. property-based) and errors."""

import struct
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RecordError
from repro.storage.lob import LOBRef
from repro.types import SQLType
from repro.storage.record import (
    deserialize_record,
    serialize_record,
)

ALL_TYPES = [
    SQLType.INT,
    SQLType.FLOAT,
    SQLType.BOOL,
    SQLType.STRING,
    SQLType.BYTES,
    SQLType.FLOATARR,
]


def roundtrip(values, types):
    return deserialize_record(serialize_record(values, types), types)


class TestRoundTrips:
    def test_full_row(self):
        row = [42, 2.5, True, "héllo", b"\x00\xff", array("d", [1.0, -2.0])]
        assert roundtrip(row, ALL_TYPES) == row

    def test_all_nulls(self):
        row = [None] * 6
        assert roundtrip(row, ALL_TYPES) == row

    def test_mixed_nulls(self):
        row = [1, None, False, None, b"", None]
        assert roundtrip(row, ALL_TYPES) == row

    def test_lob_reference(self):
        row = [LOBRef(first_page=7, length=123456)]
        assert roundtrip(row, [SQLType.BYTES]) == row

    def test_int_extremes(self):
        for value in (-(2 ** 63), 2 ** 63 - 1, 0):
            assert roundtrip([value], [SQLType.INT]) == [value]

    def test_float_promotion_of_int(self):
        assert roundtrip([3], [SQLType.FLOAT]) == [3.0]

    def test_empty_string_and_bytes(self):
        assert roundtrip(["", b""], [SQLType.STRING, SQLType.BYTES]) == ["", b""]

    def test_wide_row(self):
        types = [SQLType.INT] * 40
        row = list(range(40))
        assert roundtrip(row, types) == row


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(RecordError):
            serialize_record([1, 2], [SQLType.INT])

    def test_type_mismatches(self):
        cases = [
            ("x", SQLType.INT),
            (True, SQLType.INT),
            (b"x", SQLType.STRING),
            ("x", SQLType.BYTES),
            (1, SQLType.BOOL),
            ("x", SQLType.FLOATARR),
            (2 ** 70, SQLType.INT),
            (["a"], SQLType.FLOATARR),
            (10 ** 400, SQLType.FLOAT),
            ("\ud800", SQLType.STRING),
        ]
        for value, col_type in cases:
            with pytest.raises(RecordError):
                serialize_record([value], [col_type])

    def test_truncated_record(self):
        data = serialize_record([12345], [SQLType.INT])
        with pytest.raises(RecordError):
            deserialize_record(data[:-2], [SQLType.INT])

    def test_trailing_garbage(self):
        data = serialize_record([1], [SQLType.INT])
        with pytest.raises(RecordError):
            deserialize_record(data + b"!", [SQLType.INT])

    def test_empty_input(self):
        with pytest.raises(RecordError):
            deserialize_record(b"", [SQLType.INT])

    def test_truncated_inside_a_bool(self):
        # Used to escape as a bare IndexError from ``data[pos]``.
        types = [SQLType.INT, SQLType.BOOL]
        data = serialize_record([1, True], types)
        with pytest.raises(RecordError):
            deserialize_record(data[:-1], types)

    def test_invalid_utf8_string(self):
        # Used to escape as UnicodeDecodeError.
        data = b"\x00" + struct.pack("<I", 2) + b"\xff\xfe"
        with pytest.raises(RecordError, match="UTF-8"):
            deserialize_record(data, [SQLType.STRING])

    def test_truncated_lob_reference(self):
        data = serialize_record([LOBRef(3, 10)], [SQLType.BYTES])
        with pytest.raises(RecordError):
            deserialize_record(data[:-1], [SQLType.BYTES])

    def test_floatarr_count_past_the_end(self):
        data = b"\x00" + struct.pack("<I", 3) + bytes(16)
        with pytest.raises(RecordError):
            deserialize_record(data, [SQLType.FLOATARR])


_value_strategies = {
    SQLType.INT: st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    SQLType.FLOAT: st.floats(allow_nan=False),
    SQLType.BOOL: st.booleans(),
    SQLType.STRING: st.text(max_size=50),
    SQLType.BYTES: st.binary(max_size=100),
    SQLType.FLOATARR: st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=10
    ).map(lambda xs: array("d", xs)),
}


@st.composite
def typed_rows(draw):
    types = draw(
        st.lists(st.sampled_from(ALL_TYPES), min_size=1, max_size=8)
    )
    values = [
        draw(st.one_of(st.none(), _value_strategies[t])) for t in types
    ]
    return types, values


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(typed_rows())
def test_roundtrip_property(case):
    types, values = case
    result = roundtrip(values, types)
    assert len(result) == len(values)
    for out, original in zip(result, values):
        if isinstance(original, array):
            assert isinstance(out, array) and list(out) == list(original)
        else:
            assert out == original
