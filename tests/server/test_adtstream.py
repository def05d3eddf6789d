"""ADT stream protocol (Section 6.4): round trips and hostile decodes."""

import io
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import adtstream


def roundtrip(value):
    return adtstream.loads(adtstream.dumps(value))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2 ** 63 - 1,
            -(2 ** 63),
            1.5,
            float("inf"),
            "",
            "héllo ▲",
            b"",
            b"\x00\xff" * 100,
        ],
    )
    def test_scalars(self, value):
        assert roundtrip(value) == value

    def test_bool_not_confused_with_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_float_array(self):
        values = array("d", [1.0, -2.5, 3.25])
        result = roundtrip(values)
        assert isinstance(result, array) and result == values

    def test_rows(self):
        row = (1, "x", None, b"\x01", 2.5)
        assert roundtrip(row) == row

    def test_nested_rows(self):
        assert roundtrip((1, (2, (3,)))) == (1, (2, (3,)))

    def test_list_becomes_tuple(self):
        assert roundtrip([1, 2]) == (1, 2)

    def test_row_batch(self):
        rows = [(1, "a"), (2, None)]
        assert adtstream.load_rows(adtstream.dump_rows(rows)) == rows

    def test_bytearray_encodes_as_bytes(self):
        assert roundtrip(bytearray(b"xy")) == b"xy"


class TestRejection:
    def test_unknown_tag(self):
        with pytest.raises(ProtocolError, match="tag"):
            adtstream.loads(b"\x63")

    def test_truncated(self):
        data = adtstream.dumps("hello")
        for cut in range(len(data)):
            with pytest.raises(ProtocolError):
                adtstream.loads(data[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(ProtocolError, match="trailing"):
            adtstream.loads(adtstream.dumps(1) + b"\x00")

    def test_oversized_declared_length(self):
        bad = bytes([4]) + (2 ** 30).to_bytes(4, "little") + b"x"
        with pytest.raises(ProtocolError, match="exceeds"):
            adtstream.loads(bad)

    def test_bad_bool_byte(self):
        with pytest.raises(ProtocolError, match="bool"):
            adtstream.loads(bytes([3, 7]))

    def test_invalid_utf8(self):
        bad = bytes([4]) + (2).to_bytes(4, "little") + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="utf-8"):
            adtstream.loads(bad)

    def test_unserializable_value(self):
        with pytest.raises(ProtocolError):
            adtstream.dumps(object())

    @settings(max_examples=200)
    @given(st.binary(max_size=60))
    def test_random_bytes_never_crash(self, data):
        try:
            adtstream.loads(data)
        except ProtocolError:
            pass


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=60),
)


@settings(max_examples=150)
@given(st.lists(_scalars, max_size=6).map(tuple))
def test_row_roundtrip_property(row):
    assert roundtrip(row) == row


# -- the codec guards every process boundary: nothing escapes it but data ----


def _is_sql_value(value, depth=0):
    if isinstance(value, tuple):
        return depth < adtstream.MAX_ROW_DEPTH and all(
            _is_sql_value(item, depth + 1) for item in value
        )
    if isinstance(value, array):
        return value.typecode == "d"
    return value is None or isinstance(value, (bool, int, float, str, bytes))


def _nest(depth):
    value = 1
    for __ in range(depth):
        value = (value,)
    return value


#: Row headers (tag 7, one item) nested ``depth`` deep, then any bytes.
_nested_rows = st.builds(
    lambda depth, tail: bytes([7, 1, 0, 0, 0]) * depth + tail,
    st.integers(min_value=0, max_value=5000),
    st.binary(max_size=20),
)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=200), _nested_rows))
@example(bytes([7, 1, 0, 0, 0]) * 200000)
def test_any_bytes_decode_to_a_sql_value_or_raise_protocol_error(data):
    try:
        value = adtstream.loads(data)
    except ProtocolError:
        return
    assert _is_sql_value(value)


_sql_scalars = st.one_of(
    _scalars,
    st.lists(st.floats(allow_nan=False), max_size=5).map(
        lambda items: array("d", items)
    ),
)


def _sql_values(depth):
    if depth == 0:
        return _sql_scalars
    return st.one_of(
        _sql_scalars,
        st.lists(_sql_values(depth - 1), max_size=4).map(tuple),
    )


@settings(max_examples=300)
@given(_sql_values(adtstream.MAX_ROW_DEPTH))
def test_generated_sql_values_round_trip(value):
    assert roundtrip(value) == value


@settings(max_examples=100)
@given(st.one_of(
    st.integers(min_value=2 ** 63),
    st.integers(max_value=-(2 ** 63) - 1),
    st.integers(min_value=2 ** 63).map(lambda big: ("row", (big,))),
    st.integers(
        min_value=adtstream.MAX_ROW_DEPTH + 1, max_value=2000
    ).map(_nest),
    st.just("\ud800"),
    st.just(object()),
))
@example(2 ** 70)
def test_values_it_cannot_represent_raise_protocol_error(value):
    with pytest.raises(ProtocolError):
        adtstream.dumps(value)
