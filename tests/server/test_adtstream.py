"""ADT stream protocol (Section 6.4): round trips and hostile decodes."""

import io
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import adtstream
from repro.storage.lob import LOBRef


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


# -- row batches: a head, then the rows column by column ---------------------

_HEAD = adtstream._BATCH_HEAD
_STR_KIND = adtstream._TAG_STR  # a text column: lengths, then one blob


def _typed(rows):
    """Rows with every value paired with its exact class."""
    return [tuple((type(value), value) for value in row) for row in rows]


#: One strategy per column kind the encoder picks: packed ints and floats,
#: sized text and bytes, and tagged columns (NULLs, bools, float arrays,
#: classes mixed).
_column_values = st.sampled_from([
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.none(),
    st.booleans(),
    _sql_scalars,
    _scalars,
])


@st.composite
def _batches(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=0, max_value=12))
    columns = [
        draw(st.lists(draw(_column_values), min_size=count, max_size=count))
        for __ in range(width)
    ]
    return list(zip(*columns))


@settings(max_examples=300)
@given(_batches())
@example([(2 ** 63 - 1, "héllo ▲", b""), (-(2 ** 63), "", b"\x00")])
@example([(None, True, array("d", [1.5])), (1, False, array("d"))])
@example([(1, 1.5, "x", b"y", None, True, array("d", [2.0]))] * 3)
def test_generated_batches_round_trip_with_exact_types(rows):
    data = adtstream.dump_rows(rows)
    assert _typed(adtstream.load_rows(data)) == _typed(rows)


def test_only_a_column_holding_a_large_object_is_read():
    read = []

    def read_lob(ref):
        read.append(ref)
        return bytes(ref.length)

    rows = [(1, LOBRef(7, 3)), (2, None), (3, LOBRef(9, 0))]
    data = adtstream.dump_rows(rows, read_lob)
    assert adtstream.load_rows(data) == [(1, bytes(3)), (2, None), (3, b"")]
    assert read == [LOBRef(7, 3), LOBRef(9, 0)]
    adtstream.dump_rows([(1, "x")], read_lob)
    assert len(read) == 2


def test_packed_columns_are_smaller_than_tagged_values():
    rows = [(i, f"name{i}") for i in range(100)]
    tagged = sum(len(adtstream.dumps(row)) for row in rows)
    assert len(adtstream.dump_rows(rows)) < tagged * 0.8


#: A batch head with few rows and columns, kind bytes (known ones
#: likelier), then any bytes.
_batch_prefixes = st.builds(
    lambda count, kinds, tail: _HEAD.pack(count, len(kinds)) + kinds + tail,
    st.integers(min_value=0, max_value=6),
    st.lists(
        st.one_of(st.sampled_from([0, 1, 2, 4, 5]),
                  st.integers(min_value=0, max_value=255)),
        max_size=4,
    ).map(bytes),
    st.binary(max_size=80),
)


@settings(max_examples=400)
@given(st.one_of(_batch_prefixes, st.binary(max_size=80)))
@example(_HEAD.pack(2 ** 32 - 1, 0))
@example(_HEAD.pack(1, 1) + bytes([_STR_KIND]) + (2 ** 31).to_bytes(4, "little")
         + b"x")
@example(_HEAD.pack(2 ** 32 - 1, 1) + bytes([1]) + bytes(64))
def test_any_bytes_after_a_batch_head_decode_to_rows_or_raise(data):
    try:
        rows = adtstream.load_rows(data)
    except ProtocolError:
        return
    width = _HEAD.unpack_from(data)[1]
    assert all(len(row) == width and _is_sql_value(row) for row in rows)


@pytest.mark.parametrize("data", [
    _HEAD.pack(2 ** 32 - 1, 0),
    _HEAD.pack(2 ** 32 - 1, 1) + bytes([0]) + bytes(16),
    _HEAD.pack(1, 1) + bytes([_STR_KIND]) + (2 ** 31).to_bytes(4, "little")
    + b"x",
    _HEAD.pack(3, 1) + bytes([_STR_KIND]) + bytes(4),
], ids=["rows without columns", "rows beyond the bytes",
        "lengths beyond the blob", "truncated lengths"])
def test_declared_counts_are_refused_before_allocating(data):
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            adtstream.load_rows(data)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("rows", [
    [(), ()],
    [(1, 2), (3,)],
    [(2 ** 63,)],
    [("\ud800",)],
    [(object(),)],
], ids=["no columns", "ragged", "int past 64 bits", "lone surrogate",
        "object"])
def test_batches_it_cannot_represent_raise_protocol_error(rows):
    with pytest.raises(ProtocolError):
        adtstream.dump_rows(rows)


def test_unknown_column_kind_is_refused():
    with pytest.raises(ProtocolError, match="kind"):
        adtstream.load_rows(_HEAD.pack(1, 1) + bytes([99]) + bytes(8))
