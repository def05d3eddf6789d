"""Stream-serializable ADT values (Section 6.4): the engine's one codec.

"Every data type used by the database server is mirrored by a
corresponding ADT class ... Each ADT class can read an attribute value
of its type from an input stream and construct an object representing
it.  Likewise, the ADT class can write an object back to an output
stream.  ...  At both client and server, UDFs are invoked using the
identical protocol; input parameters are presented as streams, and the
output parameter is expected as a stream."

This module is that protocol, and the engine's only codec at a process
boundary: the wire (:mod:`repro.server.protocol`), the isolated UDF
channel and the zygote's requests (:mod:`repro.core.isolated`).  It
encodes NULL, bool, 64-bit int, float, text, bytes, float arrays and
rows of them, and nothing else, so a hostile client or a corrupt UDF
worker cannot smuggle objects or code through it.  What it cannot
represent raises :class:`~repro.errors.ProtocolError` on either side:
an int outside 64 bits, rows nested deeper than :data:`MAX_ROW_DEPTH`,
and any byte string that is not exactly one encoding.  An error crosses
as its class name and message (:func:`dump_error`).

A single value (a statement's text, a callback and its reply, an error,
a zygote request) is tagged: a tag byte, then its body.  A batch of rows
(:func:`dump_rows`) crosses column by column, each column one typed
stream::

    [u32 rows][u32 columns][u8 kind per column][column ...]

A column's kind comes from the classes it holds, never from an option:
a column of ``int`` alone is one packed little-endian int64 array, of
``float`` alone a float64 array; of ``str`` or ``bytes`` alone a u32
lengths array, then one blob of the values back to back; any other
column (NULLs, bools, float arrays, mixed classes) is its tagged
values.  A wire result set (``OP_RESULT``) is this form, and so are the
denial records an isolated worker's error carries; an isolated shard of
argument rows and a worker's results are single tagged values.
The reader checks every count against the bytes left before it builds
anything, and refuses a batch with rows but no columns.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import ProtocolError
from .storage.lob import LOBRef
from .types import TYPES, Counted, SQLType

_TAG_NULL, _TAG_INT, _TAG_FLOAT, _TAG_BOOL, _TAG_STR, _TAG_BYTES, _TAG_FARR = (
    TYPES[t].tag for t in (SQLType.NULL, SQLType.INT, SQLType.FLOAT,
                           SQLType.BOOL, SQLType.STRING, SQLType.BYTES,
                           SQLType.FLOATARR)
)
#: A row is a wire value but no SQL type.
_TAG_ROW = 7

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_TAGGED_I64 = struct.Struct("<Bq")
_TAGGED_F64 = struct.Struct("<Bd")
_TAGGED_U32 = struct.Struct("<BI")
_INT_MIN, _INT_MAX = TYPES[SQLType.INT].domain
#: Counted values by tag (text, bytes, float arrays): a u32 item count,
#: then items of their type's record format.
_COUNTED = {
    row.tag: row.record
    for row in TYPES.values() if isinstance(row.record, Counted)
}

#: A batch's head: its row count and column count.
_BATCH_HEAD = struct.Struct("<II")
#: The kind byte of a column of tagged values.
_KIND_TAGGED = 0
#: Packed column kinds, by tag: the types whose record format is one
#: 8-byte struct code (int64, float64) pack as one array of it.
_PACKED = {
    row.tag: row.record for row in TYPES.values()
    if isinstance(row.record, str) and struct.calcsize(row.record) == 8
}
#: A column of the one canonical class of a packed type, or of a type
#: counted in bytes (text, bytes: a lengths array and a blob), has that
#: type's tag as its kind; any other column is tagged.
_KIND_OF_CLASS = {
    row.canonical: row.tag for row in TYPES.values()
    if row.tag in _PACKED
    or row.tag in _COUNTED and _COUNTED[row.tag].width == 1
}
#: Packed arrays are little-endian on every host.
_BIG_ENDIAN = sys.byteorder == "big"

#: Size cap: no single value may claim more than this many bytes.
MAX_VALUE_BYTES = 256 * 1024 * 1024
#: Rows nest at most this deep.  The deepest message the engine sends is
#: two levels: a shard of argument rows, or a callback ``(name, args)``.
MAX_ROW_DEPTH = 4


def dumps(value: object) -> bytes:
    """One value's encoding."""
    return dump_values(value)


def dump_values(*values: object) -> bytes:
    """Values' encodings, back to back."""
    out = bytearray()
    for value in values:
        _write(out, value, 0)
    return bytes(out)


def dump_error(exc: BaseException) -> bytes:
    """An error as data: its class name and its message."""
    message = str(exc).encode("utf-8", "backslashreplace").decode("utf-8")
    return dump_values(type(exc).__name__, message)


def loads(data: bytes):
    """The one value ``data`` encodes."""
    return load_values(data, 1)[0]


def load_values(data: bytes, count: int, pos: int = 0) -> tuple:
    """Exactly ``count`` values, back to back from offset ``pos`` to the
    end of ``data``."""
    values = []
    for __ in range(count):
        value, pos = read_value(data, pos)
        values.append(value)
    if pos != len(data):
        raise ProtocolError("trailing bytes after the values")
    return tuple(values)


def load_error(data: bytes, pos: int = 0) -> Tuple[str, str]:
    """The ``(class name, message)`` pair :func:`dump_error` wrote, from
    offset ``pos`` to the end of ``data``."""
    name, message = load_values(data, 2, pos)
    if not isinstance(name, str) or not isinstance(message, str):
        raise ProtocolError("an error is a class name and a message")
    return name, message


# -- row batches ---------------------------------------------------------------


def dump_rows(rows: Sequence[Sequence[object]],
              read_lob: Optional[Callable[[LOBRef], bytes]] = None) -> bytes:
    """A batch of equally wide rows, column by column.

    ``read_lob`` ships a large object by value: only a column that
    holds a :class:`~repro.storage.lob.LOBRef` is read through it.
    """
    width = len(rows[0]) if rows else 0
    if rows and not width:
        raise ProtocolError("a batch with rows has at least one column")
    if len(set(map(len, rows))) > 1:
        raise ProtocolError("rows of a batch differ in width")
    kinds = bytearray()
    body = bytearray()
    for column in zip(*rows):
        classes = set(map(type, column))
        if read_lob is not None and LOBRef in classes:
            column = [
                read_lob(value) if type(value) is LOBRef else value
                for value in column
            ]
            classes = set(map(type, column))
        kind = (_KIND_OF_CLASS.get(classes.pop()) if len(classes) == 1
                else None)
        if kind is None:
            kinds.append(_KIND_TAGGED)
            for value in column:
                _write(body, value, 1)
            continue
        kinds.append(kind)
        if kind in _PACKED:
            try:
                body += _array(_PACKED[kind], column)
            except OverflowError:
                raise ProtocolError("integer outside the 64-bit range") from None
            continue
        if kind == _TAG_STR:
            try:
                column = [value.encode("utf-8") for value in column]
            except UnicodeEncodeError as exc:
                raise ProtocolError(f"string is not valid text: {exc}") from None
        sizes = list(map(len, column))
        if max(sizes) > MAX_VALUE_BYTES:
            raise ProtocolError(f"value exceeds {MAX_VALUE_BYTES} bytes")
        body += _array("I", sizes)
        body += b"".join(column)
    return _BATCH_HEAD.pack(len(rows), width) + kinds + body


def load_rows(data: bytes, pos: int = 0) -> List[tuple]:
    """The rows :func:`dump_rows` wrote, from offset ``pos`` to the end
    of ``data``."""
    rows, pos = read_rows(data, pos)
    if pos != len(data):
        raise ProtocolError("trailing bytes after the batch")
    return rows


def read_rows(data: bytes, pos: int) -> Tuple[List[tuple], int]:
    """``(rows, offset after them)`` for the batch at offset ``pos``.

    Every column spends at least one byte per row, so the header's
    counts are checked against the bytes left before any column is
    built."""
    if pos + _BATCH_HEAD.size > len(data):
        raise ProtocolError("truncated batch header")
    count, width = _BATCH_HEAD.unpack_from(data, pos)
    pos += _BATCH_HEAD.size
    if count and not width:
        raise ProtocolError("a batch with rows has no columns")
    if width + count * width > len(data) - pos:
        raise ProtocolError("batch counts exceed its bytes")
    kinds = data[pos:pos + width]
    pos += width
    columns = []
    for kind in kinds:
        if kind == _KIND_TAGGED:
            column = []
            for __ in range(count):
                value, pos = read_value(data, pos, 1)
                column.append(value)
        elif kind in _PACKED:
            end = pos + 8 * count
            if end > len(data):
                raise ProtocolError("truncated column")
            column = _array(_PACKED[kind], data[pos:end]).tolist()
            pos = end
        elif kind == _TAG_STR or kind == _TAG_BYTES:
            column, pos = _read_sized(data, pos, count, _COUNTED[kind])
        else:
            raise ProtocolError(f"unknown column kind {kind}")
        columns.append(column)
    return list(zip(*columns)), pos


def _read_sized(data: bytes, pos: int, count: int,
                counted: Counted) -> Tuple[list, int]:
    """A lengths array, then one blob holding the values back to back."""
    start = pos + 4 * count
    if start > len(data):
        raise ProtocolError("truncated column")
    sizes = _array("I", data[pos:start])
    if start + sum(sizes) > len(data):
        raise ProtocolError("column lengths exceed its blob")
    bounds = list(accumulate(sizes, initial=start))
    spans = zip(bounds, bounds[1:])
    from_bytes = counted.from_bytes
    try:
        return [from_bytes(data[a:b]) for a, b in spans], bounds[-1]
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 string: {exc}") from None


def _array(typecode: str, source) -> array:
    """An array of ``source``'s items, or of the little-endian items the
    bytes ``source`` packs; its own bytes are little-endian too."""
    items = array(typecode, source)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def _write(out: bytearray, value: object, depth: int) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is True or value is False:
        out += bytes((_TAG_BOOL, value))
    elif isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise ProtocolError("integer outside the 64-bit range")
        out += _TAGGED_I64.pack(_TAG_INT, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _write_sized(out, _TAG_BYTES, bytes(value))
    elif isinstance(value, (tuple, list)):
        if depth >= MAX_ROW_DEPTH:
            raise ProtocolError(f"rows nested deeper than {MAX_ROW_DEPTH}")
        _write_sized(out, _TAG_ROW, b"", len(value))
        for item in value:
            _write(out, item, depth + 1)
    elif isinstance(value, float):
        out += _TAGGED_F64.pack(_TAG_FLOAT, value)
    elif isinstance(value, str):
        try:
            _write_sized(out, _TAG_STR, value.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise ProtocolError(f"string is not valid text: {exc}") from None
    elif isinstance(value, array) and value.typecode == "d":
        _write_sized(out, _TAG_FARR, value.tobytes(), len(value))
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__} is not stream-serializable"
        )


def _write_sized(out: bytearray, tag: int, raw: bytes,
                 count: Optional[int] = None) -> None:
    count = len(raw) if count is None else count
    if len(raw) > MAX_VALUE_BYTES or count > MAX_VALUE_BYTES:
        raise ProtocolError(f"value exceeds {MAX_VALUE_BYTES} bytes")
    out += _TAGGED_U32.pack(tag, count)
    out += raw


def read_value(data: bytes, pos: int, depth: int = 0):
    """``(value, offset after it)`` for the value at offset ``pos``.

    Raises :class:`ProtocolError` on anything but a complete encoding.
    """
    if pos >= len(data):
        raise ProtocolError("unexpected end of stream")
    tag = data[pos]
    if tag == _TAG_INT or tag == _TAG_FLOAT:
        if pos + 9 > len(data):
            raise ProtocolError("truncated value")
        codec = _I64 if tag == _TAG_INT else _F64
        return codec.unpack_from(data, pos + 1)[0], pos + 9
    if tag == _TAG_NULL:
        return None, pos + 1
    if tag == _TAG_BOOL:
        if pos + 2 > len(data):
            raise ProtocolError("truncated value")
        flag = data[pos + 1]
        if flag not in (0, 1):
            raise ProtocolError(f"bad bool byte {flag}")
        return flag == 1, pos + 2
    if tag == _TAG_ROW:
        if depth >= MAX_ROW_DEPTH:
            raise ProtocolError(f"rows nested deeper than {MAX_ROW_DEPTH}")
        count = _count(data, pos + 1, 1)
        pos += 5
        items = []
        for __ in range(count):
            item, pos = read_value(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    counted = _COUNTED.get(tag)
    if counted is None:
        raise ProtocolError(f"unknown value tag {tag}")
    start = pos + 5
    end = start + _count(data, pos + 1, counted.width) * counted.width
    try:
        return counted.from_bytes(data[start:end]), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 string: {exc}") from None


def _count(data: bytes, pos: int, width: int) -> int:
    """The u32 count at ``pos``, of items ``width`` bytes wide (a row's
    items at least one), checked against the size limit and against
    the bytes left after it."""
    if pos + 4 > len(data):
        raise ProtocolError("truncated value")
    count = _U32.unpack_from(data, pos)[0]
    if count * width > MAX_VALUE_BYTES:
        raise ProtocolError(f"declared size {count} exceeds limit")
    if pos + 4 + count * width > len(data):
        raise ProtocolError("truncated value")
    return count
