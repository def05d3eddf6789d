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
"""

from __future__ import annotations

import struct
from array import array
from typing import List, Optional, Sequence, Tuple

from .errors import ProtocolError

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_BOOL = 3
_TAG_STR = 4
_TAG_BYTES = 5
_TAG_FARR = 6
_TAG_ROW = 7

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_TAGGED_I64 = struct.Struct("<Bq")
_TAGGED_F64 = struct.Struct("<Bd")
_TAGGED_U32 = struct.Struct("<BI")
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
#: Bytes per item of each counted value (str and bytes count bytes).
_WIDTHS = {_TAG_STR: 1, _TAG_BYTES: 1, _TAG_FARR: 8}

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


def dump_rows(rows: Sequence[Sequence[object]]) -> bytes:
    """A row count, then each row."""
    return _U32.pack(len(rows)) + dump_values(*map(tuple, rows))


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


def load_rows(data: bytes, pos: int = 0) -> List[tuple]:
    """The rows :func:`dump_rows` wrote, from offset ``pos``."""
    rows = load_values(data, _count(data, pos, 1), pos + 4)
    if not all(isinstance(row, tuple) for row in rows):
        raise ProtocolError("row payload did not contain a row")
    return list(rows)


def load_error(data: bytes) -> Tuple[str, str]:
    """The ``(class name, message)`` pair :func:`dump_error` wrote."""
    name, message = load_values(data, 2)
    if not isinstance(name, str) or not isinstance(message, str):
        raise ProtocolError("an error is a class name and a message")
    return name, message


def _write(out: bytearray, value: object, depth: int) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is True or value is False:
        out += bytes((_TAG_BOOL, value))
    elif isinstance(value, int):
        if not _I64_MIN <= value <= _I64_MAX:
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
    width = _WIDTHS.get(tag)
    if width is None:
        raise ProtocolError(f"unknown value tag {tag}")
    start = pos + 5
    end = start + _count(data, pos + 1, width) * width
    if tag == _TAG_BYTES:
        return bytes(data[start:end]), end
    if tag == _TAG_FARR:
        return array("d", data[start:end]), end
    try:
        return str(data[start:end], "utf-8"), end
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
