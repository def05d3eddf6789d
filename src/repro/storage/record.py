"""Record (tuple) serialization.

Converts typed field values to/from the byte strings stored in slotted
pages.  The format is self-delimiting per field:

* a null bitmap (one bit per column) leads the record;
* INT / FLOAT are fixed 8 bytes, BOOL one byte;
* STRING / BYTES carry a u32 length prefix;
* a BYTES value stored out-of-line is the sentinel length ``0xFFFFFFFF``
  followed by the LOB reference (first page u32 + length u64) — the SQL
  layer decides when to spill to a LOB, this layer just round-trips
  either representation;
* FLOATARR is a u32 element count plus packed doubles.

Decoding goes through a :class:`RecordCodec`, which depends only on the
column types and so is prepared once per schema (each
:class:`~repro.storage.catalog.TableInfo` owns its table's codec).
"""

from __future__ import annotations

import enum
import functools
import struct
from array import array
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import RecordError
from .lob import LOBRef

_LOB_SENTINEL = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_LOBREF = struct.Struct("<IQ")


class ColumnType(enum.Enum):
    """Storage-level column types."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"
    BYTES = "bytes"
    FLOATARR = "floatarr"


FieldValue = Union[None, int, float, bool, str, bytes, LOBRef, array, list]


def serialize_record(
    values: Sequence[FieldValue], types: Sequence[ColumnType]
) -> bytes:
    """Encode one tuple."""
    if len(values) != len(types):
        raise RecordError(
            f"{len(values)} values for {len(types)} columns"
        )
    ncols = len(types)
    bitmap = bytearray((ncols + 7) // 8)
    out = bytearray()
    for index, (value, col_type) in enumerate(zip(values, types)):
        if value is None:
            bitmap[index // 8] |= 1 << (index % 8)
            continue
        out += _encode_field(value, col_type, index)
    return bytes(bitmap) + bytes(out)


_FIXED_FORMATS = {
    ColumnType.INT: "q", ColumnType.FLOAT: "d", ColumnType.BOOL: "?",
}
_STRING, _BYTES, _FLOATARR = _VARIABLE = (
    ColumnType.STRING, ColumnType.BYTES, ColumnType.FLOATARR,
)

#: One decoding step: ``(run, null_bit, variable)``.  One unpack of
#: ``run`` reads fixed-width values; when ``variable`` is set, the run
#: ends with that column's u32 length prefix and its payload follows.
_Step = Tuple[struct.Struct, int, Optional[ColumnType]]


def _layout(types: Sequence[ColumnType], grouped: bool) -> Tuple[_Step, ...]:
    """Grouped, a step spans every fixed-width column up to and including
    the next variable column's prefix (for records without NULLs, whose
    body offsets are the same every time).  Ungrouped, a step is one
    column, skipped when its ``null_bit`` is set in the record's bitmap."""
    steps: List[_Step] = []
    fmt = "<"
    for index, col_type in enumerate(types):
        bit = 0 if grouped else 1 << index
        if col_type in _FIXED_FORMATS:
            fmt += _FIXED_FORMATS[col_type]
            if grouped:
                continue
            steps.append((struct.Struct(fmt), bit, None))
        elif col_type in _VARIABLE:
            steps.append((struct.Struct(fmt + "I"), bit, col_type))
        else:
            raise RecordError(f"unknown column type {col_type}")
        fmt = "<"
    if fmt != "<":
        steps.append((struct.Struct(fmt), 0, None))
    return tuple(steps)


class RecordCodec:
    """One schema's record layout, prepared once, decoding in place.

    A record without NULLs costs one unpack per run of fixed-width
    columns plus one slice per STRING/BYTES/FLOATARR payload; a record
    with NULLs takes the same loop over one step per column.  Both step
    lists are built here, so their size is bounded by the schema, never
    by the records decoded.
    """

    __slots__ = ("_bitmap_size", "_runs", "_columns")

    def __init__(self, types: Sequence[ColumnType]):
        self._bitmap_size = (len(types) + 7) // 8
        self._runs = _layout(types, grouped=True)
        self._columns = _layout(types, grouped=False)

    def decode(self, buf, start: int, end: int) -> List[FieldValue]:
        """Decode the record at ``buf[start:end]`` without copying it.

        ``buf`` may be a whole page, so every offset is checked against
        ``end`` explicitly: ``unpack_from`` would happily read past the
        record into its neighbours.
        """
        bitmap_size = self._bitmap_size
        pos = start + bitmap_size
        if not pos <= end <= len(buf):
            raise RecordError(
                "record shorter than its null bitmap or past its buffer"
            )
        if bitmap_size == 1:
            nulls = buf[start]
        else:
            nulls = int.from_bytes(buf[start:pos], "little")
        values: List[FieldValue] = []
        try:
            for run, bit, variable in self._columns if nulls else self._runs:
                if nulls & bit:
                    values.append(None)
                    continue
                stop = pos + run.size
                if stop > end:
                    raise RecordError("truncated record body")
                fields = run.unpack_from(buf, pos)
                pos = stop
                if variable is None:
                    values += fields
                    continue
                values += fields[:-1]
                n = fields[-1]
                if variable is _BYTES and n == _LOB_SENTINEL:
                    stop = pos + _LOBREF.size
                    if stop > end:
                        raise RecordError("truncated LOB reference")
                    values.append(LOBRef(*_LOBREF.unpack_from(buf, pos)))
                else:
                    stop = pos + (8 * n if variable is _FLOATARR else n)
                    if stop > end:
                        raise RecordError("truncated record body")
                    if variable is _STRING:
                        values.append(buf[pos:stop].decode("utf-8"))
                    elif variable is _BYTES:
                        values.append(bytes(buf[pos:stop]))
                    else:
                        values.append(array("d", buf[pos:stop]))
                pos = stop
        except UnicodeDecodeError as exc:
            raise RecordError(f"STRING is not valid UTF-8: {exc}") from None
        if pos != end:
            raise RecordError(f"{end - pos} trailing bytes after record body")
        return values


def deserialize_record(
    data: bytes, types: Sequence[ColumnType]
) -> List[FieldValue]:
    """Decode one tuple held in a buffer of its own."""
    return _codec_for(tuple(types)).decode(data, 0, len(data))


@functools.lru_cache(maxsize=64)
def _codec_for(types: Tuple[ColumnType, ...]) -> RecordCodec:
    return RecordCodec(types)


def _encode_field(value: FieldValue, col_type: ColumnType, index: int) -> bytes:
    if col_type is ColumnType.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RecordError(f"column {index}: expected int, got {value!r}")
        return _I64.pack(value)
    if col_type is ColumnType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RecordError(f"column {index}: expected float, got {value!r}")
        return _F64.pack(float(value))
    if col_type is ColumnType.BOOL:
        if not isinstance(value, bool):
            raise RecordError(f"column {index}: expected bool, got {value!r}")
        return b"\x01" if value else b"\x00"
    if col_type is ColumnType.STRING:
        if not isinstance(value, str):
            raise RecordError(f"column {index}: expected str, got {value!r}")
        raw = value.encode("utf-8")
        return _U32.pack(len(raw)) + raw
    if col_type is ColumnType.BYTES:
        if isinstance(value, LOBRef):
            return _U32.pack(_LOB_SENTINEL) + _LOBREF.pack(
                value.first_page, value.length
            )
        if isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            if len(raw) >= _LOB_SENTINEL:
                raise RecordError("inline bytes value too large")
            return _U32.pack(len(raw)) + raw
        raise RecordError(f"column {index}: expected bytes, got {value!r}")
    if col_type is ColumnType.FLOATARR:
        if isinstance(value, array) and value.typecode == "d":
            raw = value.tobytes()
        elif isinstance(value, (list, tuple)):
            raw = array("d", [float(x) for x in value]).tobytes()
        else:
            raise RecordError(
                f"column {index}: expected float array, got {value!r}"
            )
        return _U32.pack(len(raw) // 8) + raw
    raise RecordError(f"unknown column type {col_type}")
