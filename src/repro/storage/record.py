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

Each type's format is its row of :data:`repro.types.TYPES` (a fixed
:mod:`struct` code or a :class:`~repro.types.Counted` kind), and so is
what a field may hold (:meth:`~repro.types.TypeRow.conform`): encoding
refuses anything else with a :class:`~repro.errors.RecordError`, never a
raw ``struct``, encoding or overflow error.  Both directions go through
a :class:`RecordCodec`, which depends only on the column types and so is
prepared once per schema (each :class:`~repro.storage.catalog.TableInfo`
owns its table's codec).
"""

from __future__ import annotations

import functools
import struct
from array import array
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import RecordError
from ..types import Counted, SQLType
from .lob import LOBRef

_LOB_SENTINEL = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_LOBREF = struct.Struct("<IQ")
#: The one type whose values may live out of line, in a LOB.
_SPILLS = SQLType.BYTES

FieldValue = Union[None, int, float, bool, str, bytes, LOBRef, array, list]


def serialize_record(
    values: Sequence[FieldValue], types: Sequence[SQLType]
) -> bytes:
    """Encode one tuple."""
    codec = _codec_for(tuple(types))
    return codec.encode(codec.conform(values))


#: One decoding step: ``(run, null_bit, width, from_bytes, spills)``.
#: One unpack of ``run`` reads fixed-width values; when ``from_bytes``
#: is set, the run ends with a counted column's u32 count and its
#: ``width * count`` bytes follow (or, when ``spills``, maybe a LOB
#: reference).
_Step = Tuple[struct.Struct, int, int, Optional[object], bool]


def _layout(types: Sequence[SQLType], grouped: bool) -> Tuple[_Step, ...]:
    """Grouped, a step spans every fixed-width column up to and including
    the next counted column's prefix (for records without NULLs, whose
    body offsets are the same every time).  Ungrouped, a step is one
    column, skipped when its ``null_bit`` is set in the record's bitmap."""
    steps: List[_Step] = []
    fmt = "<"
    for index, col_type in enumerate(types):
        bit = 0 if grouped else 1 << index
        record = col_type.row.record
        if isinstance(record, Counted):
            steps.append((struct.Struct(fmt + "I"), bit, record.width,
                          record.from_bytes, col_type is _SPILLS))
        else:
            fmt += record
            if grouped:
                continue
            steps.append((struct.Struct(fmt), bit, 0, None, False))
        fmt = "<"
    if fmt != "<":
        steps.append((struct.Struct(fmt), 0, 0, None, False))
    return tuple(steps)


class RecordCodec:
    """One schema's record layout, prepared once, decoding in place.

    A record without NULLs costs one unpack per run of fixed-width
    columns plus one slice per STRING/BYTES/FLOATARR payload; a record
    with NULLs takes the same loop over one step per column.  Both step
    lists are built here, so their size is bounded by the schema, never
    by the records decoded.
    """

    __slots__ = ("_bitmap_size", "_runs", "_columns", "_rows", "_fields",
                 "_mutable")

    def __init__(self, types: Sequence[SQLType]):
        for col_type in types:
            if not col_type.row.storable:
                raise RecordError(f"type {col_type.row.name} is not storable")
        self._bitmap_size = (len(types) + 7) // 8
        self._runs = _layout(types, grouped=True)
        self._columns = _layout(types, grouped=False)
        self._rows = tuple(col_type.row for col_type in types)
        self._fields = tuple(
            (struct.Struct("<" + row.record), None)
            if isinstance(row.record, str) else (None, row.record)
            for row in self._rows
        )
        #: Columns whose decoded values can be changed in place (arrays).
        self._mutable = tuple(
            index for index, row in enumerate(self._rows)
            if row.canonical is array
        )

    def copy_rows(self, rows: List[List[FieldValue]]) -> List[List[FieldValue]]:
        """Copies of decoded ``rows`` that share nothing mutable with
        them: each row list, and each FLOATARR array in it."""
        if not self._mutable:
            return [row[:] for row in rows]
        mutable = self._mutable
        copies = []
        for row in rows:
            row = row[:]
            for index in mutable:
                if row[index] is not None:
                    row[index] = row[index][:]
            copies.append(row)
        return copies

    def conform(self, values: Sequence[FieldValue]) -> List[FieldValue]:
        """``values`` with each field in its column type's canonical class
        (a FLOAT column's int widened, a BYTES column's bytearray copied);
        NULLs and a BYTES column's LOB references stay as they are.  A
        wrong arity or a field outside its column's type raises
        :class:`RecordError`."""
        rows = self._rows
        if len(values) != len(rows):
            raise RecordError(f"{len(values)} values for {len(rows)} columns")
        conformed = []
        for index, (value, row) in enumerate(zip(values, rows)):
            if value is not None and not (
                value.__class__ is LOBRef and row.sql_type is _SPILLS
            ):
                try:
                    value = row.conform(value)
                except ValueError as exc:
                    raise RecordError(f"column {index}: {exc}") from None
            conformed.append(value)
        return conformed

    def encode(self, values: Sequence[FieldValue]) -> bytes:
        """One record of ``values`` as :meth:`conform` returns them."""
        bitmap = bytearray(self._bitmap_size)
        out = bytearray()
        for index, (value, (fixed, counted)) in enumerate(
            zip(values, self._fields)
        ):
            if value is None:
                bitmap[index // 8] |= 1 << (index % 8)
            elif fixed is not None:
                out += fixed.pack(value)
            elif value.__class__ is LOBRef:
                out += _U32.pack(_LOB_SENTINEL)
                out += _LOBREF.pack(value.first_page, value.length)
            else:
                raw = counted.to_bytes(value)
                count = len(raw) // counted.width
                if count >= _LOB_SENTINEL:
                    raise RecordError(f"column {index}: value too large")
                out += _U32.pack(count)
                out += raw
        return bytes(bitmap) + bytes(out)

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
            for run, bit, width, from_bytes, spills in (
                self._columns if nulls else self._runs
            ):
                if nulls & bit:
                    values.append(None)
                    continue
                stop = pos + run.size
                if stop > end:
                    raise RecordError("truncated record body")
                fields = run.unpack_from(buf, pos)
                pos = stop
                if from_bytes is None:
                    values += fields
                    continue
                values += fields[:-1]
                n = fields[-1]
                if spills and n == _LOB_SENTINEL:
                    stop = pos + _LOBREF.size
                    if stop > end:
                        raise RecordError("truncated LOB reference")
                    values.append(LOBRef(*_LOBREF.unpack_from(buf, pos)))
                else:
                    stop = pos + width * n
                    if stop > end:
                        raise RecordError("truncated record body")
                    values.append(from_bytes(buf[pos:stop]))
                pos = stop
        except UnicodeDecodeError as exc:
            raise RecordError(f"STRING is not valid UTF-8: {exc}") from None
        if pos != end:
            raise RecordError(f"{end - pos} trailing bytes after record body")
        return values


def deserialize_record(
    data: bytes, types: Sequence[SQLType]
) -> List[FieldValue]:
    """Decode one tuple held in a buffer of its own."""
    return _codec_for(tuple(types)).decode(data, 0, len(data))


@functools.lru_cache(maxsize=64)
def _codec_for(types: Tuple[SQLType, ...]) -> RecordCodec:
    return RecordCodec(types)
