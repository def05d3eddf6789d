"""The type table: one row per SQL type, read by every layer.

Section 6.4: "every data type used by the database server is mirrored
by a corresponding ADT class", with "the identical protocol" at client
and server.  Each type's facts live in one :class:`TypeRow` of
:data:`TYPES`; the record codec, the SQL parser and catalog, the UDF
boundary and :mod:`repro.adtstream` read them there when they build a
codec, a call site or a plan, never per value.  A row's columns:

* ``sql_type``: the enum member, whose value names a column's type in
  ``catalog.json``; ``spellings``: every way SQL writes the type, in
  CREATE TABLE and CREATE FUNCTION alike; ``udf_name``: the name a UDF
  signature persists, None when no UDF may declare the type;
* ``record``: the page-record format, a :mod:`struct` code or a
  :class:`Counted` kind, None when the type cannot be stored;
* ``canonical``: the class its values have past any boundary;
  ``accepts``: the classes ``normalise`` turns into it (the canonical
  class too when a value still needs a check: a text must encode as
  UTF-8, an array must hold doubles); ``domain``: an integer's inclusive
  ``(low, high)`` bounds;
* ``tag``: its adtstream tag; ``vm_type``: the JaguarVM type of a UDF
  parameter; ``value_type``: the SQL type of its values in expressions
  (a HANDLE is an INT token).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple, Union

from .vm.values import INT_MAX, INT_MIN, VMType


class SQLType(enum.Enum):
    """Every SQL type.  ``SQLType(name)`` also takes any spelling in the
    table, in any case (``SQLType("TimeSeries") is SQLType.FLOATARR``)."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"
    BYTES = "bytes"
    FLOATARR = "floatarr"
    HANDLE = "handle"  # a UDF parameter passed as a callback handle
    NULL = "null"  # the type of a bare NULL literal

    @property
    def row(self) -> "TypeRow":
        return TYPES[self]

    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str):
            return _SPELLINGS.get(value.lower())
        return None


@dataclass(frozen=True)
class Counted:
    """A variable-length record field: a u32 count of ``width``-byte
    items, then the items, ``to_bytes`` of a canonical value."""

    width: int
    to_bytes: Callable[[object], bytes]
    from_bytes: Callable[[bytes], object]


@dataclass(frozen=True)
class TypeRow:
    """One SQL type's facts (see the module docstring for each column)."""

    sql_type: SQLType
    spellings: Tuple[str, ...]
    udf_name: Optional[str]
    record: Union[str, Counted, None]
    canonical: type
    accepts: Tuple[type, ...]
    normalise: Optional[Callable[[object], object]]
    domain: Optional[Tuple[int, int]]
    tag: Optional[int]
    vm_type: Optional[VMType]
    value_type: SQLType

    @property
    def storable(self) -> bool:
        """Whether a table column may have the type."""
        return self.record is not None

    @property
    def name(self) -> str:
        """The type's name in messages: its UDF name, else its value."""
        return self.udf_name or self.sql_type.value

    def conform(self, value: object) -> object:
        """``value`` as a value of this type, in its canonical class.

        Raises :class:`ValueError` when it is none: a class the type
        neither has nor accepts, a value ``normalise`` refuses, or an
        integer outside ``domain``.  NULL is the caller's business.
        """
        cls = value.__class__
        if cls in self.accepts:
            try:
                value = self.normalise(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{value!r:.60} does not convert to {self.name}: {exc}"
                ) from None
        elif cls is not self.canonical:
            raise ValueError(
                f"{value!r:.60} is a {cls.__name__}, not of type {self.name}"
            )
        if self.domain is not None:
            low, high = self.domain
            if not low <= value <= high:
                raise ValueError(f"{value} is outside the {self.name} range")
        return value


def _text(value: str) -> str:
    """A str that encodes as UTF-8 (a lone surrogate does not)."""
    if not value.isascii():
        value.encode("utf-8")
    return value


def _utf8(raw) -> str:
    """The text UTF-8 ``raw`` (bytes or bytearray) encodes."""
    return raw.decode("utf-8")


def _doubles(value) -> array:
    """An ``array('d')`` of a float array or a sequence of numbers."""
    if value.__class__ is array:
        if value.typecode != "d":
            raise TypeError(f"an array of typecode {value.typecode!r}")
        return value
    return array("d", value)


_I64 = (INT_MIN, INT_MAX)

T = SQLType
#: Every type, one row each: ``(spellings, udf_name, record, canonical,
#: accepts, normalise, domain, tag, vm_type, value_type)``.
TYPES: Dict[SQLType, TypeRow] = {t: TypeRow(t, *row) for t, row in {
    T.INT: (("int", "integer", "bigint"), "int",
            "q", int, (), None, _I64, 1, VMType.INT, T.INT),
    T.FLOAT: (("float", "double", "real"), "float",
              "d", float, (int,), float, None, 2, VMType.FLOAT, T.FLOAT),
    T.BOOL: (("bool", "boolean"), "bool",
             "?", bool, (), None, None, 3, VMType.BOOL, T.BOOL),
    T.STRING: (("string", "str", "varchar", "text"), "str",
               Counted(1, str.encode, _utf8),
               str, (str,), _text, None, 4, VMType.STR, T.STRING),
    T.BYTES: (("bytes", "bytearray", "bytea", "blob"), "bytes",
              Counted(1, bytes, bytes),
              bytes, (bytearray, memoryview), bytes, None, 5, VMType.ARR,
              T.BYTES),
    T.FLOATARR: (("floatarr", "farr", "floatarray", "timeseries"), "farr",
                 Counted(8, array.tobytes, partial(array, "d")),
                 array, (array, list, tuple), _doubles, None, 6,
                 VMType.FARR, T.FLOATARR),
    T.HANDLE: (("handle",), "handle",
               None, int, (), None, _I64, None, VMType.INT, T.INT),
    T.NULL: (("null",), None,
             None, type(None), (), None, None, 0, None, T.NULL),
}.items()}
del T

_SPELLINGS = {
    spelling: row.sql_type
    for row in TYPES.values() for spelling in row.spellings
}
