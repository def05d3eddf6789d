"""JaguarVM value model and verification-type lattice.

JaguarVM is strongly typed, like the JVM the paper builds on: every stack
slot and local variable has a type known to the verifier before the code
runs.  The type system is deliberately small — the six types below cover
every UDF in the paper (the generic benchmark UDF, image functions such as
``REDNESS``, and time-series functions such as ``InvestVal``):

========  ===========================  ==========================
VM type   host representation          notes
========  ===========================  ==========================
INT       ``int`` (wrapped to 64-bit)  two's-complement semantics
FLOAT     ``float``                    IEEE double
BOOL      ``bool``
STR       ``str``                      immutable
ARR       ``bytearray``                mutable byte array
FARR      ``array('d')``               mutable float array
========  ===========================  ==========================

``VOID`` exists only as a function return type.
"""

from __future__ import annotations

import enum
import math
from array import array
from typing import Union

from ..errors import ArithmeticFault, VMRuntimeError

#: Inclusive bounds of the VM's 64-bit signed integer type.
INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1
_INT_MASK = 2 ** 64


class VMType(enum.Enum):
    """Verification types (also the runtime type tags)."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STR = "str"
    ARR = "arr"
    FARR = "farr"
    VOID = "void"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VMType.{self.name}"


#: Host-level union of every value a VM slot may hold.
VMValue = Union[int, float, bool, str, bytearray, array]

#: Types that may appear as parameters or locals (everything but VOID).
SLOT_TYPES = (
    VMType.INT,
    VMType.FLOAT,
    VMType.BOOL,
    VMType.STR,
    VMType.ARR,
    VMType.FARR,
)

_TYPE_BY_NAME = {t.value: t for t in VMType}

#: Annotation spellings accepted by the compiler front end.
TYPE_ALIASES = {
    "int": VMType.INT,
    "float": VMType.FLOAT,
    "bool": VMType.BOOL,
    "str": VMType.STR,
    "bytes": VMType.ARR,
    "bytearray": VMType.ARR,
    "arr": VMType.ARR,
    "farr": VMType.FARR,
    "None": VMType.VOID,
    "void": VMType.VOID,
}


def type_by_name(name: str) -> VMType:
    """Look up a :class:`VMType` from its canonical wire name."""
    try:
        return _TYPE_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown VM type name {name!r}") from None


def wrap_int(value: int) -> int:
    """Wrap a Python int to the VM's 64-bit two's-complement range.

    Java arithmetic silently wraps; unbounded Python ints would both change
    semantics and defeat memory accounting, so every arithmetic opcode
    funnels its result through here.
    """
    value &= _INT_MASK - 1
    if value > INT_MAX:
        value -= _INT_MASK
    return value


# -- integer semantics shared by every execution tier --------------------------
#
# The interpreter, the JIT runtime, the decompiler's constant folder and
# the SQL ``idiv``/``imod``/``trunc`` builtins all call these, so IDIV,
# IMOD and F2I have one definition (results and trap conditions).

def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def idiv(a: int, b: int) -> int:
    """IDIV: Java-style truncation toward zero, wrapped to 64 bits."""
    if b == 0:
        raise ArithmeticFault("integer division by zero")
    return wrap_int(_trunc_div(a, b))


def imod(a: int, b: int) -> int:
    """IMOD: ``a - idiv(a, b) * b`` (the sign follows the dividend)."""
    if b == 0:
        raise ArithmeticFault("integer modulo by zero")
    return wrap_int(a - _trunc_div(a, b) * b)


def f2i(x: float) -> int:
    """F2I: truncate toward zero; traps on NaN, inf and overflow."""
    if math.isnan(x):
        raise ArithmeticFault("cannot convert NaN to int")
    if math.isinf(x) or not (INT_MIN <= x <= INT_MAX):
        raise ArithmeticFault(f"float {x!r} does not fit the int range")
    return int(x)


def default_value(vm_type: VMType) -> VMValue:
    """The zero value used for uninitialized-looking locals at call entry.

    The verifier guarantees locals are written before read, so these are
    only used for parameter-less temporaries in the interpreter frame.
    """
    if vm_type is VMType.INT:
        return 0
    if vm_type is VMType.FLOAT:
        return 0.0
    if vm_type is VMType.BOOL:
        return False
    if vm_type is VMType.STR:
        return ""
    if vm_type is VMType.ARR:
        return bytearray()
    if vm_type is VMType.FARR:
        return array("d")
    raise ValueError(f"no default for {vm_type}")


def host_type_of(value: VMValue) -> VMType:
    """Classify a host value into a VM type (``bool`` before ``int``!)."""
    if isinstance(value, bool):
        return VMType.BOOL
    if isinstance(value, int):
        return VMType.INT
    if isinstance(value, float):
        return VMType.FLOAT
    if isinstance(value, str):
        return VMType.STR
    if isinstance(value, (bytearray, bytes)):
        return VMType.ARR
    if isinstance(value, array) and value.typecode == "d":
        return VMType.FARR
    raise VMRuntimeError(f"value {value!r} has no VM type")


def coerce_argument(value: object, vm_type: VMType) -> VMValue:
    """Convert a host argument into the canonical representation of a type.

    Used at the language boundary (the JNI analog) when the server passes
    SQL values into a sandboxed UDF.  Raises :class:`VMRuntimeError` on a
    type mismatch rather than silently converting, matching JNI's strict
    marshalling.
    """
    if vm_type is VMType.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise VMRuntimeError(f"expected int argument, got {value!r}")
        return wrap_int(value)
    if vm_type is VMType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise VMRuntimeError(f"expected float argument, got {value!r}")
        return float(value)
    if vm_type is VMType.BOOL:
        if not isinstance(value, bool):
            raise VMRuntimeError(f"expected bool argument, got {value!r}")
        return value
    if vm_type is VMType.STR:
        if not isinstance(value, str):
            raise VMRuntimeError(f"expected str argument, got {value!r}")
        return value
    if vm_type is VMType.ARR:
        if isinstance(value, bytearray):
            return value
        if isinstance(value, (bytes, memoryview)):
            # Copy: the sandbox must never alias server-owned buffers.
            return bytearray(value)
        raise VMRuntimeError(f"expected byte-array argument, got {value!r}")
    if vm_type is VMType.FARR:
        if isinstance(value, array) and value.typecode == "d":
            return value
        if isinstance(value, (list, tuple)):
            return array("d", [float(x) for x in value])
        raise VMRuntimeError(f"expected float-array argument, got {value!r}")
    raise VMRuntimeError(f"cannot pass argument of type {vm_type}")


def coerce_argument_readonly(value: object, vm_type: VMType) -> VMValue:
    """Marshal an argument the flow certifier proved *read-only*.

    Identical to :func:`coerce_argument` except that byte arrays are
    passed by reference instead of defensively copied.  Only sound when
    the static escape analysis proved the parameter is never written
    through (no reachable ASTORE on an alias) and never retained past
    the call — the interpreter and JIT index ``bytes`` and ``bytearray``
    identically, so a mutation-free function cannot tell the difference,
    and the caller's buffer cannot be corrupted.
    """
    if vm_type is VMType.ARR and isinstance(value, (bytes, memoryview)):
        return value  # zero-copy: proven read-only
    return coerce_argument(value, vm_type)
