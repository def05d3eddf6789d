"""JaguarVM classfiles: the unit of UDF deployment and migration.

A classfile packages a named class, its constant pool, and its functions'
typed bytecode into a byte string.  Classfiles are what a client uploads
when it migrates a UDF to the server (Section 6.4 of the paper), so the
decoder treats its input as *hostile*: every length, index, opcode, and
argument is validated, and a malformed file raises
:class:`~repro.errors.ClassFormatError` before any code is admitted to the
verifier.

Wire format (all integers little-endian)::

    magic    "JAGC"
    version  u16
    name     str            (u32 length + utf-8 bytes)
    npool    u16            constant-pool entries
    pool     entry*         (kind u8 + payload)
    nfuncs   u16
    funcs    function*

    function := name str, nparams u8, param types, ret type,
                nlocals u16, local types, ncode u32, instruction*
    instruction := opcode u8 [+ argument, encoding fixed per opcode]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ClassFormatError
from .opcodes import Instr, Op, check_arg_shape
from .values import SLOT_TYPES, VMType

MAGIC = b"JAGC"
VERSION = 1

#: Maximum sizes accepted by the decoder.  Generous for real UDFs while
#: bounding what a malicious classfile can make the server allocate.
MAX_NAME = 255
MAX_POOL = 65535
MAX_FUNCS = 4096
MAX_LOCALS = 65535
MAX_CODE = 1_000_000
MAX_STR_CONST = 1 << 20

# Constant-pool entry kinds.
K_STR = 1
K_FUNC = 2       # (class_name, func_name)
K_NATIVE = 3     # stdlib function name
K_CALLBACK = 4   # server callback name


@dataclass(frozen=True)
class PoolEntry:
    """One constant-pool entry."""

    kind: int
    value: Tuple[str, ...]

    @staticmethod
    def string(s: str) -> "PoolEntry":
        return PoolEntry(K_STR, (s,))

    @staticmethod
    def funcref(class_name: str, func_name: str) -> "PoolEntry":
        return PoolEntry(K_FUNC, (class_name, func_name))

    @staticmethod
    def nativeref(name: str) -> "PoolEntry":
        return PoolEntry(K_NATIVE, (name,))

    @staticmethod
    def callbackref(name: str) -> "PoolEntry":
        return PoolEntry(K_CALLBACK, (name,))


@dataclass
class FunctionDef:
    """One function: its typed signature, local-slot types, and bytecode.

    ``local_types`` covers *all* slots; the first ``len(param_types)`` slots
    are the parameters.  The name, the types and ``code`` are
    serialized; everything else is derived, and recomputed from hostile
    bytes on every load, like ``verified``: ``max_stack`` and
    ``stack_in`` (operand-stack depth entering each instruction) by the
    verifier; ``summary``, ``certificate``, ``flows`` and ``inline`` by
    the load-time analysis (:mod:`repro.analysis.pipeline`); ``cfg``,
    ``dispatch`` and ``fused`` on first use.
    """

    name: str
    param_types: Tuple[VMType, ...]
    ret_type: VMType
    local_types: Tuple[VMType, ...]
    code: Tuple[Instr, ...]
    max_stack: int = 0
    stack_in: Optional[Tuple[int, ...]] = None
    #: FunctionSummary from the effect pass.
    summary: Optional[object] = None
    #: ResourceCertificate from the bounds certifier.
    certificate: Optional[object] = None
    #: FlowCertificate from the flow pass.
    flows: Optional[object] = field(default=None, compare=False)
    #: InlineTemplate or InlineRefusal from the decompiler.
    inline: Optional[object] = field(default=None, compare=False)
    #: Interpreter dispatch caches, built on first execution: ``code``
    #: decoded to one ``(op, arg)`` tuple per instruction (what a metered
    #: frame runs), and the same with the peephole pass's
    #: superinstructions at the heads of their runs (what a prepaid frame
    #: runs; :func:`repro.vm.interpreter.fuse`).  Pure derivations of
    #: ``code`` (which is immutable), so they never need invalidation.
    dispatch: Optional[Tuple] = field(
        default=None, compare=False, repr=False
    )
    fused: Optional[Tuple] = field(
        default=None, compare=False, repr=False
    )
    #: Backing store of :attr:`cfg`; a pure derivation of ``code``, like
    #: the dispatch caches.
    _cfg: Optional[object] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.local_types) < len(self.param_types):
            raise ClassFormatError(
                f"function {self.name!r}: fewer locals than parameters"
            )
        for i, (pt, lt) in enumerate(zip(self.param_types, self.local_types)):
            if pt is not lt:
                raise ClassFormatError(
                    f"function {self.name!r}: local slot {i} type {lt} does "
                    f"not match parameter type {pt}"
                )

    @property
    def signature(self) -> Tuple[Tuple[VMType, ...], VMType]:
        return (self.param_types, self.ret_type)

    @property
    def cfg(self):
        """The :class:`~repro.analysis.cfg.CFG` of verified ``code``,
        built on first use: the verifier's structure check builds it,
        and every load-time pass and the JIT read the same one."""
        if self._cfg is None:
            from ..analysis.cfg import build_cfg

            self._cfg = build_cfg(self.code)
        return self._cfg


@dataclass
class ClassFile:
    """A named class: constant pool plus functions.

    ``verified`` is set (only) by the verifier and is never serialized:
    bytes arriving from anywhere must be re-verified (the server never
    trusts a client's claim that code was checked — Section 6.4).
    """

    name: str
    pool: List[PoolEntry] = field(default_factory=list)
    functions: Dict[str, FunctionDef] = field(default_factory=dict)
    verified: bool = False
    #: Class-level effect rollup (analysis.effects.ClassSummary), set by
    #: the load-time analyzer; never serialized.
    analysis: Optional[object] = None
    #: Class-level resource rollup (analysis.bounds.ClassCertificates),
    #: set by the load-time certifier; never serialized.
    certificates: Optional[object] = None
    #: Class-level flow rollup (analysis.flows.ClassFlows), set by the
    #: load-time flow pass; never serialized.
    flows: Optional[object] = None

    def add_function(self, func: FunctionDef) -> None:
        """Add ``func``; the class must then be verified and analyzed
        again, so every class-level load-time fact is dropped."""
        if func.name in self.functions:
            raise ClassFormatError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        self.verified = False
        self.analysis = None
        self.certificates = None
        self.flows = None

    def pool_index(self, entry: PoolEntry) -> int:
        """Intern ``entry``, returning its pool index."""
        try:
            return self.pool.index(entry)
        except ValueError:
            self.pool.append(entry)
            return len(self.pool) - 1

    def constant(self, index: int, kind: int) -> Tuple[str, ...]:
        """Fetch a pool entry, checking kind; used by interpreter/JIT."""
        entry = self.pool[index]
        if entry.kind != kind:
            raise ClassFormatError(
                f"pool entry {index} of class {self.name!r} has kind "
                f"{entry.kind}, expected {kind}"
            )
        return entry.value

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<H", VERSION)
        _put_str(out, self.name)
        out += struct.pack("<H", len(self.pool))
        for entry in self.pool:
            out.append(entry.kind)
            out.append(len(entry.value))
            for part in entry.value:
                _put_str(out, part)
        out += struct.pack("<H", len(self.functions))
        for func in self.functions.values():
            _put_function(out, func)
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "ClassFile":
        reader = _Reader(data)
        if reader.take(4) != MAGIC:
            raise ClassFormatError("bad magic (not a JaguarVM classfile)")
        version = reader.u16()
        if version != VERSION:
            raise ClassFormatError(f"unsupported classfile version {version}")
        name = reader.string(MAX_NAME)
        npool = reader.u16()
        if npool > MAX_POOL:
            raise ClassFormatError("constant pool too large")
        pool: List[PoolEntry] = []
        for _ in range(npool):
            kind = reader.u8()
            if kind not in (K_STR, K_FUNC, K_NATIVE, K_CALLBACK):
                raise ClassFormatError(f"bad pool entry kind {kind}")
            nparts = reader.u8()
            expected = 2 if kind == K_FUNC else 1
            if nparts != expected:
                raise ClassFormatError(
                    f"pool entry kind {kind} must have {expected} parts"
                )
            limit = MAX_STR_CONST if kind == K_STR else MAX_NAME
            parts = tuple(reader.string(limit) for _ in range(nparts))
            pool.append(PoolEntry(kind, parts))
        nfuncs = reader.u16()
        if nfuncs > MAX_FUNCS:
            raise ClassFormatError("too many functions")
        cls = ClassFile(name=name, pool=pool)
        for _ in range(nfuncs):
            cls.add_function(_get_function(reader))
        if not reader.exhausted:
            raise ClassFormatError("trailing bytes after classfile body")
        return cls


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------

_TYPE_CODE = {t: i for i, t in enumerate(SLOT_TYPES)}
_TYPE_CODE[VMType.VOID] = len(SLOT_TYPES)
_CODE_TYPE = {i: t for t, i in _TYPE_CODE.items()}

# Argument encodings per opcode group.
_I64_OPS = frozenset({Op.ICONST})
_F64_OPS = frozenset({Op.FCONST})
_U8_OPS = frozenset({Op.BCONST})
_U32_OPS = frozenset(
    {Op.SCONST, Op.LOAD, Op.STORE, Op.JMP, Op.JZ, Op.JNZ,
     Op.CALL, Op.NATIVE, Op.CALLBACK}
)

_VALID_OPS = {op.value for op in Op}


def _put_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


def _put_function(out: bytearray, func: FunctionDef) -> None:
    _put_str(out, func.name)
    out.append(len(func.param_types))
    for t in func.param_types:
        out.append(_TYPE_CODE[t])
    out.append(_TYPE_CODE[func.ret_type])
    out += struct.pack("<H", len(func.local_types))
    for t in func.local_types:
        out.append(_TYPE_CODE[t])
    out += struct.pack("<I", len(func.code))
    for ins in func.code:
        out.append(ins.op.value)
        if ins.op in _I64_OPS:
            out += struct.pack("<q", ins.arg)
        elif ins.op in _F64_OPS:
            out += struct.pack("<d", ins.arg)
        elif ins.op in _U8_OPS:
            out.append(ins.arg)
        elif ins.op in _U32_OPS:
            out += struct.pack("<I", ins.arg)


def _get_function(reader: "_Reader") -> FunctionDef:
    name = reader.string(MAX_NAME)
    nparams = reader.u8()
    param_types = tuple(reader.vm_type(slot_only=True) for _ in range(nparams))
    ret_type = reader.vm_type(slot_only=False)
    nlocals = reader.u16()
    if nlocals > MAX_LOCALS:
        raise ClassFormatError(f"function {name!r}: too many locals")
    local_types = tuple(reader.vm_type(slot_only=True) for _ in range(nlocals))
    ncode = reader.u32()
    if ncode > MAX_CODE:
        raise ClassFormatError(f"function {name!r}: code too long")
    code: List[Instr] = []
    for _ in range(ncode):
        opcode = reader.u8()
        if opcode not in _VALID_OPS:
            raise ClassFormatError(f"function {name!r}: bad opcode {opcode}")
        op = Op(opcode)
        arg: Optional[object] = None
        if op in _I64_OPS:
            arg = reader.i64()
        elif op in _F64_OPS:
            arg = reader.f64()
        elif op in _U8_OPS:
            arg = reader.u8()
        elif op in _U32_OPS:
            arg = reader.u32()
        problem = check_arg_shape(op, arg)
        if problem is not None:
            raise ClassFormatError(f"function {name!r}: {problem}")
        code.append(Instr(op, arg))
    return FunctionDef(
        name=name,
        param_types=param_types,
        ret_type=ret_type,
        local_types=local_types,
        code=tuple(code),
    )


class _Reader:
    """Bounds-checked cursor over untrusted bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ClassFormatError("truncated classfile")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self, limit: int) -> str:
        n = self.u32()
        if n > limit:
            raise ClassFormatError(f"string of {n} bytes exceeds limit {limit}")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClassFormatError(f"invalid utf-8 in classfile: {exc}") from None

    def vm_type(self, slot_only: bool) -> VMType:
        code = self.u8()
        vm_type = _CODE_TYPE.get(code)
        if vm_type is None:
            raise ClassFormatError(f"bad type code {code}")
        if slot_only and vm_type is VMType.VOID:
            raise ClassFormatError("VOID is not a valid slot type")
        return vm_type
