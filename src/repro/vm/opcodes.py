"""JaguarVM instruction set.

The instruction set is *typed*, like JVM bytecode: there is an ``IADD`` and
an ``FADD`` rather than one polymorphic ``ADD``.  Typed opcodes let the
verifier prove memory safety with a simple dataflow pass (Section 6.1 of
the paper: "bytecode verification ... ensures the well-typedness of the
code"), after which the interpreter and JIT may execute without per-
instruction type dispatch.

Instructions are ``(opcode, arg)`` pairs.  ``arg`` is an immediate value,
a local-variable slot index, a constant-pool index, or a jump target
(an *instruction* index — the VM has no variable-width encoding, so every
integer in ``range(len(code))`` is a valid alignment).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ArithmeticFault, BoundsError
from .values import VMType, f2i, idiv, imod

I = VMType.INT
F = VMType.FLOAT
B = VMType.BOOL
S = VMType.STR
A = VMType.ARR
FA = VMType.FARR


class Op(enum.IntEnum):
    """Every JaguarVM opcode."""

    # constants -----------------------------------------------------------
    ICONST = 1     # arg: int immediate               -> push INT
    FCONST = 2     # arg: float immediate             -> push FLOAT
    BCONST = 3     # arg: 0 or 1                      -> push BOOL
    SCONST = 4     # arg: constant-pool string index  -> push STR

    # locals ---------------------------------------------------------------
    LOAD = 10      # arg: slot index                  -> push locals[arg]
    STORE = 11     # arg: slot index                  -> pop into locals[arg]

    # stack ----------------------------------------------------------------
    POP = 20
    DUP = 21
    SWAP = 22

    # integer arithmetic (64-bit two's complement) ---------------------------
    IADD = 30
    ISUB = 31
    IMUL = 32
    IDIV = 33      # traps on divide-by-zero
    IMOD = 34      # traps on divide-by-zero
    INEG = 35
    IAND = 36
    IOR = 37
    IXOR = 38
    ISHL = 39      # shift count masked to 0..63
    ISHR = 40      # arithmetic shift; count masked to 0..63

    # float arithmetic -------------------------------------------------------
    FADD = 50
    FSUB = 51
    FMUL = 52
    FDIV = 53      # traps on divide-by-zero
    FNEG = 54

    # conversions ------------------------------------------------------------
    I2F = 60
    F2I = 61       # truncates toward zero; traps on NaN/overflow
    I2S = 62       # int -> decimal string
    F2S = 63       # float -> repr string

    # integer comparisons -> BOOL ---------------------------------------------
    ICMPLT = 70
    ICMPLE = 71
    ICMPGT = 72
    ICMPGE = 73
    ICMPEQ = 74
    ICMPNE = 75

    # float comparisons -> BOOL -------------------------------------------------
    FCMPLT = 80
    FCMPLE = 81
    FCMPGT = 82
    FCMPGE = 83
    FCMPEQ = 84
    FCMPNE = 85

    # booleans --------------------------------------------------------------
    NOT = 90
    BAND = 91      # non-short-circuit; the compiler uses jumps for and/or
    BOR = 92

    # strings ----------------------------------------------------------------
    SCONCAT = 100  # pop b, a -> push a + b (allocation-accounted)
    SLEN = 101
    SEQ = 102      # -> BOOL
    SINDEX = 103   # pop idx, s -> push byte value of char (bounds-checked)
    SSUB = 104     # pop end, start, s -> push s[start:end] (bounds-checked)

    # byte arrays --------------------------------------------------------------
    NEWARR = 110   # pop size -> push zeroed ARR (allocation-accounted)
    ALOAD = 111    # pop idx, arr -> push INT          (bounds-checked)
    ASTORE = 112   # pop val, idx, arr                  (bounds-checked)
    ALEN = 113
    ACOPY = 114    # pop arr -> push copy (allocation-accounted)

    # float arrays ---------------------------------------------------------------
    NEWFARR = 120  # pop size -> push zeroed FARR (allocation-accounted)
    FALOAD = 121   # pop idx, arr -> push FLOAT        (bounds-checked)
    FASTORE = 122  # pop val, idx, arr                  (bounds-checked)
    FALEN = 123

    # control flow -----------------------------------------------------------
    JMP = 130      # arg: target
    JZ = 131       # pop BOOL; jump if false
    JNZ = 132      # pop BOOL; jump if true
    RET = 133      # pop return value (function's declared return type)
    RETV = 134     # return void

    # calls -------------------------------------------------------------------
    CALL = 140     # arg: constant-pool funcref; resolved via class loader
    NATIVE = 141   # arg: constant-pool nativeref (trusted stdlib)
    CALLBACK = 142 # arg: constant-pool callbackref (server interaction,
                   # interposed by the security manager)


@dataclass(frozen=True)
class Instr:
    """One decoded instruction."""

    __slots__ = ("op", "arg")

    op: Op
    arg: object

    def __repr__(self) -> str:
        if self.arg is None:
            return self.op.name
        return f"{self.op.name} {self.arg!r}"


# ---------------------------------------------------------------------------
# The opcode table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpInfo:
    """Everything the VM's consumers know about one opcode.

    The interpreter is the hand-written reference; every other consumer
    (the verifier, the JIT and its kernels, the decompiler, and the
    load-time analyses) reads these columns instead of keeping a copy.
    A column that does not apply to an opcode is ``None``.
    """

    #: Operand types popped, deepest first, and result types pushed;
    #: ``None`` when the effect depends on the argument or the frame
    #: (locals, stack shuffles, returns, calls).
    pops: Optional[Tuple[VMType, ...]]
    pushes: Optional[Tuple[VMType, ...]]
    #: The result as a Python expression over the operands ``{0}``,
    #: ``{1}``, ... (deepest first), evaluated with
    #: :data:`TEMPLATE_GLOBALS` and the resource account ``__acct`` in
    #: scope.  Index-trapping templates assume the index is in range.
    py: Optional[str]
    #: The int result is reduced to 64-bit two's complement (the JIT
    #: wraps ``py``, the decompiler wraps its fold and its SQL).
    wraps: bool
    #: The SQL the decompiler lowers symbolic operands to: an operator,
    #: or a builtin written ``name()``.
    sql: Optional[str]
    #: What can make the instruction raise a VM trap:
    #: ``zero-divisor``, ``conversion`` (F2I of NaN or out of range),
    #: ``index``, ``slice``, ``negative-size``, ``callee`` (the called
    #: function traps), ``host`` (native or server code raises).
    trap: Optional[str]
    #: Charges a fresh heap object against the memory quota.
    allocates: bool
    #: Static cost units per execution (one cheap comparison ~ 1).
    weight: float


# The run-time helpers the ``py`` templates call.

def _oob(index: int, length: int):
    raise BoundsError(f"array index {index} out of range [0, {length})")


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise ArithmeticFault("float division by zero")
    return a / b


def _newarr(acct, n: int) -> bytearray:
    if n < 0:
        raise BoundsError(f"negative array size {n}")
    acct.charge_memory(n)
    return bytearray(n)


def _newfarr(acct, n: int) -> array:
    if n < 0:
        raise BoundsError(f"negative array size {n}")
    acct.charge_memory(8 * n)
    return array("d", bytes(8 * n))


def _acopy(acct, a: bytearray) -> bytearray:
    acct.charge_memory(len(a))
    return bytearray(a)


def _sconcat(acct, a: str, b: str) -> str:
    acct.charge_memory(len(a) + len(b))
    return a + b


def _ssub(acct, s: str, start: int, end: int) -> str:
    if not (0 <= start <= end <= len(s)):
        raise BoundsError(
            f"substring [{start}:{end}] out of range for length {len(s)}"
        )
    acct.charge_memory(end - start)
    return s[start:end]


def _i2s(acct, x: int) -> str:
    s = str(x)
    acct.charge_memory(len(s))
    return s


def _f2s(acct, x: float) -> str:
    s = repr(x)
    acct.charge_memory(len(s))
    return s


#: Names the ``py`` templates may use besides builtins and ``__acct``.
TEMPLATE_GLOBALS = {
    "_oob": _oob,
    "_fdiv": _fdiv,
    "_idiv": idiv,
    "_imod": imod,
    "_f2i": f2i,
    "_newarr": _newarr,
    "_newfarr": _newfarr,
    "_acopy": _acopy,
    "_sconcat": _sconcat,
    "_ssub": _ssub,
    "_i2s": _i2s,
    "_f2s": _f2s,
}

_ = None   # a column that does not apply, kept short in the rows
#: One row per opcode, in OpInfo's column order:
#:   pops, pushes, py, wraps, sql, trap, allocates, weight
OPS: Dict[Op, OpInfo] = {op: OpInfo(*row) for op, row in {
    Op.ICONST: ((), (I,), _, False, _, _, False, 1.0),
    Op.FCONST: ((), (F,), _, False, _, _, False, 1.0),
    Op.BCONST: ((), (B,), _, False, _, _, False, 1.0),
    Op.SCONST: ((), (S,), _, False, _, _, False, 1.0),
    Op.LOAD: (_, _, _, False, _, _, False, 1.0),
    Op.STORE: (_, _, _, False, _, _, False, 1.0),
    Op.POP: (_, _, _, False, _, _, False, 1.0),
    Op.DUP: (_, _, _, False, _, _, False, 1.0),
    Op.SWAP: (_, _, _, False, _, _, False, 1.0),
    Op.IADD: ((I, I), (I,), "(({0}) + ({1}))", True, "+", _, False, 1.0),
    Op.ISUB: ((I, I), (I,), "(({0}) - ({1}))", True, "-", _, False, 1.0),
    Op.IMUL: ((I, I), (I,), "(({0}) * ({1}))", True, "*", _, False, 1.0),
    Op.IDIV: ((I, I), (I,), "_idiv({0}, {1})", False, "idiv()",
              "zero-divisor", False, 1.0),
    Op.IMOD: ((I, I), (I,), "_imod({0}, {1})", False, "imod()",
              "zero-divisor", False, 1.0),
    Op.INEG: ((I,), (I,), "(-({0}))", True, "-", _, False, 1.0),
    Op.IAND: ((I, I), (I,), "(({0}) & ({1}))", False, _, _, False, 1.0),
    Op.IOR: ((I, I), (I,), "(({0}) | ({1}))", False, _, _, False, 1.0),
    Op.IXOR: ((I, I), (I,), "(({0}) ^ ({1}))", False, _, _, False, 1.0),
    Op.ISHL: ((I, I), (I,), "(({0}) << (({1}) & 63))", True, _, _,
              False, 1.0),
    Op.ISHR: ((I, I), (I,), "(({0}) >> (({1}) & 63))", True, _, _,
              False, 1.0),
    Op.FADD: ((F, F), (F,), "(({0}) + ({1}))", False, "+", _, False, 1.0),
    Op.FSUB: ((F, F), (F,), "(({0}) - ({1}))", False, "-", _, False, 1.0),
    Op.FMUL: ((F, F), (F,), "(({0}) * ({1}))", False, "*", _, False, 1.0),
    Op.FDIV: ((F, F), (F,), "_fdiv({0}, {1})", False, "/",
              "zero-divisor", False, 1.0),
    Op.FNEG: ((F,), (F,), "(-({0}))", False, "-", _, False, 1.0),
    Op.I2F: ((I,), (F,), "float({0})", False, "float()", _, False, 1.0),
    Op.F2I: ((F,), (I,), "_f2i({0})", False, "trunc()", "conversion",
             False, 1.0),
    Op.I2S: ((I,), (S,), "_i2s(__acct, {0})", False, _, _, True, 4.0),
    Op.F2S: ((F,), (S,), "_f2s(__acct, {0})", False, _, _, True, 4.0),
    Op.ICMPLT: ((I, I), (B,), "(({0}) < ({1}))", False, "<", _, False, 1.0),
    Op.ICMPLE: ((I, I), (B,), "(({0}) <= ({1}))", False, "<=", _, False, 1.0),
    Op.ICMPGT: ((I, I), (B,), "(({0}) > ({1}))", False, ">", _, False, 1.0),
    Op.ICMPGE: ((I, I), (B,), "(({0}) >= ({1}))", False, ">=", _, False, 1.0),
    Op.ICMPEQ: ((I, I), (B,), "(({0}) == ({1}))", False, "=", _, False, 1.0),
    Op.ICMPNE: ((I, I), (B,), "(({0}) != ({1}))", False, "!=", _, False, 1.0),
    Op.FCMPLT: ((F, F), (B,), "(({0}) < ({1}))", False, "<", _, False, 1.0),
    Op.FCMPLE: ((F, F), (B,), "(({0}) <= ({1}))", False, "<=", _, False, 1.0),
    Op.FCMPGT: ((F, F), (B,), "(({0}) > ({1}))", False, ">", _, False, 1.0),
    Op.FCMPGE: ((F, F), (B,), "(({0}) >= ({1}))", False, ">=", _, False, 1.0),
    Op.FCMPEQ: ((F, F), (B,), "(({0}) == ({1}))", False, "=", _, False, 1.0),
    Op.FCMPNE: ((F, F), (B,), "(({0}) != ({1}))", False, "!=", _, False, 1.0),
    Op.NOT: ((B,), (B,), "(not ({0}))", False, "not", _, False, 1.0),
    # Both operands are evaluated (the JIT materializes them first), so
    # SQL's short-circuit AND/OR is no lowering.
    Op.BAND: ((B, B), (B,), "({0} and {1})", False, _, _, False, 1.0),
    Op.BOR: ((B, B), (B,), "({0} or {1})", False, _, _, False, 1.0),
    Op.SCONCAT: ((S, S), (S,), "_sconcat(__acct, {0}, {1})", False, "+", _,
                 True, 8.0),
    Op.SLEN: ((S,), (I,), "len({0})", False, "length()", _, False, 2.0),
    Op.SEQ: ((S, S), (B,), "(({0}) == ({1}))", False, "=", _, False, 4.0),
    Op.SINDEX: ((S, I), (I,), "ord({0}[{1}])", False, _, "index",
                False, 2.0),
    Op.SSUB: ((S, I, I), (S,), "_ssub(__acct, {0}, {1}, {2})", False, _,
              "slice", True, 8.0),
    Op.NEWARR: ((I,), (A,), "_newarr(__acct, {0})", False, _,
                "negative-size", True, 16.0),
    Op.ALOAD: ((A, I), (I,), "{0}[{1}]", False, _, "index", False, 1.0),
    Op.ASTORE: ((A, I, I), (), _, False, _, "index", False, 1.0),
    Op.ALEN: ((A,), (I,), "len({0})", False, _, _, False, 1.0),
    Op.ACOPY: ((A,), (A,), "_acopy(__acct, {0})", False, _, _, True, 16.0),
    Op.NEWFARR: ((I,), (FA,), "_newfarr(__acct, {0})", False, _,
                 "negative-size", True, 16.0),
    Op.FALOAD: ((FA, I), (F,), "{0}[{1}]", False, _, "index", False, 1.0),
    Op.FASTORE: ((FA, I, F), (), _, False, _, "index", False, 1.0),
    Op.FALEN: ((FA,), (I,), "len({0})", False, _, _, False, 1.0),
    Op.JMP: (_, _, _, False, _, _, False, 1.0),
    Op.JZ: ((B,), (), _, False, _, _, False, 1.0),
    Op.JNZ: ((B,), (), _, False, _, _, False, 1.0),
    Op.RET: (_, _, _, False, _, _, False, 1.0),
    Op.RETV: (_, _, _, False, _, _, False, 1.0),
    # Boundary crossings: a frame push, a trusted in-process stdlib
    # call, and the sandbox -> server round trip.
    Op.CALL: (_, _, _, False, _, "callee", False, 2.0),
    Op.NATIVE: (_, _, _, False, _, "host", False, 5.0),
    Op.CALLBACK: (_, _, _, False, _, "host", False, 200.0),
}.items()}
del _


def python_expr(op: Op, operands: Sequence[str], wrap: bool = True) -> str:
    """``op``'s ``py`` template over operand expressions, wrapped to
    int64 when the op wraps and ``wrap`` is set (a caller that proved
    the result in range passes False)."""
    info = OPS[op]
    expr = info.py.format(*operands)
    if info.wraps and wrap:
        expr = (f"(({expr} + 0x8000000000000000 & 0xFFFFFFFFFFFFFFFF)"
                " - 0x8000000000000000)")
    return expr


def step_stack(ins: Instr, locals_: list, stack: list) -> bool:
    """Apply a stack-only instruction to an abstract frame.

    LOAD, STORE, POP, DUP, SWAP, JMP, JZ, JNZ, RET and RETV only move
    values between locals and the operand stack (a branch or return
    pops its operand), so their effect is the same over any value
    domain.  Returns False, touching nothing, for any other opcode.
    """
    op = ins.op
    if op is Op.LOAD:
        stack.append(locals_[ins.arg])
    elif op is Op.STORE:
        locals_[ins.arg] = stack.pop()
    elif op is Op.POP or op is Op.JZ or op is Op.JNZ or op is Op.RET:
        stack.pop()
    elif op is Op.DUP:
        stack.append(stack[-1])
    elif op is Op.SWAP:
        stack[-1], stack[-2] = stack[-2], stack[-1]
    elif op is not Op.JMP and op is not Op.RETV:
        return False
    return True


#: Opcodes that transfer control (the verifier treats their arg as a target).
BRANCH_OPS = frozenset({Op.JMP, Op.JZ, Op.JNZ})

#: Opcodes after which execution never falls through.
TERMINATOR_OPS = frozenset({Op.JMP, Op.RET, Op.RETV})

#: Opcodes whose arg indexes the constant pool.
POOL_OPS = frozenset({Op.SCONST, Op.CALL, Op.NATIVE, Op.CALLBACK})


def check_arg_shape(op: Op, arg: object) -> Optional[str]:
    """Structural check of an instruction argument; returns an error string.

    This is the *format* check done at classfile-decode time; range checks
    against the actual code/pool/locals sizes belong to the verifier.
    """
    if op in (Op.ICONST,):
        if not isinstance(arg, int) or isinstance(arg, bool):
            return f"{op.name} needs an int immediate"
    elif op is Op.FCONST:
        if not isinstance(arg, float):
            return f"{op.name} needs a float immediate"
    elif op is Op.BCONST:
        if arg not in (0, 1):
            return f"{op.name} needs 0 or 1"
    elif op in (Op.LOAD, Op.STORE) or op in BRANCH_OPS or op in POOL_OPS:
        if not isinstance(arg, int) or isinstance(arg, bool) or arg < 0:
            return f"{op.name} needs a non-negative index"
    else:
        if arg is not None:
            return f"{op.name} takes no argument"
    return None
