"""The fused interpreter against the unfused one.

A prepaid frame runs ``fuse(func)``: the raw decode with a few hot
stack idioms rewritten into one superinstruction entry each.  The
reference is the same loop over the raw decode, made here and not in the
interpreter: each function's ``fused`` cache is pre-filled with
``decode(func)``.  Every program of ``test_structured_jit``'s grammar
runs both ways, at a quota covering its prepay and at one below it (a
metered frame, raw both ways); the value or the ``VMError`` class and
message, and the fuel and heap left on the account, must agree, on
success and on fault.  Hand-written cases pin the edges: a jump into a
shape's second instruction, an out-of-bounds read and a wrap inside a
superinstruction, and a metered frame that never reads the fused table.
"""

import pytest
from hypothesis import given, settings

from repro.errors import BoundsError, FuelExhausted, VMError
from repro.vm import compile_source, run_function
from repro.vm.classfile import ClassFile, FunctionDef
from repro.vm.interpreter import Super, decode, fuse
from repro.vm.machine import JaguarVM
from repro.vm.opcodes import BRANCH_OPS, Instr, Op
from repro.vm.resources import ResourceAccount
from repro.vm.values import VMType
from tests.vm.test_structured_jit import ARGS, INT_MAX, programs

FUEL = 20_000
MEMORY = 1 << 16


def _load(source):
    cls = compile_source(source, "Gen")
    udf = JaguarVM().load_udf("gen", [cls])
    return udf, udf.main_class.functions["f"]


def _observe(udf, func, args, fuel):
    """Outcome, fuel left and heap left of one interpreted call."""
    ctx = udf.make_context(account=ResourceAccount(fuel=fuel, memory=MEMORY))
    try:
        outcome = ("ok", run_function(udf.main_class, func, list(args), ctx))
    except VMError as exc:
        outcome = ("err", type(exc), str(exc))
    return outcome, ctx.account.fuel, ctx.account.memory


def _fused_and_raw(udf, func, args, fuel):
    """The same call with every function's fused table, then with the raw
    decode standing in for it."""
    functions = udf.main_class.functions.values()
    for f in functions:
        f.fused = None
    fused = _observe(udf, func, args, fuel)
    for f in functions:
        f.fused = decode(f)
    try:
        raw = _observe(udf, func, args, fuel)
    finally:
        for f in functions:
            f.fused = None
    return fused, raw


def _check_table(func):
    """Each superinstruction sits at the head of its shape's run, no jump
    enters the run after its head, and every other entry is raw."""
    raw = decode(func)
    table = fuse(func)
    targets = {arg for op, arg in raw if op in BRANCH_OPS}
    assert len(table) == len(raw)
    for pc, (op, arg) in enumerate(table):
        if not isinstance(op, Super):
            assert (op, arg) == raw[pc]
            continue
        shape = op.value
        run = raw[pc:pc + len(shape)]
        assert tuple(o for o, __ in run) == shape
        assert targets.isdisjoint(range(pc + 1, pc + len(shape)))
        args = tuple(a for __, a in run if a is not None)
        assert arg == (args[0] if len(args) == 1 else args)


@settings(max_examples=250, deadline=None)
@given(source=programs(), args=ARGS)
def test_generated_programs_agree_fused_and_unfused(source, args):
    udf, func = _load(source)
    _check_table(func)
    fused, raw = _fused_and_raw(udf, func, args, FUEL)
    assert fused == raw, source
    charge = func.certificate.local_fuel_charge(list(args))
    if charge is not None and 1 < charge <= FUEL:
        # One below the prepay: a metered frame, the raw decode both ways.
        fused, raw = _fused_and_raw(udf, func, args, charge - 1)
        assert fused == raw, source


# -- hand-written edges ---------------------------------------------------------

def _hand_built(code):
    params = (VMType.INT, VMType.INT)
    cls = ClassFile(name="Hand")
    cls.add_function(FunctionDef(
        name="f", param_types=params, ret_type=VMType.INT,
        local_types=params + (VMType.INT,), code=tuple(code)))
    udf = JaguarVM().load_udf("hand", [cls])
    return udf, udf.main_class.functions["f"]


#: ``LOAD 1; ICONST 7; IADD; STORE 2`` is an ``iinc`` shape at pc 6, but
#: the JZ at pc 4 jumps to its ICONST with ``n`` on the stack when
#: ``n == 0``.
JUMP_INTO_IINC = [
    Instr(Op.LOAD, 0), Instr(Op.LOAD, 0), Instr(Op.ICONST, 0),
    Instr(Op.ICMPNE, None), Instr(Op.JZ, 7),
    Instr(Op.POP, None),
    Instr(Op.LOAD, 1), Instr(Op.ICONST, 7), Instr(Op.IADD, None),
    Instr(Op.STORE, 2),
    Instr(Op.LOAD, 2), Instr(Op.RET, None),
]


@pytest.mark.parametrize("args, value", [
    ((0, 5), 7),                        # the jump: n + 7
    ((3, 5), 12),                       # fall through: m + 7
    ((3, INT_MAX), -INT_MAX - 1 + 6),   # ... wrapping
])
def test_a_jump_into_a_shapes_second_instruction(args, value):
    udf, func = _hand_built(JUMP_INTO_IINC)
    raw = decode(func)
    table = fuse(func)
    # The run at pc 6 is not fused; its IADD; STORE tail still is.
    assert table[:8] == raw[:8]
    assert table[8] == (Super.IADD_STORE, 2)
    assert table[9:] == raw[9:]
    fused, raw = _fused_and_raw(udf, func, args, FUEL)
    assert fused == raw
    assert fused[0] == ("ok", value)


BYTE_SUM = (
    "def f(n: int, m: int, data: bytes) -> int:\n"
    "    s: int = m\n"
    "    for i in range(n):\n"
    "        s = s + data[i]\n"
    "    return s\n"
)


@pytest.mark.parametrize("args, outcome", [
    ((2, 1, b"\x05\x06"), ("ok", 12)),
    ((3, 1, b"\x05\x06"),
     ("err", BoundsError, "array index 2 out of range [0, 2)")),
    ((2, INT_MAX, b"\x05\x06"), ("ok", -INT_MAX - 1 + 10)),
])
def test_byte_reads_and_adds_inside_superinstructions(args, outcome):
    udf, func = _load(BYTE_SUM)
    assert func.certificate.fuel_charge(list(args)) is not None   # prepaid
    shapes = {op for op, __ in fuse(func) if isinstance(op, Super)}
    assert {Super.LOAD_LOAD_ICMPLT_JZ, Super.LOAD_LOAD_ALOAD,
            Super.IADD_STORE, Super.IINC_JMP} <= shapes
    fused, raw = _fused_and_raw(udf, func, args, FUEL)
    assert fused == raw
    assert fused[0] == outcome


INCREMENTS = (
    "def f(n: int, m: int, data: bytes) -> int:\n"
    "    s: int = n\n"
    "    s = s + 1\n"
    "    c: int = 0\n"
    "    while c < m:\n"
    "        c = c + 1\n"
    "        s = s + 3\n"
    "    return s\n"
)


@pytest.mark.parametrize("args, value", [
    ((5, 2, b""), 12),
    ((INT_MAX, 0, b""), -INT_MAX - 1),           # iinc wraps
    ((INT_MAX - 4, 2, b""), -INT_MAX - 1 + 2),   # iinc closing the loop wraps
])
def test_iinc_wraps_at_int_max(args, value):
    udf, func = _load(INCREMENTS)
    assert func.certificate.fuel_charge(list(args)) is not None   # prepaid
    table = fuse(func)
    assert [op for op, __ in table if isinstance(op, Super)] == [
        Super.IINC, Super.LOAD_LOAD_ICMPLT_JZ, Super.IINC, Super.IINC_JMP]
    fused, raw = _fused_and_raw(udf, func, args, FUEL)
    assert fused == raw
    assert fused[0] == ("ok", value)


class _Reads:
    """A dispatch table that counts its reads."""

    def __init__(self, entries):
        self.entries = entries
        self.reads = 0

    def __getitem__(self, pc):
        self.reads += 1
        return self.entries[pc]


@pytest.mark.parametrize("args, ends", [
    ((2, 1, b"\x05\x06"), "ok"),
    ((3, 1, b"\x05\x06"), BoundsError),
])
def test_a_metered_frame_runs_the_raw_decode(args, ends):
    udf, func = _load(BYTE_SUM)
    raw = decode(func)
    charge = func.certificate.fuel_charge(list(args))
    quota = charge - 1

    def metered(fuel):
        """One fuel unit per raw entry read; the fused table is a trap."""
        reads = _Reads(raw)
        func.dispatch, func.fused = reads, ()
        try:
            return _observe(udf, func, args, fuel), reads.reads
        finally:
            func.dispatch, func.fused = raw, None

    (outcome, fuel_left, __), ran = metered(quota)
    assert ends in outcome
    assert quota - fuel_left == ran
    # Fuel runs out on the same instruction as without fusion: a quota
    # of exactly the instructions run ends as before, one less stops
    # before the last of them.
    assert metered(ran)[0][0] == outcome
    (short, __, __), __ = metered(ran - 1)
    assert short[:2] == ("err", FuelExhausted)
