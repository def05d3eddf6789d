"""Structured JIT and tier-1 kernels against the interpreter, on generated
JagScript.

A hypothesis grammar writes small programs with nested ``for`` loops
(steps +-1 and +-3, ``range(n, m, -1)``, counters near ``INT_MAX``, read
after their loop), ``while`` loops (``while True`` with ``break`` too),
``break``/``continue`` in nested loops, ``return`` inside loops,
``and``/``or``/if-expressions in loop conditions, byte-array reads,
``len(data)``-bounded byte loops, arithmetic near ``INT_MAX``, and an
accumulator ``s`` (initialised near ``INT_MAX`` too) fed by bytes,
constants, counters, an int parameter or a product.  Every program runs
under the interpreter and, at the same quota, the JIT's certified clone
(a quota covering its prepay), the JIT's checked body (a quota one below
the prepay), the JIT with the certificate stripped and, when
``kernel_eligibility`` accepts it, the batch kernel: the value or
``VMError`` class must agree, and a successful run charges the same fuel
in the interpreter and the JIT.

The file also pins the two bodies of ``generic``, the value guard's
boundary, and that the differential catches a seeded no-wrap bug.
"""

import dataclasses
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.decompile import InlineTemplate
from repro.analysis.intervals import Bound
from repro.core.callbacks import standard_callback_signatures
from repro.errors import ExecutionError, FuelExhausted, VMError
from repro.sql import ast_nodes as A
from repro.sql.expressions import compile_expr
from repro.sql.types import RowSchema
from repro.vm import compile_source, run_function, structure
from repro.vm.classfile import ClassFile, FunctionDef
from repro.vm.jit import JitCompiler, _translate, invoke_jit
from repro.vm.kernels import KernelDeopt, compile_batch_kernel
from repro.vm.machine import JaguarVM
from repro.vm.opcodes import OPS, Instr, Op
from repro.vm.resources import ResourceAccount
from repro.vm.security import Permissions
from repro.vm.tier import kernel_eligibility
from repro.vm.values import VMType

INT_MAX = 2 ** 63 - 1
INT_MIN_EXPR = "(-9223372036854775807 - 1)"
FUEL = 20_000


class _Writer:
    """Draws one JagScript function, statement by statement."""

    def __init__(self, draw):
        self.draw = draw
        self.loop_vars = []
        self.fresh = 0
        self.budget = 10

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    # -- expressions ----------------------------------------------------------

    def expr(self, depth=0):
        kinds = ["var", "var", "const"]
        if depth < 2:
            kinds += ["bin", "bin", "ifexp", "byte", "len"]
        kind = self.pick(kinds)
        if kind == "var":
            return self.pick(["a", "b", "c", "s", "n", "m"] + self.loop_vars)
        if kind == "const":
            return self.pick(["0", "1", "2", "3", "7", "(-5)", str(INT_MAX),
                              str(INT_MAX - 2), INT_MIN_EXPR])
        if kind == "bin":
            op = self.pick(["+", "-", "*", "//", "%"])
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if kind == "ifexp":
            return (f"({self.expr(depth + 1)} if {self.cond(depth + 1)} "
                    f"else {self.expr(depth + 1)})")
        if kind == "byte":
            return f"data[{self.expr(depth + 1)}]"
        return "len(data)"

    def cond(self, depth=0):
        kinds = ["cmp", "cmp"]
        if depth < 2:
            kinds += ["and", "or", "not", "ifexp"]
        kind = self.pick(kinds)
        if kind == "cmp":
            op = self.pick(["<", "<=", ">", ">=", "==", "!="])
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if kind == "not":
            return f"(not {self.cond(depth + 1)})"
        if kind == "ifexp":
            return (f"({self.cond(depth + 1)} if {self.cond(depth + 1)} "
                    f"else {self.cond(depth + 1)})")
        return f"({self.cond(depth + 1)} {kind} {self.cond(depth + 1)})"

    def bound(self):
        return self.pick(["n", "m", "len(data)", "0", "2", "4", "(-3)"])

    # -- statements -----------------------------------------------------------

    def block(self, indent, in_loop, depth):
        """Lines of a statement list and whether no path falls through."""
        lines = []
        count = self.draw(st.integers(1, 3))
        for index in range(count):
            stmt, done = self.stmt(indent, in_loop, depth, index + 1 == count)
            lines += stmt
            if done:
                return lines, True
        return lines, False

    def stmt(self, indent, in_loop, depth, last):
        pad = "    " * indent
        kinds = ["assign", "assign", "acc", "acc"]
        self.budget -= 1
        if depth < 3 and self.budget > 0:
            kinds += ["if", "for", "for", "while", "scan"]
        if last:
            kinds += ["return"] + (["break", "continue"] if in_loop else [])
        kind = self.pick(kinds)
        if kind == "assign":
            target = self.pick(["a", "b", "c"])
            return [f"{pad}{target} = {self.expr()}"], False
        if kind == "acc":
            return [f"{pad}{self.accumulate()}"], False
        if kind == "scan":
            return self.scan(pad, indent, depth), False
        if kind in ("break", "continue"):
            return [f"{pad}{kind}"], True
        if kind == "return":
            return [f"{pad}return {self.expr()}"], True
        if kind == "if":
            return self.if_(pad, indent, in_loop, depth)
        if kind == "for":
            return self.for_(pad, indent, depth), False
        return self.while_(pad, indent, depth), False

    def if_(self, pad, indent, in_loop, depth):
        lines = [f"{pad}if {self.cond()}:"]
        body, done = self.block(indent + 1, in_loop, depth + 1)
        lines += body
        if self.draw(st.booleans()):
            lines.append(f"{pad}elif {self.cond()}:")
            body, elif_done = self.block(indent + 1, in_loop, depth + 1)
            lines += body
            done = done and elif_done
        if self.draw(st.booleans()):
            lines.append(f"{pad}else:")
            body, else_done = self.block(indent + 1, in_loop, depth + 1)
            return lines + body, done and else_done
        return lines, False

    def for_(self, pad, indent, depth):
        var = f"i{self.fresh}"
        self.fresh += 1
        form = self.pick(["stop", "start-stop", "step", "down", "near-max"])
        if form == "stop":
            spec = self.bound()
        elif form == "start-stop":
            spec = f"{self.bound()}, {self.bound()}"
        elif form == "step":
            step = self.pick(["1", "(-1)", "3", "(-3)"])
            spec = f"{self.bound()}, {self.bound()}, {step}"
        elif form == "down":
            spec = "n, m, -1"
        else:
            step = self.pick(["1", "3"])
            spec = f"{INT_MAX - 4}, {INT_MAX}, {step}"
        self.loop_vars.append(var)
        body, __ = self.block(indent + 1, True, depth + 1)
        self.loop_vars.pop()
        after = [f"{pad}c = c + {var}"] if self.draw(st.booleans()) else []
        return [f"{pad}for {var} in range({spec}):"] + body + after

    def accumulate(self):
        """``s = s ± e``: bounded addends skip the wrap in the certified
        clone; a parameter or a product keeps it."""
        addend = self.pick(
            ["1", "3", "255", "n", "(a * b)", "data[0]"]
            + [f"data[{v}]" for v in self.loop_vars] + self.loop_vars
        )
        return f"s = s {self.pick(['+', '-'])} {addend}"

    def scan(self, pad, indent, depth):
        """A byte loop up to ``len(data)``, with an early ``break`` or
        ``continue``; its reads are in bounds from a start >= 0."""
        var = f"i{self.fresh}"
        self.fresh += 1
        start = self.pick(["", "1, ", "(-1), "])
        lines = [f"{pad}for {var} in range({start}len(data)):"]
        if self.draw(st.booleans()):
            exit_ = self.pick(["break", "continue"])
            lines += [f"{pad}    if data[{var}] > {self.pick(['7', '100'])}:",
                      f"{pad}        {exit_}"]
        lines.append(f"{pad}    s = s + data[{var}]")
        if self.draw(st.booleans()):
            self.loop_vars.append(var)
            body, __ = self.block(indent + 1, True, depth + 1)
            self.loop_vars.pop()
            lines += body
        return lines

    def while_(self, pad, indent, depth):
        if self.draw(st.booleans()):
            head = [f"{pad}while True:",
                    f"{pad}    if {self.cond()}:",
                    f"{pad}        break"]
        else:
            head = [f"{pad}while (c < 6) and {self.cond()}:"]
        body, __ = self.block(indent + 1, True, depth + 1)
        return head + [f"{pad}    c = c + 1"] + body

    def function(self):
        init = self.pick(["0", "7", str(INT_MAX - 300), "(-5)"])
        lines = ["def f(n: int, m: int, data: bytes) -> int:",
                 "    a: int = n",
                 "    b: int = m",
                 "    c: int = 0",
                 f"    s: int = {init}"]
        body, done = self.block(1, False, 0)
        lines += body
        if not done:
            lines.append("    return ((a + b) + c) + s")
        return "\n".join(lines) + "\n"


@st.composite
def programs(draw):
    return _Writer(draw).function()


ARGS = st.tuples(
    st.one_of(st.integers(-3, 9), st.sampled_from([INT_MAX, INT_MAX - 1])),
    st.one_of(st.integers(-3, 9), st.sampled_from([INT_MAX, -INT_MAX - 1])),
    st.binary(max_size=6),
)


def _outcome(run):
    try:
        return ("ok", run())
    except VMError as exc:
        return ("err", type(exc))


def _agrees(expected, got):
    """Equal, or ``got`` ran out of fuel where ``expected`` trapped: the
    JIT charges a block's fuel at block entry, the interpreter per
    instruction, so near the quota the JIT may stop first."""
    return got == expected or (
        expected[0] == "err" and got == ("err", FuelExhausted)
    )


def _load(source):
    cls = compile_source(source, "Gen")
    udf = JaguarVM().load_udf("gen", [cls])
    return udf, udf.main_class.functions["f"]


def _context(udf, fuel=FUEL):
    return udf.make_context(account=ResourceAccount(fuel=fuel, memory=1 << 16))


def _run(udf, func, args, runner, fuel=FUEL):
    ctx = _context(udf, fuel)
    outcome = _outcome(lambda: runner(udf.main_class, func, list(args), ctx))
    return outcome, ctx.account.fuel_used


def _kernel(udf, func, args):
    """The kernel's outcome, or None when it deopts to tier 0."""
    kernel = compile_batch_kernel(
        udf.main_class, func, udf.make_context(),
        JitCompiler(udf.loader.resolve_class),
    )
    ctx = _context(udf)
    out = []
    ctx.account.enter_call()
    try:
        kernel([args], ctx, out)
    except KernelDeopt:
        return None
    except VMError as exc:
        return ("err", type(exc))
    finally:
        ctx.account.exit_call()
    return ("ok", out[0])


def _agree_at(udf, func, args, fuel, source):
    """The interpreter and the JIT under the same quota; on success both
    charge the same fuel (the certified prepay, or the instructions run
    when metered, the JIT a block at a time)."""
    expected, interp_fuel = _run(udf, func, args, run_function, fuel)
    jit, jit_fuel = _run(udf, func, args, invoke_jit, fuel)
    assert _agrees(expected, jit), source
    if expected[0] == "ok":
        assert jit_fuel == interp_fuel, source
    return expected


def _differential(udf, func, args, source):
    charge = func.certificate.local_fuel_charge(list(args))
    # A quota covering the prepay runs the certified clone (or, when its
    # value guard fails, the prepaid checked body).
    expected = _agree_at(udf, func, args, FUEL, source)
    if charge is not None and 1 < charge <= FUEL:
        # One below the prepay: the metered checked body.
        _agree_at(udf, func, args, charge - 1, source)
    if kernel_eligibility(func) is None:
        kernel = _kernel(udf, func, args)
        assert kernel is None or kernel == expected, source
    # The certificate stripped: today's single checked body, metered.
    func.certificate = None
    _agree_at(udf, func, args, FUEL, source)


@settings(max_examples=250, deadline=None)
@given(source=programs(), args=ARGS)
def test_generated_programs_agree_in_every_tier(source, args):
    udf, func = _load(source)
    _differential(udf, func, args, source)


def test_a_seeded_nowrap_on_a_parameter_add_is_caught():
    source = (
        "def f(n: int, m: int, data: bytes) -> int:\n"
        "    s: int = 0\n"
        "    for i in range(3):\n"
        "        s = s + n\n"
        "    return s\n"
    )
    udf, func = _load(source)
    cert = func.certificate
    assert cert.nowrap_pcs == () and cert.value_bound is None
    (add,) = [pc for pc, ins in enumerate(func.code)
              if ins.op is Op.IADD and pc not in cert.wrap_free_pcs]
    func.certificate = dataclasses.replace(
        cert, nowrap_pcs=(add,), value_bound=Bound.const(0)
    )
    _differential(udf, func, (5, 0, b""), source)   # no wrap: no harm
    func.certificate = dataclasses.replace(
        cert, nowrap_pcs=(add,), value_bound=Bound.const(0)
    )
    with pytest.raises(AssertionError):
        _differential(udf, func, (INT_MAX - 1, 0, b""), source)


# -- the value guard's boundary -------------------------------------------------

NEAR_MAX = (
    "def f(n: int, m: int, data: bytes) -> int:\n"
    "    s: int = 9223372036854775000\n"
    "    for i in range(n):\n"
    "        s = s + 1\n"
    "    return s\n"
)


def _traced(udf, func, args):
    """The JIT's outcome and the text of each source line it ran."""
    source, namespace = _translate(
        udf.main_class, func, udf.make_context(), udf._jit
    )
    filename = "<traced jit>"
    exec(compile(source, filename, "exec"), namespace)
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    ctx = _context(udf)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        outcome = _outcome(lambda: namespace["__jag"](list(args), ctx))
    finally:
        sys.settrace(previous)
    lines = source.splitlines()
    return outcome, {lines[n - 1].strip() for n in ran}


@pytest.mark.parametrize("n, body, value", [
    (807, "clone", INT_MAX),
    (808, "checked", -INT_MAX - 1),
])
def test_the_value_guard_picks_the_body_at_int_max(n, body, value):
    udf, func = _load(NEAR_MAX)
    cert = func.certificate
    assert cert.value_bound == Bound.const(9223372036854775000) + Bound.atom(
        "pos0")
    args = (n, 0, b"")
    outcome, ran = _traced(udf, func, args)
    assert outcome == ("ok", value)
    assert _run(udf, func, args, run_function)[0] == outcome
    plain = "L3 = ((L3) + (1))"
    wrapped = ("L3 = ((((L3) + (1)) + 0x8000000000000000 & "
               "0xFFFFFFFFFFFFFFFF) - 0x8000000000000000)")
    assert (plain in ran, wrapped in ran) == (body == "clone",
                                              body == "checked")


def test_return_inside_nested_loops_ends_the_kernel_row():
    source = (
        "def f(n: int, m: int, data: bytes) -> int:\n"
        "    s: int = 0\n"
        "    for i in range(4):\n"
        "        for j in range(3, 0, -1):\n"
        "            if i * j == 4:\n"
        "                return s\n"
        "            s = s + i + j\n"
        "    return -1\n"
    )
    udf, func = _load(source)
    assert kernel_eligibility(func) is None
    args = (0, 0, b"")
    assert _run(udf, func, args, run_function)[0] == ("ok", 20)
    assert _run(udf, func, args, invoke_jit)[0] == ("ok", 20)
    assert _kernel(udf, func, args) == ("ok", 20)


def test_loop_exit_to_a_merge_goes_through_the_exit_variable():
    # The second loop's test and the if's else both land on the final
    # return, placed after the if: the loop's own break lands on its
    # ``break`` block, so the test's edge takes ``__x`` and a one-shot
    # loop around the if.
    source = (
        "def f(n: int, m: int, data: bytes) -> int:\n"
        "    c: int = 0\n"
        "    if n < m:\n"
        "        while (c < 6) and (n < 3):\n"
        "            c = c + 1\n"
        "            break\n"
        "        while (c < 6) and (m > 2):\n"
        "            c = c + 1\n"
        "            if c == n:\n"
        "                break\n"
        "    return c * 10 + n\n"
    )
    udf, func = _load(source)
    plan = structure.plan(func)
    assert plan.uses_exit_var
    assert [item for __, item in plan.lines].count("while True:") == 2
    for args in [(1, 5, b""), (3, 5, b""), (0, 9, b""), (7, 2, b"")]:
        expected, __ = _run(udf, func, args, run_function)
        assert _run(udf, func, args, invoke_jit)[0] == expected


# -- the structured form of ``generic`` ----------------------------------------

GENERIC = """
def generic(data: bytes, num_indep: int, num_dep: int,
            num_callbacks: int) -> int:
    s: int = 0
    for j in range(num_indep):
        s = s + 1
    for p in range(num_dep):
        for i in range(len(data)):
            s = s + data[i]
    for c in range(num_callbacks):
        s = s + cb_noop()
    return s
"""

_MASKED = re.compile(r"^\s*(L\d+) = \(\(\(\(L\d+\) \+ .*0xFFFFFFFFFFFFFFFF")
_PLAIN = re.compile(r"^\s*(L\d+) = \(\(L\d+\) \+ \(1\)\)$")


def _generic(strip=False):
    cls = compile_source(GENERIC, "Generic", standard_callback_signatures())
    udf = JaguarVM().load_udf(
        "generic", [cls], permissions=Permissions.with_callbacks("cb_noop")
    )
    func = udf.main_class.functions["generic"]
    if strip:
        func.certificate = None
    source, __ = _translate(udf.main_class, func, udf.make_context(), udf._jit)
    return udf, func, source


def _bodies(source):
    """A JIT source's certified clone and its checked body."""
    head, checked = source.split("\n    if __meter:\n", 1)
    clone = head.split("            __acct.fuel -= __b\n", 1)[1]
    return clone.splitlines(), ("    if __meter:\n" + checked).splitlines()


def test_generic_counters_skip_the_wrap_and_the_accumulator_keeps_it():
    __, func, source = _generic()
    assert "__pc" not in source
    clone, checked = _bodies(source)

    # The checked body: counters add plainly, the accumulator wraps, the
    # byte read checks its index, every block is metered.
    assert sum("while True:" in line for line in checked) == 4
    plain = [m.group(1) for line in checked if (m := _PLAIN.match(line))]
    masked = [m.group(1) for line in checked if (m := _MASKED.match(line))]
    assert sorted(plain) == ["L11", "L5", "L7", "L9"]   # j, p, i, c
    assert masked == ["L4", "L4", "L4"]                  # s
    assert any("0 <= L9 < len(L0)" in line for line in checked)
    code = func.code
    counter_adds = [pc - 1 for pc, ins in enumerate(code)
                    if ins.op is Op.STORE and ins.arg in (5, 7, 9, 11)
                    and code[pc - 1].op is Op.IADD]
    assert list(func.certificate.wrap_free_pcs) == counter_adds

    # The certified clone, behind the value guard: no meter, counted
    # ``for`` loops, the two data-loop adds and the byte read plain, and
    # only the callback add wrapped.
    guard = clone[0].strip()
    assert guard == ("if 255*len(L0)*(L2 if L2 > 0 else 0) + "
                     "1*(L1 if L1 > 0 else 0) < 0x8000000000000000:")
    body = "\n".join(clone[1:])
    assert "__meter" not in body and "while True" not in body
    assert body.count(" in range(") == 4
    stripped = [line.strip() for line in clone]
    assert "L4 = ((L4) + (1))" in stripped
    assert "L4 = ((L4) + (L0[L9]))" in stripped
    masked = [m.group(1) for line in clone if (m := _MASKED.match(line))]
    assert masked == ["L4"]
    assert "(L4) + (t0)" in next(line for line in clone if _MASKED.match(line))
    assert "0 <= L9" not in body and "_oob" not in body


def test_without_a_certificate_every_iadd_wraps():
    __, func, source = _generic(strip=True)
    lines = source.splitlines()
    adds = sum(ins.op is Op.IADD for ins in func.code)
    assert sum(bool(_MASKED.match(line)) for line in lines) == adds
    assert not any(_PLAIN.match(line) for line in lines)


def test_stripping_the_certificate_emits_only_the_checked_body():
    __, __, certified = _generic()
    __, __, stripped = _generic(strip=True)
    __, checked = _bodies(certified)
    __, body = stripped.split("\n    __meter = True\n", 1)
    assert "__b" not in stripped and " in range(" not in stripped
    # Line for line the checked body, but the counter increments wrap.
    body = body.splitlines()
    assert len(body) == len(checked)
    differ = [(a, b) for a, b in zip(body, checked) if a != b]
    assert [(_MASKED.match(a).group(1), _PLAIN.match(b).group(1))
            for a, b in differ] == [(v, v) for v in ("L5", "L9", "L7", "L11")]


@pytest.mark.parametrize("args", [
    (b"\x01\x02\x03", 5, 2, 0),
    (b"", 0, 0, 0),
    (bytes(range(200, 256)), 3, 4, 0),
])
def test_generic_jit_matches_interpreter(args):
    udf, func, __ = _generic()
    expected, __ = _run(udf, func, args, run_function)
    assert _run(udf, func, args, invoke_jit)[0] == expected


# -- table-driven straight-line programs ----------------------------------------
#
# Every opcode with a ``py`` template over int/float/bool operands, drawn
# from the opcode table itself, so a new row is covered without a new
# test.  Beside the tiers above, the decompiled SQL template evaluated
# through ``compile_expr`` must agree too (a decompiler refusal skips it).

_SCALAR = (VMType.INT, VMType.FLOAT, VMType.BOOL)
_TABLE_OPS = sorted(
    (op for op, info in OPS.items()
     if info.py is not None
     and all(t in _SCALAR for t in info.pops + info.pushes)),
    key=lambda op: op.name,
)
#: Parameter slot and constant pool per type: the int64 edges, zero and
#: small values.
_SLOT = {VMType.INT: (0, 1), VMType.FLOAT: (2,), VMType.BOOL: (3,)}
_INTS = [-INT_MAX - 1, -INT_MAX, -2, -1, 0, 1, 2, 3, 63, 64,
         INT_MAX - 1, INT_MAX]
_FLOATS = [0.0, -0.0, 0.5, -3.0, 7.25, 9.2e18, -9.3e18]
_CONST = {VMType.INT: Op.ICONST, VMType.FLOAT: Op.FCONST,
          VMType.BOOL: Op.BCONST}
_VALUES = {VMType.INT: _INTS, VMType.FLOAT: _FLOATS, VMType.BOOL: [0, 1]}


@st.composite
def straight_line(draw):
    """``(code, return type)``: one table op over drawn operand trees."""
    def tree(vm_type, depth, op=None):
        if op is None and depth < 3 and draw(st.booleans()):
            op = draw(st.sampled_from(
                [o for o in _TABLE_OPS if OPS[o].pushes == (vm_type,)]))
        if op is None:
            if draw(st.booleans()):
                return [Instr(Op.LOAD, draw(st.sampled_from(_SLOT[vm_type])))]
            value = draw(st.sampled_from(_VALUES[vm_type]))
            return [Instr(_CONST[vm_type], value)]
        code = []
        for operand in OPS[op].pops:
            code += tree(operand, depth + 1)
        return code + [Instr(op, None)]

    root = draw(st.sampled_from(_TABLE_OPS))
    (ret,) = OPS[root].pushes
    return tree(ret, 0, root) + [Instr(Op.RET, None)], ret


TABLE_ARGS = st.tuples(
    st.sampled_from(_INTS), st.sampled_from(_INTS),
    st.sampled_from(_FLOATS), st.booleans(),
)


def _table_function(code, ret):
    params = (VMType.INT, VMType.INT, VMType.FLOAT, VMType.BOOL)
    cls = ClassFile(name="Table")
    cls.add_function(FunctionDef(name="f", param_types=params, ret_type=ret,
                                 local_types=params, code=tuple(code)))
    udf = JaguarVM().load_udf("table", [cls])
    return udf, udf.main_class.functions["f"]


def _sql_outcome(template, args):
    def bind(node):
        if isinstance(node, A.ParamRef):
            return A.Literal(args[node.index])
        return node

    expr = A.transform(template.expr, bind)
    try:
        return ("ok", compile_expr(expr, RowSchema([]))([[]])[0])
    except ExecutionError:
        return ("err",)


def _typed(outcome):
    """Values compared with their type and sign of zero."""
    if outcome[0] == "ok":
        return ("ok", type(outcome[1]), repr(outcome[1]))
    return outcome


def _table_differential(udf, func, args, code):
    expected = _typed(_run(udf, func, args, run_function)[0])
    # The certified clone (its prepay fits the quota) ...
    assert _typed(_run(udf, func, args, invoke_jit)[0]) == expected, code
    if kernel_eligibility(func) is None:
        kernel = _kernel(udf, func, args)
        assert kernel is None or _typed(kernel) == expected, code
    if isinstance(func.inline, InlineTemplate):
        sql = _sql_outcome(func.inline, args)
        if sql == ("err",):
            assert expected[0] == "err", code
        else:
            assert _typed(sql) == expected, code
    # ... and the metered checked body.
    func.certificate = None
    assert _typed(_run(udf, func, args, invoke_jit)[0]) == expected, code


@settings(max_examples=400, deadline=None)
@given(program=straight_line(), args=TABLE_ARGS)
# INEG at INT_MIN wraps; BAND evaluates a trapping right operand.
@example(program=([Instr(Op.LOAD, 0), Instr(Op.INEG, None),
                   Instr(Op.RET, None)], VMType.INT),
         args=(-INT_MAX - 1, 0, 0.0, True))
@example(program=([Instr(Op.BCONST, 0), Instr(Op.LOAD, 0),
                   Instr(Op.ICONST, 0), Instr(Op.IDIV, None),
                   Instr(Op.ICONST, 1), Instr(Op.ICMPEQ, None),
                   Instr(Op.BAND, None), Instr(Op.RET, None)], VMType.BOOL),
         args=(5, 0, 0.0, True))
def test_table_ops_agree_in_every_executor(program, args):
    code, ret = program
    udf, func = _table_function(code, ret)
    _table_differential(udf, func, args, code)

