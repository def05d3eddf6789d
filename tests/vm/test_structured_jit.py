"""Structured JIT and tier-1 kernels against the interpreter, on generated
JagScript.

A hypothesis grammar writes small programs with nested ``for`` loops
(steps +-1 and +-3, ``range(n, m, -1)``, counters near ``INT_MAX``),
``while`` loops (``while True`` with ``break`` too), ``break``/``continue``
in nested loops, ``return`` inside loops, ``and``/``or``/if-expressions in
loop conditions, byte-array reads and arithmetic near ``INT_MAX``.  Every
program runs under the interpreter, the JIT and, when
``kernel_eligibility`` accepts it, the batch kernel: the value or
``VMError`` class must agree, and with certificates stripped (dynamic
metering everywhere) a successful run charges the same fuel in the
interpreter and the JIT.

The file also pins the structured form itself: ``generic`` compiles to
loops with no ``__pc``, its four counter increments carry no 64-bit wrap
while its accumulator does, and without a certificate every IADD wraps.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.callbacks import standard_callback_signatures
from repro.errors import FuelExhausted, VMError
from repro.vm import compile_source, run_function, structure
from repro.vm.jit import JitCompiler, _translate, invoke_jit
from repro.vm.kernels import KernelDeopt, compile_batch_kernel
from repro.vm.machine import JaguarVM
from repro.vm.opcodes import Op
from repro.vm.resources import ResourceAccount
from repro.vm.security import Permissions
from repro.vm.tier import kernel_eligibility

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
            return self.pick(["a", "b", "c", "n", "m"] + self.loop_vars)
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
        kinds = ["assign", "assign"]
        self.budget -= 1
        if depth < 3 and self.budget > 0:
            kinds += ["if", "for", "for", "while"]
        if last:
            kinds += ["return"] + (["break", "continue"] if in_loop else [])
        kind = self.pick(kinds)
        if kind == "assign":
            target = self.pick(["a", "b", "c"])
            return [f"{pad}{target} = {self.expr()}"], False
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
        return [f"{pad}for {var} in range({spec}):"] + body

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
        lines = ["def f(n: int, m: int, data: bytes) -> int:",
                 "    a: int = n",
                 "    b: int = m",
                 "    c: int = 0"]
        body, done = self.block(1, False, 0)
        lines += body
        if not done:
            lines.append("    return (a + b) + c")
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


def _context(udf):
    return udf.make_context(account=ResourceAccount(fuel=FUEL, memory=1 << 16))


def _run(udf, func, args, runner):
    ctx = _context(udf)
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


@settings(max_examples=250, deadline=None)
@given(source=programs(), args=ARGS)
def test_generated_programs_agree_in_every_tier(source, args):
    udf, func = _load(source)
    expected, __ = _run(udf, func, args, run_function)
    jit, __ = _run(udf, func, args, invoke_jit)
    assert _agrees(expected, jit), source
    if kernel_eligibility(func) is None:
        kernel = _kernel(udf, func, args)
        assert kernel is None or kernel == expected, source

    # Dynamic metering: with the certificate gone both tiers charge per
    # instruction executed, the JIT a block at a time.
    func.certificate = None
    expected, interp_fuel = _run(udf, func, args, run_function)
    jit, jit_fuel = _run(udf, func, args, invoke_jit)
    assert _agrees(expected, jit), source
    if expected[0] == "ok":
        assert jit_fuel == interp_fuel, source


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
    plan = structure.plan(func.code)
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


def test_generic_counters_skip_the_wrap_and_the_accumulator_keeps_it():
    __, func, source = _generic()
    assert "__pc" not in source
    assert source.count("while True:") == 4
    lines = source.splitlines()
    plain = [m.group(1) for line in lines if (m := _PLAIN.match(line))]
    masked = [m.group(1) for line in lines if (m := _MASKED.match(line))]
    assert sorted(plain) == ["L11", "L5", "L7", "L9"]   # j, p, i, c
    assert set(masked) == {"L4"}                         # s
    code = func.code
    counter_adds = [pc - 1 for pc, ins in enumerate(code)
                    if ins.op is Op.STORE and ins.arg in (5, 7, 9, 11)
                    and code[pc - 1].op is Op.IADD]
    assert list(func.certificate.wrap_free_pcs) == counter_adds


def test_without_a_certificate_every_iadd_wraps():
    __, func, source = _generic(strip=True)
    lines = source.splitlines()
    adds = sum(ins.op is Op.IADD for ins in func.code)
    assert sum(bool(_MASKED.match(line)) for line in lines) == adds
    assert not any(_PLAIN.match(line) for line in lines)


@pytest.mark.parametrize("args", [
    (b"\x01\x02\x03", 5, 2, 0),
    (b"", 0, 0, 0),
    (bytes(range(200, 256)), 3, 4, 0),
])
def test_generic_jit_matches_interpreter(args):
    udf, func, __ = _generic()
    expected, __ = _run(udf, func, args, run_function)
    assert _run(udf, func, args, invoke_jit)[0] == expected
