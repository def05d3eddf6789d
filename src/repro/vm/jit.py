"""JaguarVM JIT: verified bytecode -> host (Python) closures.

The paper's JVM "also compiles parts of the byte codes to machine code
before execution", and its performance conclusions assume a JIT ("given
current trends in JIT compiler technology...").  JaguarVM's equivalent
translates verified bytecode into Python source, compiles it with the
host compiler, and caches the resulting closure.

The translation keeps every safety property the interpreter enforces:

* **array bounds** — each ALOAD/ASTORE/SINDEX emits an inline range
  check (this is the "price paid for security" the paper measures in
  Figure 7; the JIT pays it too, exactly like Java's JIT did);
* **fuel** — each basic block charges its instruction count and checks
  the quota, the instrument-at-back-edges strategy of the J-Kernel
  project (Section 6.2), so runaway loops still die promptly;
* **memory quotas** — every allocating opcode routes through the
  resource account;
* **64-bit wrapping arithmetic** — inline mask-and-shift, bit-identical
  to the interpreter;
* **security manager** — native permissions are checked once at compile
  time (the permission set of a loaded UDF is immutable); callbacks are
  checked on every invocation, as in the interpreter.

Because the input is *verified* bytecode, translation is straightforward:
every instruction has a known stack depth and operand types, so the
symbolic-stack translator below can map stack slots to Python expressions
without any runtime type dispatch.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ArithmeticFault, BoundsError, VerifyError
from .classfile import ClassFile, FunctionDef, K_CALLBACK, K_FUNC, K_NATIVE, K_STR
from .interpreter import ExecutionContext
from .opcodes import BRANCH_OPS, FIXED_EFFECTS, Op, TERMINATOR_OPS
from .stdlib import NATIVE_SIGNATURES
from .values import (
    VMType,
    coerce_argument,
    default_value,
    f2i,
    idiv,
    imod,
)

_WRAP_K = 0x8000000000000000
_WRAP_M = 0xFFFFFFFFFFFFFFFF

#: ``wrap(x)`` inlined as a format string.
_WRAP = "((({x}) + 0x8000000000000000 & 0xFFFFFFFFFFFFFFFF) - 0x8000000000000000)"

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|-?\d+")


def _jit_atom_expr(atom: str) -> str:
    """Render a certificate atom against the jitted parameter names."""
    if atom.startswith("len"):
        return f"len(L{atom[3:]})"
    if atom.startswith("pos"):
        i = atom[3:]
        return f"(L{i} if L{i} > 0 else 0)"
    raise ValueError(f"unknown certificate atom {atom!r}")


def _oob(index: int, length: int):
    raise BoundsError(f"array index {index} out of range [0, {length})")


def _oob_slice(start: int, end: int, length: int):
    raise BoundsError(
        f"substring [{start}:{end}] out of range for length {length}"
    )


def _div0():
    raise ArithmeticFault("integer division by zero")


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise ArithmeticFault("float division by zero")
    return a / b


def _newarr(acct, n: int) -> bytearray:
    if n < 0:
        raise BoundsError(f"negative array size {n}")
    acct.charge_memory(n)
    return bytearray(n)


def _newfarr(acct, n: int):
    from array import array

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
        _oob_slice(start, end, len(s))
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


from array import array as _host_array

_RUNTIME = {
    "array": _host_array,
    "_oob": _oob,
    "_oob_slice": _oob_slice,
    "_fdiv": _fdiv,
    "_imod": imod,
    "_idiv": idiv,
    "_f2i": f2i,
    "_newarr": _newarr,
    "_newfarr": _newfarr,
    "_acopy": _acopy,
    "_sconcat": _sconcat,
    "_ssub": _ssub,
    "_i2s": _i2s,
    "_f2s": _f2s,
    "_coerce": coerce_argument,
}

JittedFunction = Callable[[Sequence[object], ExecutionContext], object]


class JitCompiler:
    """Compiles and caches jitted functions for one class namespace."""

    def __init__(self, resolve_class: Callable[[str], ClassFile]):
        self._resolve_class = resolve_class
        self._cache: Dict[Tuple[str, str], JittedFunction] = {}

    def get(self, cls: ClassFile, func: FunctionDef,
            ctx: ExecutionContext) -> JittedFunction:
        key = (cls.name, func.name)
        jitted = self._cache.get(key)
        if jitted is None:
            jitted = compile_function(cls, func, ctx, self)
            self._cache[key] = jitted
        return jitted

    def call(self, class_name: str, func_name: str,
             args: Sequence[object], ctx: ExecutionContext) -> object:
        """CALL dispatch used from generated code."""
        callee_cls, callee = ctx.resolve_function(class_name, func_name)
        jitted = self.get(callee_cls, callee, ctx)
        ctx.account.enter_call()
        try:
            return jitted(args, ctx)
        finally:
            ctx.account.exit_call()


def invoke_jit(
    cls: ClassFile,
    func: FunctionDef,
    args: Sequence[object],
    ctx: ExecutionContext,
    compiler: Optional[JitCompiler] = None,
) -> object:
    """JIT-mode counterpart of :func:`repro.vm.interpreter.run_function`."""
    if not cls.verified:
        raise VerifyError(f"refusing to execute unverified class {cls.name!r}")
    if compiler is None:
        compiler = JitCompiler(lambda name: cls)
    if len(args) != len(func.param_types):
        from ..errors import VMRuntimeError

        raise VMRuntimeError(
            f"{cls.name}.{func.name} expects {len(func.param_types)} "
            f"arguments, got {len(args)}"
        )
    vm_args = [coerce_argument(a, t) for a, t in zip(args, func.param_types)]
    jitted = compiler.get(cls, func, ctx)
    ctx.account.enter_call()
    try:
        return jitted(vm_args, ctx)
    finally:
        ctx.account.exit_call()


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def compile_function(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    compiler: JitCompiler,
) -> JittedFunction:
    """Translate one verified function to a Python closure."""
    source, namespace = _translate(cls, func, ctx, compiler)
    code = compile(source, f"<jit {cls.name}.{func.name}>", "exec")
    exec(code, namespace)
    return namespace["__jag"]


def _stack_depths(cls: ClassFile, func: FunctionDef,
                  ctx: ExecutionContext) -> List[int]:
    """Entry stack depth of every instruction (the code is verified, so
    depths at joins agree)."""
    code = func.code
    depths: List[Optional[int]] = [None] * len(code)
    depths[0] = 0
    work = [0]
    while work:
        pc = work.pop()
        depth = depths[pc]
        ins = code[pc]
        op = ins.op
        fixed = FIXED_EFFECTS.get(op)
        if fixed is not None:
            after = depth - len(fixed[0]) + len(fixed[1])
        elif op in (Op.ICONST, Op.FCONST, Op.BCONST, Op.SCONST, Op.LOAD, Op.DUP):
            after = depth + 1
        elif op in (Op.STORE, Op.POP):
            after = depth - 1
        elif op in (Op.SWAP, Op.JMP):
            after = depth
        elif op in (Op.RET, Op.RETV):
            after = 0
        elif op is Op.CALL:
            class_name, func_name = cls.constant(ins.arg, K_FUNC)
            __, callee = ctx.resolve_function(class_name, func_name)
            after = depth - len(callee.param_types)
            if callee.ret_type is not VMType.VOID:
                after += 1
        elif op in (Op.NATIVE, Op.CALLBACK):
            if op is Op.NATIVE:
                (name,) = cls.constant(ins.arg, K_NATIVE)
                params, ret = NATIVE_SIGNATURES[name]
            else:
                (name,) = cls.constant(ins.arg, K_CALLBACK)
                params, ret = ctx.callback_signatures[name]
            after = depth - len(params)
            if ret is not VMType.VOID:
                after += 1
        else:  # pragma: no cover
            raise VerifyError(f"jit cannot size opcode {op}")
        for succ in _successors(pc, ins):
            if succ < len(code) and depths[succ] is None:
                depths[succ] = after
                work.append(succ)
    return [d if d is not None else 0 for d in depths]


def _successors(pc: int, ins) -> List[int]:
    succ = []
    if ins.op in BRANCH_OPS:
        succ.append(ins.arg)
    if ins.op not in TERMINATOR_OPS:
        succ.append(pc + 1)
    return succ


def _leaders(func: FunctionDef) -> List[int]:
    leaders = {0}
    for pc, ins in enumerate(func.code):
        if ins.op in BRANCH_OPS:
            leaders.add(ins.arg)
            if ins.op is not Op.JMP:
                leaders.add(pc + 1)
        elif ins.op in (Op.RET, Op.RETV):
            if pc + 1 < len(func.code):
                leaders.add(pc + 1)
    return sorted(leaders)


class _BlockWriter:
    """Emits the Python statements of one basic block."""

    def __init__(self, entry_depth: int):
        self.lines: List[str] = []
        self.stack: List[str] = [f"s{i}" for i in range(entry_depth)]
        self._temp = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def push(self, expr: str) -> None:
        self.stack.append(expr)

    def pop(self) -> str:
        return self.stack.pop()

    def temp(self, expr: str) -> str:
        name = f"t{self._temp}"
        self._temp += 1
        self.emit(f"{name} = {expr}")
        return name

    def atom(self, expr: str) -> str:
        """Materialize a non-trivial expression into a temp variable."""
        if _ATOM_RE.fullmatch(expr):
            return expr
        return self.temp(expr)

    def flush_below(self, keep: int) -> None:
        """Materialize all stack entries except the top ``keep``.

        Called before side-effecting operations so that pending (lazy)
        expressions are evaluated in stack-machine order.
        """
        limit = len(self.stack) - keep
        for i in range(limit):
            expr = self.stack[i]
            if not _ATOM_RE.fullmatch(expr):
                self.stack[i] = self.temp(expr)

    def spill_to_entry_names(self) -> None:
        """Assign the symbolic stack to the canonical s0.. names, so a
        successor block finds its entry stack where it expects it."""
        targets = [f"s{i}" for i in range(len(self.stack))]
        pairs = [
            (t, e) for t, e in zip(targets, self.stack) if t != e
        ]
        if pairs:
            lhs = ", ".join(t for t, __ in pairs)
            rhs = ", ".join(e for __, e in pairs)
            self.emit(f"{lhs} = {rhs}")
        self.stack = targets


def _translate(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    compiler: JitCompiler,
) -> Tuple[str, dict]:
    code = func.code
    depths = _stack_depths(cls, func, ctx)
    leaders = _leaders(func)
    leader_set = set(leaders)

    namespace: dict = dict(_RUNTIME)
    namespace["__compiler"] = compiler

    # Natives: permission checked once, implementations bound directly.
    native_names = set()
    for ins in code:
        if ins.op is Op.NATIVE:
            (name,) = cls.constant(ins.arg, K_NATIVE)
            ctx.security.check_native(name)
            native_names.add(name)
    for name in native_names:
        namespace[f"__n_{name}"] = ctx.natives[name]

    out: List[str] = []
    out.append("def __jag(__args, __ctx):")
    out.append("    __acct = __ctx.account")
    nparams = len(func.param_types)
    if nparams:
        names = ", ".join(f"L{i}" for i in range(nparams))
        trailing = "," if nparams == 1 else ""
        out.append(f"    ({names}{trailing}) = __args")
    for i, t in enumerate(func.local_types[nparams:], start=nparams):
        out.append(f"    L{i} = {default_value(t)!r}")
    # Certified-bound prologue: when the static certifier proved a fuel
    # bound for this method (callees excluded — they charge their own
    # prologue), pay the whole worst case once and skip the per-block
    # meter.  Falls back to dynamic metering when the bound does not fit
    # the remaining quota or the account was revoked before entry.
    cert = getattr(func, "certificate", None)
    local_bound = getattr(cert, "local_fuel_bound", None)
    if local_bound is not None:
        expr = local_bound.as_python(_jit_atom_expr)
        out.append("    if __acct.revoked:")
        out.append("        __meter = True")
        out.append("    else:")
        out.append(f"        __b = {expr}")
        out.append("        __meter = __b > __acct.fuel")
        out.append("        if not __meter:")
        out.append("            __acct.fuel -= __b")
    else:
        out.append("    __meter = True")
    out.append("    __pc = 0")
    out.append("    while True:")

    first = True
    for block_index, start in enumerate(leaders):
        end = leaders[block_index + 1] if block_index + 1 < len(leaders) else len(code)
        writer = _BlockWriter(depths[start])
        closed = _emit_block(cls, func, ctx, writer, code, start, end, namespace)
        if not closed:
            # Fall through to the next leader.
            writer.spill_to_entry_names()
            writer.emit(f"__pc = {end}")
            writer.emit("continue")
        keyword = "if" if first else "elif"
        first = False
        out.append(f"        {keyword} __pc == {start}:")
        fuel_units = end - start
        out.append("            if __meter:")
        out.append(f"                __acct.fuel -= {fuel_units}")
        out.append("                if __acct.fuel < 0: __acct.out_of_fuel()")
        for line in writer.lines:
            out.append(f"            {line}")
    source = "\n".join(out) + "\n"
    return source, namespace


def _emit_block(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    w: _BlockWriter,
    code,
    start: int,
    end: int,
    namespace: dict,
) -> bool:
    """Emit instructions [start, end); True if the block ends in a
    branch/return (i.e. control never falls through)."""
    for pc in range(start, end):
        ins = code[pc]
        op = ins.op

        if op is Op.ICONST:
            w.push(repr(ins.arg))
        elif op is Op.FCONST:
            w.push(repr(ins.arg))
        elif op is Op.BCONST:
            w.push("True" if ins.arg == 1 else "False")
        elif op is Op.SCONST:
            const_name = f"K{ins.arg}"
            namespace[const_name] = cls.pool[ins.arg].value[0]
            w.push(const_name)
        elif op is Op.LOAD:
            w.push(f"L{ins.arg}")
        elif op is Op.STORE:
            value = w.pop()
            w.flush_below(0)
            w.emit(f"L{ins.arg} = {value}")
        elif op is Op.POP:
            expr = w.pop()
            if not _ATOM_RE.fullmatch(expr):
                w.emit(f"__ = {expr}")
        elif op is Op.DUP:
            top = w.atom(w.pop())
            w.push(top)
            w.push(top)
        elif op is Op.SWAP:
            b = w.atom(w.pop())
            a = w.atom(w.pop())
            w.push(b)
            w.push(a)

        elif op is Op.IADD:
            b = w.pop(); a = w.pop()
            w.push(_WRAP.format(x=f"({a}) + ({b})"))
        elif op is Op.ISUB:
            b = w.pop(); a = w.pop()
            w.push(_WRAP.format(x=f"({a}) - ({b})"))
        elif op is Op.IMUL:
            b = w.pop(); a = w.pop()
            w.push(_WRAP.format(x=f"({a}) * ({b})"))
        elif op is Op.IDIV:
            b = w.pop(); a = w.pop()
            w.push(f"_idiv({a}, {b})")
        elif op is Op.IMOD:
            b = w.pop(); a = w.pop()
            w.push(f"_imod({a}, {b})")
        elif op is Op.INEG:
            a = w.pop()
            w.push(_WRAP.format(x=f"-({a})"))
        elif op is Op.IAND:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) & ({b}))")
        elif op is Op.IOR:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) | ({b}))")
        elif op is Op.IXOR:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) ^ ({b}))")
        elif op is Op.ISHL:
            b = w.pop(); a = w.pop()
            w.push(_WRAP.format(x=f"({a}) << (({b}) & 63)"))
        elif op is Op.ISHR:
            b = w.pop(); a = w.pop()
            w.push(_WRAP.format(x=f"({a}) >> (({b}) & 63)"))

        elif op is Op.FADD:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) + ({b}))")
        elif op is Op.FSUB:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) - ({b}))")
        elif op is Op.FMUL:
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) * ({b}))")
        elif op is Op.FDIV:
            b = w.pop(); a = w.pop()
            w.push(f"_fdiv({a}, {b})")
        elif op is Op.FNEG:
            a = w.pop()
            w.push(f"(-({a}))")

        elif op is Op.I2F:
            a = w.pop()
            w.push(f"float({a})")
        elif op is Op.F2I:
            a = w.pop()
            w.push(f"_f2i({a})")
        elif op is Op.I2S:
            a = w.pop()
            w.push(f"_i2s(__acct, {a})")
        elif op is Op.F2S:
            a = w.pop()
            w.push(f"_f2s(__acct, {a})")

        elif op in (Op.ICMPLT, Op.FCMPLT):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) < ({b}))")
        elif op in (Op.ICMPLE, Op.FCMPLE):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) <= ({b}))")
        elif op in (Op.ICMPGT, Op.FCMPGT):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) > ({b}))")
        elif op in (Op.ICMPGE, Op.FCMPGE):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) >= ({b}))")
        elif op in (Op.ICMPEQ, Op.FCMPEQ, Op.SEQ):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) == ({b}))")
        elif op in (Op.ICMPNE, Op.FCMPNE):
            b = w.pop(); a = w.pop()
            w.push(f"(({a}) != ({b}))")

        elif op is Op.NOT:
            a = w.pop()
            w.push(f"(not ({a}))")
        elif op is Op.BAND:
            b = w.atom(w.pop()); a = w.atom(w.pop())
            w.push(f"({a} and {b})")
        elif op is Op.BOR:
            b = w.atom(w.pop()); a = w.atom(w.pop())
            w.push(f"({a} or {b})")

        elif op is Op.SCONCAT:
            b = w.pop(); a = w.pop()
            w.push(f"_sconcat(__acct, {a}, {b})")
        elif op is Op.SLEN:
            a = w.pop()
            w.push(f"len({a})")
        elif op is Op.SINDEX:
            i = w.atom(w.pop()); s = w.atom(w.pop())
            w.push(f"(ord({s}[{i}]) if 0 <= {i} < len({s}) "
                   f"else _oob({i}, len({s})))")
        elif op is Op.SSUB:
            e = w.pop(); st = w.pop(); s = w.pop()
            w.push(f"_ssub(__acct, {s}, {st}, {e})")

        elif op is Op.NEWARR:
            n = w.pop()
            w.flush_below(0)
            w.push(w.temp(f"_newarr(__acct, {n})"))
        elif op is Op.ALOAD:
            i = w.atom(w.pop()); a = w.atom(w.pop())
            w.push(f"({a}[{i}] if 0 <= {i} < len({a}) "
                   f"else _oob({i}, len({a})))")
        elif op is Op.ASTORE:
            v = w.pop(); i = w.pop(); a = w.pop()
            w.flush_below(0)
            i = w.atom(i)
            a = w.atom(a)
            w.emit(f"if not 0 <= {i} < len({a}): _oob({i}, len({a}))")
            w.emit(f"{a}[{i}] = ({v}) & 255")
        elif op is Op.ALEN:
            a = w.pop()
            w.push(f"len({a})")
        elif op is Op.ACOPY:
            a = w.pop()
            w.flush_below(0)
            w.push(w.temp(f"_acopy(__acct, {a})"))

        elif op is Op.NEWFARR:
            n = w.pop()
            w.flush_below(0)
            w.push(w.temp(f"_newfarr(__acct, {n})"))
        elif op is Op.FALOAD:
            i = w.atom(w.pop()); a = w.atom(w.pop())
            w.push(f"({a}[{i}] if 0 <= {i} < len({a}) "
                   f"else _oob({i}, len({a})))")
        elif op is Op.FASTORE:
            v = w.pop(); i = w.pop(); a = w.pop()
            w.flush_below(0)
            i = w.atom(i)
            a = w.atom(a)
            w.emit(f"if not 0 <= {i} < len({a}): _oob({i}, len({a}))")
            w.emit(f"{a}[{i}] = {v}")
        elif op is Op.FALEN:
            a = w.pop()
            w.push(f"len({a})")

        elif op is Op.JMP:
            w.spill_to_entry_names()
            w.emit(f"__pc = {ins.arg}")
            w.emit("continue")
            return True
        elif op is Op.JZ or op is Op.JNZ:
            cond = w.pop()
            cond = w.atom(cond) if not _ATOM_RE.fullmatch(cond) else cond
            w.spill_to_entry_names()
            negation = "not " if op is Op.JZ else ""
            w.emit(f"if {negation}{cond}:")
            w.emit(f"    __pc = {ins.arg}")
            w.emit("    continue")
        elif op is Op.RET:
            value = w.pop()
            w.emit(f"return {value}")
            return True
        elif op is Op.RETV:
            w.emit("return None")
            return True

        elif op is Op.CALL:
            class_name, func_name = cls.constant(ins.arg, K_FUNC)
            __, callee = ctx.resolve_function(class_name, func_name)
            nargs = len(callee.param_types)
            args = [w.pop() for _ in range(nargs)]
            args.reverse()
            w.flush_below(0)
            arg_list = ", ".join(args)
            trailing = "," if nargs == 1 else ""
            call = (f"__compiler.call({class_name!r}, {func_name!r}, "
                    f"({arg_list}{trailing}), __ctx)")
            if callee.ret_type is VMType.VOID:
                w.emit(call)
            else:
                w.push(w.temp(call))
        elif op is Op.NATIVE:
            (name,) = cls.constant(ins.arg, K_NATIVE)
            params, ret = NATIVE_SIGNATURES[name]
            args = [w.pop() for _ in range(len(params))]
            args.reverse()
            w.flush_below(0)
            call = f"__n_{name}({', '.join(args)})"
            if ret is VMType.VOID:
                w.emit(call)
            else:
                w.push(w.temp(call))
        elif op is Op.CALLBACK:
            (name,) = cls.constant(ins.arg, K_CALLBACK)
            params, ret = ctx.callback_signatures[name]
            args = [w.pop() for _ in range(len(params))]
            args.reverse()
            w.flush_below(0)
            arg_list = ", ".join(args)
            trailing = "," if len(args) == 1 else ""
            call = f"__ctx.invoke_callback({name!r}, ({arg_list}{trailing}))"
            if ret is VMType.VOID:
                w.emit(call)
            else:
                ret_name = f"__rt_{ret.value}"
                namespace[ret_name] = ret
                w.push(w.temp(f"_coerce({call}, {ret_name})"))
        else:  # pragma: no cover - verified code contains only known ops
            raise VerifyError(f"jit cannot translate {op}")
    return False
