"""JaguarVM JIT: verified bytecode -> host (Python) closures.

The paper's JVM "also compiles parts of the byte codes to machine code
before execution", and its performance conclusions assume a JIT ("given
current trends in JIT compiler technology...").  JaguarVM's equivalent
translates verified bytecode into Python source, compiles it with the
host compiler, and caches the resulting closure.

A function with a certified local fuel bound compiles to two bodies
from the one emitter, :func:`lower`: the *checked body*, and the
*certified clone*, which runs when the prologue prepaid the bound (and,
if it has no-wrap adds, the certified value bound is below 2^63).  Each
keeps every safety property the interpreter enforces:

* **array bounds** — in the checked body each ALOAD/ASTORE/SINDEX emits
  an inline range check (this is the "price paid for security" the
  paper measures in Figure 7, which Java's JIT paid too); the clone
  omits it where the certifier proved the index is a counted loop's
  counter below ``len`` of that very array (``in_bounds_pcs``);
* **fuel** — in the checked body each basic block charges its
  instruction count and checks the quota, the instrument-at-back-edges
  strategy of the J-Kernel project (Section 6.2), so runaway loops still
  die promptly; the clone has no meter, its worst case being prepaid;
* **memory quotas** — every allocating opcode routes through the
  resource account;
* **64-bit wrapping arithmetic** — inline mask-and-shift, bit-identical
  to the interpreter.  Both bodies add plainly at the counted-loop
  increments the bounds certifier proved cannot wrap
  (``wrap_free_pcs``); the clone also at the accumulator updates
  ``nowrap_pcs``, which the entry guard on ``value_bound`` keeps in
  range;
* **security manager** — native permissions are checked once at compile
  time (the permission set of a loaded UDF is immutable); a callback is
  checked at its first crossing in each context, as in the interpreter,
  and then called directly (:class:`~repro.vm.interpreter.CallbackTable`).

Because the input is *verified* bytecode, translation is straightforward:
every instruction has a known stack depth and operand types, so the
symbolic-stack translator below can map stack slots to Python expressions
without any runtime type dispatch.

Control flow is structured: the verifier only admits reducible CFGs, and
:func:`repro.vm.structure.plan` lays each one out along its dominator
tree, so a loop compiles to a ``while True:`` whose back edge is
``continue`` and whose exit is ``break`` (in the clone, a counted loop
to a ``for``), and a branch to an ``if``.  Blocks run their
instructions in place, with no program counter to dispatch on.
:func:`lower` is that one emitter; the tier-1 kernels of
:mod:`repro.vm.kernels` are the certified clone with a different RET.
"""

from __future__ import annotations

import re
from array import array as _host_array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import VerifyError
from .classfile import ClassFile, FunctionDef, K_CALLBACK, K_FUNC, K_NATIVE, K_STR
from .interpreter import ExecutionContext
from .opcodes import OPS, TEMPLATE_GLOBALS, Op, python_expr
from .stdlib import NATIVE_SIGNATURES
from . import structure
from .values import VMType, coerce_argument, default_value

_WRAP_K = 0x8000000000000000

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|-?\d+")


def _jit_atom_expr(atom: str) -> str:
    """Render a certificate atom against the jitted parameter names."""
    if atom.startswith("len"):
        return f"len(L{atom[3:]})"
    if atom.startswith("pos"):
        i = atom[3:]
        return f"(L{i} if L{i} > 0 else 0)"
    raise ValueError(f"unknown certificate atom {atom!r}")


_RUNTIME = dict(
    TEMPLATE_GLOBALS, array=_host_array, _coerce=coerce_argument,
)

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
    code = compile(source, source_name("jit", cls, func), "exec")
    exec(code, namespace)
    return namespace["__jag"]


def source_name(kind: str, cls: ClassFile, func: FunctionDef) -> str:
    """The generated code's filename (``compile`` refuses a NUL in it, and
    a hostile classfile may put one in a name)."""
    return f"<{kind} {cls.name}.{func.name}>".replace("\0", "\\0")


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
    namespace = _namespace(cls, func, ctx, compiler)
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
    # prologue), pay the whole worst case once and run the certified
    # clone, which has no meter.  Its accumulator updates skip the wrap,
    # so it runs only while the value bound guard holds; otherwise the
    # prepaid checked body runs.  Falls back to dynamic metering when
    # the bound does not fit the remaining quota or the account was
    # revoked before entry.
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
        pad = " " * 12
        if cert.nowrap_pcs:
            guard = cert.value_bound.as_python(_jit_atom_expr)
            out.append(f"{pad}if {guard} < {_WRAP_K:#x}:")
            pad += "    "
        clone = lower(cls, func, ctx, namespace,
                      nowrap=frozenset(cert.nowrap_pcs))
        out.extend(pad + line for line in clone)
    else:
        out.append("    __meter = True")
    out.extend("    " + line for line in lower(cls, func, ctx, namespace))
    return "\n".join(out) + "\n", namespace


def _namespace(cls: ClassFile, func: FunctionDef, ctx: ExecutionContext,
               compiler: JitCompiler) -> dict:
    """Runtime helpers plus the function's natives, bound once (their
    permission checked here: a loaded UDF's permissions are immutable)."""
    namespace: dict = dict(_RUNTIME)
    namespace["__compiler"] = compiler
    for ins in func.code:
        if ins.op is Op.NATIVE:
            (name,) = cls.constant(ins.arg, K_NATIVE)
            ctx.security.check_native(name)
            namespace[f"__n_{name}"] = ctx.natives[name]
    return namespace


def lower(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    namespace: dict,
    ret: Optional[Callable[[str], List[str]]] = None,
    nowrap: Optional[frozenset] = None,
) -> List[str]:
    """The function body as structured Python, relative to indent 0.

    The one emitter for both back ends.  The JIT (``ret`` None) returns
    at RET.  A tier-1 kernel passes ``ret``, the lines that hand one
    row's result back; its RET then ends the row (the ``continue`` of
    its row loop).

    With ``nowrap`` None this is the JIT's *checked body*: it charges
    each block's instruction count at block entry while ``__meter`` is
    set, every access checks its index, and only an IADD the bounds
    certifier proved cannot wrap (a counted loop's increment,
    ``ResourceCertificate.wrap_free_pcs``) is a plain ``+``.  A set
    emits the *certified clone*, for a caller that prepaid the certified
    bound: nothing is metered, the adds at ``nowrap`` (accumulator
    updates a value bound vouches for) are plain too, accesses at
    ``in_bounds_pcs`` skip the range check, and counted loops of step ±1
    are ``for`` loops.  Every other int64 result keeps the wrap.
    """
    cert = getattr(func, "certificate", None)
    wrap_free = frozenset(getattr(cert, "wrap_free_pcs", ()))
    counted, in_bounds = None, frozenset()
    if nowrap is not None:   # the certified clone
        counted = {
            loop.header_pc: (loop.counter, loop.stop_slot, loop.step)
            for loop in cert.loops if loop.counter is not None
        }
        wrap_free |= nowrap
        in_bounds = frozenset(cert.in_bounds_pcs)
    plan = structure.plan(
        func, f"{cls.name}.{func.name}", kernel=ret is not None,
        counted=counted,
    )
    metered = ret is None and nowrap is None
    out: List[str] = ["__x = 0"] if plan.uses_exit_var else []
    conds = {}
    for indent, item in plan.lines:
        pad = "    " * indent
        if isinstance(item, str):
            out.append(pad + item)
        elif isinstance(item, tuple):
            __, block, truthy = item
            negation = "" if truthy else "not "
            out.append(f"{pad}if {negation}{conds[block]}:")
        else:
            start, end = plan.starts[item]
            if metered:
                out.append(pad + "if __meter:")
                out.append(f"{pad}    __acct.fuel -= {end - start}")
                out.append(pad + "    if __acct.fuel < 0: __acct.out_of_fuel()")
            writer = _BlockWriter(func.stack_in[start])
            conds[item] = _emit_block(
                cls, ctx, writer, func.code, start, end, namespace,
                wrap_free, in_bounds, ret,
            )
            if not metered and not writer.lines and conds[item] is None:
                writer.lines = ["pass"]   # a lone JMP, under an if
            out.extend(pad + line for line in writer.lines)
    return out


def _emit_block(
    cls: ClassFile,
    ctx: ExecutionContext,
    w: _BlockWriter,
    code,
    start: int,
    end: int,
    namespace: dict,
    wrap_free: frozenset,
    in_bounds: frozenset,
    on_return: Optional[Callable[[str], List[str]]],
) -> Optional[str]:
    """Emit instructions [start, end) up to, not including, the jump.

    The stack is left in the successors' entry names; a JZ/JNZ block
    returns the condition its structured ``if`` tests, any other None.
    """
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

        elif OPS[op].py is not None:
            info = OPS[op]
            # Operands the template reads twice (an index guard) or
            # conditionally (and/or) are materialized first, top first.
            once = info.trap == "index" or " and " in info.py \
                or " or " in info.py
            args = [w.atom(w.pop()) if once else w.pop()
                    for __ in info.pops][::-1]
            expr = python_expr(op, args, wrap=pc not in wrap_free)
            if info.trap == "index" and pc not in in_bounds:
                seq, index = args[0], args[1]
                expr = (f"({expr} if 0 <= {index} < len({seq}) "
                        f"else _oob({index}, len({seq})))")
            if info.pushes[0] in (VMType.ARR, VMType.FARR):
                # A new array has identity: create it in program order.
                w.flush_below(0)
                expr = w.temp(expr)
            w.push(expr)
        elif op is Op.ASTORE or op is Op.FASTORE:
            v = w.pop(); i = w.pop(); a = w.pop()
            w.flush_below(0)
            i = w.atom(i)
            a = w.atom(a)
            if pc not in in_bounds:
                w.emit(f"if not 0 <= {i} < len({a}): _oob({i}, len({a}))")
            if op is Op.ASTORE:
                v = f"({v}) & 255"
            w.emit(f"{a}[{i}] = {v}")

        elif op is Op.JMP:
            break
        elif op is Op.JZ or op is Op.JNZ:
            cond = w.pop()
            # Entries under the condition were computed before it, and
            # the spill below must not overwrite a name it reads.
            w.flush_below(0)
            if w.stack and (not _ATOM_RE.fullmatch(cond)
                            or cond.startswith("s")):
                cond = w.temp(cond)
            w.spill_to_entry_names()
            return cond
        elif op is Op.RET or op is Op.RETV:
            value = w.pop() if op is Op.RET else "None"
            if on_return is None:
                w.emit(f"return {value}")
            else:
                w.lines.extend(on_return(value))
            return None

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
            # Arguments first, as the interpreter pops them, then the
            # table lookup (the check at a context's first crossing).
            arg_list = ", ".join(w.atom(a) for a in args)
            call = f"__ctx.callbacks[{name!r}]({arg_list})"
            if ret is VMType.VOID:
                w.emit(call)
            else:
                ret_name = f"__rt_{ret.value}"
                namespace[ret_name] = ret
                w.push(w.temp(f"_coerce({call}, {ret_name})"))
        else:  # pragma: no cover - verified code contains only known ops
            raise VerifyError(f"jit cannot translate {op}")
    w.spill_to_entry_names()
    return None
