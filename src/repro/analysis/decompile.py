"""Froid-style decompilation: verified bytecode to relational expressions.

The paper's central cost (Fig. 5) is per-invocation overhead — VM entry,
metering, guard checks — paid on every row.  Froid's insight (see
PAPERS.md) is that the simple UDFs dominating real workloads can be
*statically translated* into relational expressions, letting the
optimizer see through the call: no VM entry, no metering, no shm round
trip, and the lifted expression participates in constant folding,
predicate pushdown, and rank ordering like any other SQL.

This pass runs at CREATE FUNCTION time, after verification and the
effect/bounds analyses, over exactly the class of UDFs those analyses
prove safe to lift:

* **pure** — no callbacks, no unresolvable calls (the effect summary);
* **loop-free or fully unrollable** — loops with constant trip counts
  unroll during symbolic execution; any loop still branching on a
  symbolic condition refuses with ``loop``;
* **free of natives** — trusted stdlib calls stay opaque host code.

The decompiler is a symbolic evaluator over the typed stack machine:
the operand stack and locals hold :mod:`repro.sql.ast_nodes` expression
trees instead of values, parameters start as :class:`ParamRef` leaves,
and control flow either folds (constant conditions — this is what
unrolls counted loops) or forks into a ``CASE WHEN`` over both arms.
Constant operands fold with *VM-exact* semantics (64-bit wraparound,
truncating division, masked shifts) so an unrolled loop computes the
same bits the interpreter would; trapping foldings (division by zero,
F2I overflow) are left unfolded so they still raise at run time.

Every function gets either an :class:`InlineTemplate` (the lifted body
over positional parameters) or an :class:`InlineRefusal` with a reason
code from the fixed taxonomy::

    loop            symbolic loop condition, unbounded loop, recursion
    callback        crosses the sandbox/server boundary
    impure          unresolvable effects (or opaque native host code)
    unsupported-op  an opcode with no SQL equivalent (arrays, bitwise
                    ops on symbolic operands, string indexing, ...)
    too-large       step or expression-size budget exceeded

The optimizer substitutes call-site arguments into templates behind
``Database(inlining=True)``; EXPLAIN surfaces ``inlined`` vs
``opaque(<reason>)`` per call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ArithmeticFault
from ..sql import ast_nodes as A
from ..vm.classfile import ClassFile, FunctionDef, K_CALLBACK, K_FUNC, K_STR
from ..vm.opcodes import Instr, Op
from ..vm.values import VMType, default_value, f2i, idiv, imod, wrap_int
from .cfg import build_cfg

#: Refusal reason codes (the full taxonomy; CLI and EXPLAIN print these).
REASON_LOOP = "loop"
REASON_CALLBACK = "callback"
REASON_IMPURE = "impure"
REASON_UNSUPPORTED = "unsupported-op"
REASON_TOO_LARGE = "too-large"

#: Symbolic steps across the whole function (shared by unrolled
#: iterations and inlined intra-class callees): the unroll budget.
MAX_STEPS = 4096

#: Node count of the final lifted expression; DUP-heavy code can build
#: expressions exponentially larger than the bytecode.
MAX_NODES = 256

#: Intra-class call inlining depth.
MAX_CALL_DEPTH = 8


@dataclass(frozen=True)
class InlineTemplate:
    """A UDF body lifted to a SQL expression over positional parameters.

    ``expr`` is an :class:`~repro.sql.ast_nodes.Expr` whose leaves
    include :class:`~repro.sql.ast_nodes.ParamRef`; ``param_kinds`` and
    ``ret_kind`` are VM type names (``int``/``float``/``bool``/``str``/
    ``arr``/``farr``) the optimizer uses for argument coercion.
    """

    name: str
    param_kinds: Tuple[str, ...]
    ret_kind: str
    expr: A.Expr
    nodes: int


@dataclass(frozen=True)
class InlineRefusal:
    """Why a function could not be lifted."""

    name: str
    reason: str
    detail: str = ""

    def describe(self) -> str:
        text = f"refused ({self.reason})"
        if self.detail:
            text += f": {self.detail}"
        return text


InlineResult = Union[InlineTemplate, InlineRefusal]


class _Refuse(Exception):
    """Internal control flow: abort symbolic execution with a reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


class _Budget:
    """Step budget shared across forks, unrolls, and inlined callees."""

    __slots__ = ("steps",)

    def __init__(self, steps: int = MAX_STEPS):
        self.steps = steps

    def spend(self) -> None:
        self.steps -= 1
        if self.steps < 0:
            raise _Refuse(REASON_TOO_LARGE, "symbolic step budget exceeded")


def decompile_class(cls: ClassFile) -> Dict[str, InlineResult]:
    """Decompile every function; attaches ``func.inline`` and returns
    the name -> result map."""
    results: Dict[str, InlineResult] = {}
    for name, func in cls.functions.items():
        result = decompile_function(cls, func)
        func.inline = result
        results[name] = result
    return results


def decompile_function(cls: ClassFile, func: FunctionDef) -> InlineResult:
    """Lift one function into an :class:`InlineTemplate`, or refuse."""
    try:
        _precheck(func)
        expr = _run_function(cls, func,
                             [A.ParamRef(i)
                              for i in range(len(func.param_types))],
                             _Budget(), call_chain=(func.name,))
        if expr is None:  # void entry: nothing to lift
            raise _Refuse(REASON_UNSUPPORTED, "void return type")
        nodes = _tree_size(expr)
        if nodes > MAX_NODES:
            raise _Refuse(
                REASON_TOO_LARGE,
                f"lifted expression has {nodes} nodes (limit {MAX_NODES})",
            )
        return InlineTemplate(
            name=func.name,
            param_kinds=tuple(t.value for t in func.param_types),
            ret_kind=func.ret_type.value,
            expr=expr,
            nodes=nodes,
        )
    except _Refuse as refuse:
        return InlineRefusal(func.name, refuse.reason, refuse.detail)


def _precheck(func: FunctionDef) -> None:
    """Gate on the effect summary before touching any bytecode."""
    summary = getattr(func, "summary", None)
    if summary is None:
        raise _Refuse(REASON_IMPURE, "no effect summary (class not analyzed)")
    if summary.callbacks:
        names = ", ".join(sorted(summary.callbacks))
        raise _Refuse(REASON_CALLBACK, f"calls callback(s) {names}")
    if summary.unknown_effects:
        raise _Refuse(REASON_IMPURE, "calls a function with unknown effects")
    if summary.natives:
        names = ", ".join(sorted(summary.natives))
        raise _Refuse(REASON_UNSUPPORTED, f"calls native(s) {names}")
    if summary.recursive:
        raise _Refuse(REASON_LOOP, "recursive")
    if summary.has_unbounded_loop:
        raise _Refuse(REASON_LOOP, "contains an unbounded loop")
    if func.ret_type in (VMType.ARR, VMType.FARR):
        raise _Refuse(
            REASON_UNSUPPORTED,
            f"returns {func.ret_type.value} (arrays stay opaque)",
        )


def _run_function(
    cls: ClassFile,
    func: FunctionDef,
    args: List[A.Expr],
    budget: _Budget,
    call_chain: Tuple[str, ...],
) -> Optional[A.Expr]:
    """Symbolically execute ``func`` with expression-valued arguments.

    Returns the function's return-value expression (None for VOID).
    """
    locals_: List[A.Expr] = list(args)
    for slot_type in func.local_types[len(args):]:
        locals_.append(A.Literal(default_value(slot_type)
                                 if slot_type not in (VMType.ARR, VMType.FARR)
                                 else None))
    cfg = build_cfg(func.code)
    return _exec(cls, func, cfg, 0, [], locals_, budget, call_chain)


def _exec(
    cls: ClassFile,
    func: FunctionDef,
    cfg,
    pc: int,
    stack: List[A.Expr],
    locals_: List[A.Expr],
    budget: _Budget,
    call_chain: Tuple[str, ...],
) -> Optional[A.Expr]:
    """One symbolic execution path from ``pc`` to a return.

    Branches on constant conditions follow the taken edge (this is what
    unrolls counted loops); branches on symbolic conditions fork both
    arms and merge them as a CASE — unless the branch sits inside a
    loop, where forking would never converge, so it refuses ``loop``.
    """
    code = func.code
    while True:
        budget.spend()
        ins: Instr = code[pc]
        op = ins.op

        # -- constants ----------------------------------------------------
        if op is Op.ICONST or op is Op.FCONST:
            stack.append(A.Literal(ins.arg))
        elif op is Op.BCONST:
            stack.append(A.Literal(ins.arg == 1))
        elif op is Op.SCONST:
            (text,) = cls.constant(ins.arg, K_STR)
            stack.append(A.Literal(text))

        # -- locals / stack ----------------------------------------------
        elif op is Op.LOAD:
            stack.append(locals_[ins.arg])
        elif op is Op.STORE:
            locals_[ins.arg] = stack.pop()
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]

        # -- arithmetic / comparisons / logic ------------------------------
        elif op in _BINOPS:
            b = stack.pop()
            a = stack.pop()
            stack.append(_binop(op, a, b))
        elif op in _UNOPS:
            stack.append(_unop(op, stack.pop()))

        # -- control flow --------------------------------------------------
        elif op is Op.JMP:
            pc = ins.arg
            continue
        elif op is Op.JZ or op is Op.JNZ:
            cond = stack.pop()
            if isinstance(cond, A.Literal):
                taken = (not cond.value) if op is Op.JZ else bool(cond.value)
                pc = ins.arg if taken else pc + 1
                continue
            if cfg.depth_at(pc) > 0:
                raise _Refuse(
                    REASON_LOOP,
                    f"loop condition at pc {pc} depends on arguments",
                )
            # Fork: the arm reached when ``cond`` is true becomes the
            # WHEN branch, the other arm the ELSE.
            if op is Op.JZ:
                true_pc, false_pc = pc + 1, ins.arg
            else:
                true_pc, false_pc = ins.arg, pc + 1
            true_val = _exec(cls, func, cfg, true_pc, list(stack),
                             list(locals_), budget, call_chain)
            false_val = _exec(cls, func, cfg, false_pc, list(stack),
                              list(locals_), budget, call_chain)
            if true_val is None or false_val is None:  # void paths
                return None
            return A.Case(whens=((cond, true_val),), default=false_val)
        elif op is Op.RET:
            return stack.pop()
        elif op is Op.RETV:
            return None

        # -- calls ---------------------------------------------------------
        elif op is Op.CALL:
            class_name, func_name = cls.constant(ins.arg, K_FUNC)
            if class_name != cls.name:
                raise _Refuse(
                    REASON_UNSUPPORTED,
                    f"cross-class call {class_name}.{func_name}",
                )
            if func_name in call_chain:
                raise _Refuse(REASON_LOOP, f"recursive call to {func_name}")
            if len(call_chain) >= MAX_CALL_DEPTH:
                raise _Refuse(REASON_TOO_LARGE, "call inlining too deep")
            callee = cls.functions[func_name]
            nargs = len(callee.param_types)
            call_args = stack[len(stack) - nargs:] if nargs else []
            del stack[len(stack) - nargs:]
            result = _run_function(cls, callee, list(call_args), budget,
                                   call_chain + (func_name,))
            if callee.ret_type is not VMType.VOID:
                if result is None:
                    raise _Refuse(
                        REASON_UNSUPPORTED,
                        f"callee {func_name} has divergent void paths",
                    )
                stack.append(result)
        elif op is Op.CALLBACK:
            (name,) = cls.constant(ins.arg, K_CALLBACK)
            raise _Refuse(REASON_CALLBACK, f"callback {name!r}")
        elif op is Op.NATIVE:
            raise _Refuse(REASON_UNSUPPORTED, "native call")

        else:
            raise _Refuse(REASON_UNSUPPORTED, op.name)

        pc += 1


# ---------------------------------------------------------------------------
# Opcode -> expression lowering (with VM-exact constant folding)
# ---------------------------------------------------------------------------

#: Binary opcodes lowered directly to SQL operators.  IDIV/IMOD are
#: absent: SQL ``/`` floors where the VM truncates, so they lower to the
#: VM-faithful ``idiv``/``imod`` builtins instead.
_SQL_BINOPS = {
    Op.IADD: "+", Op.ISUB: "-", Op.IMUL: "*",
    Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*", Op.FDIV: "/",
    Op.ICMPLT: "<", Op.ICMPLE: "<=", Op.ICMPGT: ">", Op.ICMPGE: ">=",
    Op.ICMPEQ: "=", Op.ICMPNE: "!=",
    Op.FCMPLT: "<", Op.FCMPLE: "<=", Op.FCMPGT: ">", Op.FCMPGE: ">=",
    Op.FCMPEQ: "=", Op.FCMPNE: "!=",
    Op.BAND: "and", Op.BOR: "or",
    Op.SCONCAT: "+", Op.SEQ: "=",
}

#: Fold-only binary opcodes: no SQL lowering exists, but constant
#: operands (loop counters, literal masks) still fold VM-exactly, so
#: counted loops over bitwise arithmetic unroll rather than refuse.
_FOLD_ONLY_BINOPS = {Op.IAND, Op.IOR, Op.IXOR, Op.ISHL, Op.ISHR}

_BINOPS = (set(_SQL_BINOPS) | _FOLD_ONLY_BINOPS
           | {Op.IDIV, Op.IMOD})

_UNOPS = {Op.INEG, Op.FNEG, Op.NOT, Op.I2F, Op.F2I, Op.SLEN}

#: VM-exact evaluation of each foldable binary opcode over Python values.
_FOLD_BIN = {
    Op.IADD: lambda a, b: wrap_int(a + b),
    Op.ISUB: lambda a, b: wrap_int(a - b),
    Op.IMUL: lambda a, b: wrap_int(a * b),
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: a / b,  # b == 0.0 is diverted before folding
    Op.IAND: lambda a, b: wrap_int(a & b),
    Op.IOR: lambda a, b: wrap_int(a | b),
    Op.IXOR: lambda a, b: wrap_int(a ^ b),
    Op.ISHL: lambda a, b: wrap_int(a << (b & 63)),
    Op.ISHR: lambda a, b: wrap_int(a >> (b & 63)),
    Op.ICMPLT: lambda a, b: a < b, Op.ICMPLE: lambda a, b: a <= b,
    Op.ICMPGT: lambda a, b: a > b, Op.ICMPGE: lambda a, b: a >= b,
    Op.ICMPEQ: lambda a, b: a == b, Op.ICMPNE: lambda a, b: a != b,
    Op.FCMPLT: lambda a, b: a < b, Op.FCMPLE: lambda a, b: a <= b,
    Op.FCMPGT: lambda a, b: a > b, Op.FCMPGE: lambda a, b: a >= b,
    Op.FCMPEQ: lambda a, b: a == b, Op.FCMPNE: lambda a, b: a != b,
    Op.BAND: lambda a, b: a and b, Op.BOR: lambda a, b: a or b,
    Op.SCONCAT: lambda a, b: a + b, Op.SEQ: lambda a, b: a == b,
}


def _binop(op: Op, a: A.Expr, b: A.Expr) -> A.Expr:
    folded = isinstance(a, A.Literal) and isinstance(b, A.Literal)
    if op is Op.IDIV or op is Op.IMOD:
        if folded and b.value != 0:
            fold = idiv if op is Op.IDIV else imod
            return A.Literal(fold(a.value, b.value))
        # Division by a (possibly) zero value: emit the runtime-trapping
        # builtin rather than folding — plan time must never trap.
        name = "idiv" if op is Op.IDIV else "imod"
        return A.FuncCall(name, (a, b))
    if op is Op.FDIV and folded and b.value == 0.0:
        # Constant float division by zero traps in the VM; keep the SQL
        # division node so it raises at execution, not at CREATE time.
        return A.BinaryOp("/", a, b)
    if folded:
        return A.Literal(_FOLD_BIN[op](a.value, b.value))
    if op in _FOLD_ONLY_BINOPS:
        raise _Refuse(
            REASON_UNSUPPORTED,
            f"{op.name} with non-constant operands",
        )
    return A.BinaryOp(_SQL_BINOPS[op], a, b)


def _unop(op: Op, operand: A.Expr) -> A.Expr:
    if isinstance(operand, A.Literal):
        value = operand.value
        if op is Op.INEG:
            return A.Literal(wrap_int(-value))
        if op is Op.FNEG:
            return A.Literal(-value)
        if op is Op.NOT:
            return A.Literal(not value)
        if op is Op.I2F:
            return A.Literal(float(value))
        if op is Op.SLEN:
            return A.Literal(len(value))
        if op is Op.F2I:
            try:
                return A.Literal(f2i(value))
            except ArithmeticFault:
                return A.FuncCall("trunc", (operand,))  # traps at run time
    if op is Op.INEG or op is Op.FNEG:
        return A.UnaryOp("-", operand)
    if op is Op.NOT:
        return A.UnaryOp("not", operand)
    if op is Op.I2F:
        return A.FuncCall("float", (operand,))
    if op is Op.F2I:
        return A.FuncCall("trunc", (operand,))
    if op is Op.SLEN:
        return A.FuncCall("length", (operand,))
    raise _Refuse(REASON_UNSUPPORTED, op.name)


def _tree_size(expr: A.Expr) -> int:
    """Expression size counted *as a tree* (shared subtrees recount).

    The expression compiler recurses structurally, so shared sub-DAGs
    (from DUP) cost compile time per occurrence; counting with a
    per-node memo keeps this cheap even when the tree count is huge.
    """
    sizes: Dict[int, int] = {}

    def size(node: A.Expr) -> int:
        cached = sizes.get(id(node))
        if cached is not None:
            return cached
        total = 1
        if isinstance(node, A.BinaryOp):
            total += size(node.left) + size(node.right)
        elif isinstance(node, A.UnaryOp):
            total += size(node.operand)
        elif isinstance(node, A.FuncCall):
            total += sum(size(arg) for arg in node.args)
        elif isinstance(node, A.Case):
            total += sum(size(c) + size(v) for c, v in node.whens)
            if node.default is not None:
                total += size(node.default)
        elif isinstance(node, A.IsNull):
            total += size(node.operand)
        elif isinstance(node, A.Inlined):
            total += size(node.body)
        sizes[id(node)] = min(total, MAX_NODES + 1)
        return sizes[id(node)]

    return size(expr)
