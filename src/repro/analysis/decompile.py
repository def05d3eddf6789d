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
from ..vm.opcodes import (
    OPS,
    TEMPLATE_GLOBALS,
    Instr,
    Op,
    python_expr,
    step_stack,
)
from ..vm.resources import unmetered_account
from ..vm.values import VMType, default_value

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
    return _exec(cls, func, func.cfg, 0, [], locals_, budget, call_chain)


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
        elif step_stack(ins, locals_, stack):
            pass
        elif op in _LOWERED:
            info = OPS[op]
            args = stack[len(stack) - len(info.pops):]
            del stack[len(stack) - len(info.pops):]
            stack.append(_lower(op, args))

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

_SCALARS = frozenset({VMType.INT, VMType.FLOAT, VMType.BOOL})

#: Opcodes the decompiler lowers: those with a SQL form, plus the
#: numeric ones without (the bitwise operators), whose constant operands
#: still fold, so counted loops over masks unroll rather than refuse.
_LOWERED = frozenset(
    op for op, info in OPS.items()
    if info.py is not None and (
        info.sql is not None
        or _SCALARS.issuperset(info.pops + info.pushes)
    )
)


def _fold_function(op: Op):
    """``op``'s ``py`` template, wrap included, as a function of the
    account and the operand values: the VM-exact fold."""
    names = [f"v{i}" for i in range(len(OPS[op].pops))]
    return eval(f"lambda __acct, {', '.join(names)}: "
                f"{python_expr(op, names)}", dict(TEMPLATE_GLOBALS))


_FOLD = {op: _fold_function(op) for op in _LOWERED}


def _lower(op: Op, args: List[A.Expr]) -> A.Expr:
    if all(isinstance(arg, A.Literal) for arg in args):
        try:
            return A.Literal(_FOLD[op](unmetered_account(),
                                       *(arg.value for arg in args)))
        except ArithmeticFault:
            pass   # a trapping fold stays in the plan and raises there
    info = OPS[op]
    if info.sql is None:
        raise _Refuse(REASON_UNSUPPORTED,
                      f"{op.name} with non-constant operands")
    if info.sql.endswith("()"):
        expr = A.FuncCall(info.sql[:-2], tuple(args))
    elif len(args) == 2:
        expr = A.BinaryOp(info.sql, *args)
    else:
        expr = A.UnaryOp(info.sql, args[0])
    if info.wraps:
        expr = A.FuncCall("wrap64", (expr,))
    return expr


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
