"""JaguarVM bytecode verifier.

This is the load-time half of the sandbox, the analog of the JVM's
bytecode verifier the paper leans on (Section 6.1): once a classfile
passes verification, the interpreter and JIT may execute it without
per-instruction type checks, because the verifier has *proved*:

* every instruction's operands have the right types (dataflow over a
  typed abstract stack);
* the stack never underflows and its depth at every point is a single
  well-defined value (``max_stack`` is computed as a side effect);
* every branch lands on a real instruction, and no path falls off the
  end of the code;
* every local variable is written before it is read;
* control flow is reducible: every loop is entered through its header,
  so the function has the structured form (:mod:`repro.vm.structure`)
  the JIT and the tier-1 kernels emit;
* every constant-pool reference is in range and of the right kind, and
  every CALL / NATIVE / CALLBACK resolves to a known signature (eager
  linking: unresolved references are rejected here, not at run time).

The verifier is deliberately stricter than the JVM's in two ways that
cost expressiveness nothing for compiled code: stacks at control-flow
joins must match *exactly* (there is no subtyping to merge), and
unreachable code is rejected outright (the compiler never emits any, and
rejecting it means the JIT only ever sees instructions with a proven
entry stack depth).

Only *runtime-dependent* safety remains for execution time: array bounds,
division by zero, call depth, and resource quotas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import LinkError, VerifyError
from .classfile import (
    ClassFile,
    FunctionDef,
    K_CALLBACK,
    K_FUNC,
    K_NATIVE,
    K_STR,
)
from .opcodes import BRANCH_OPS, OPS, Instr, Op, TERMINATOR_OPS, step_stack
from .values import VMType

#: Hard cap on operand-stack depth; deeper code is rejected.
MAX_STACK_LIMIT = 1024

Signature = Tuple[Tuple[VMType, ...], VMType]


class Resolver:
    """Signature oracle used for eager linking during verification.

    ``function_signature`` covers CALL targets (searched through the class
    loader's namespace), ``native_signature`` the trusted stdlib, and
    ``callback_signature`` the server callbacks the security policy admits.
    Each raises :class:`~repro.errors.LinkError` for unknown names.
    """

    def __init__(
        self,
        function_signature: Callable[[str, str], Signature],
        native_signature: Callable[[str], Signature],
        callback_signature: Callable[[str], Signature],
    ):
        self.function_signature = function_signature
        self.native_signature = native_signature
        self.callback_signature = callback_signature

    def call_signature(self, cls: ClassFile, ins: Instr) -> Optional[Signature]:
        """The signature the CALL, NATIVE or CALLBACK ``ins`` of ``cls``
        links to, or None when it does not resolve."""
        try:
            if ins.op is Op.CALL:
                class_name, func_name = cls.constant(ins.arg, K_FUNC)
                return self.function_signature(class_name, func_name)
            if ins.op is Op.NATIVE:
                (name,) = cls.constant(ins.arg, K_NATIVE)
                return self.native_signature(name)
            (name,) = cls.constant(ins.arg, K_CALLBACK)
            return self.callback_signature(name)
        except LinkError:
            return None


def self_resolver(
    cls: ClassFile,
    natives: Optional[Dict[str, Signature]] = None,
    callbacks: Optional[Dict[str, Signature]] = None,
) -> Resolver:
    """A resolver that links CALLs against the class itself.

    Convenient for single-class UDFs and tests; multi-class linking goes
    through :class:`~repro.vm.classloader.ClassLoader`, which builds its
    own resolver.
    """
    natives = natives if natives is not None else _default_natives()
    callbacks = callbacks or {}

    def function_signature(class_name: str, func_name: str) -> Signature:
        if class_name != cls.name:
            raise LinkError(
                f"class {cls.name!r} cannot resolve foreign class "
                f"{class_name!r} without a class loader"
            )
        func = cls.functions.get(func_name)
        if func is None:
            raise LinkError(f"unknown function {class_name}.{func_name}")
        return func.signature

    def native_signature(name: str) -> Signature:
        try:
            return natives[name]
        except KeyError:
            raise LinkError(f"unknown native {name!r}") from None

    def callback_signature(name: str) -> Signature:
        try:
            return callbacks[name]
        except KeyError:
            raise LinkError(f"unknown callback {name!r}") from None

    return Resolver(function_signature, native_signature, callback_signature)


def _default_natives() -> Dict[str, Signature]:
    from .stdlib import NATIVE_SIGNATURES

    return NATIVE_SIGNATURES


@dataclass(frozen=True)
class _State:
    """Abstract machine state at one instruction boundary."""

    stack: Tuple[VMType, ...]
    init: int  # bitmask: which locals have been written


def verify_class(cls: ClassFile, resolver: Optional[Resolver] = None) -> None:
    """Verify every function of ``cls``; mark it verified on success.

    Raises :class:`VerifyError` (or :class:`LinkError` from the resolver)
    on the first problem found.  ``max_stack`` of each function is filled
    in as a side effect.
    """
    if resolver is None:
        resolver = self_resolver(cls)
    for func in cls.functions.values():
        _verify_function(cls, func, resolver)
    cls.verified = True


def _verify_function(cls: ClassFile, func: FunctionDef, resolver: Resolver) -> None:
    code = func.code
    where = f"{cls.name}.{func.name}"
    if not code:
        raise VerifyError(f"{where}: empty code")
    if len(func.param_types) > len(func.local_types):
        raise VerifyError(f"{where}: parameters exceed local slots")

    locals_ = list(func.local_types)
    entry_init = (1 << len(func.param_types)) - 1
    states: List[Optional[_State]] = [None] * len(code)
    states[0] = _State(stack=(), init=entry_init)
    worklist = [0]
    max_stack = 0

    while worklist:
        pc = worklist.pop()
        state = states[pc]
        assert state is not None
        ins = code[pc]
        stack, init = _step(cls, func, locals_, resolver, pc, ins, state,
                            where)
        max_stack = max(max_stack, len(state.stack), len(stack))
        if max_stack > MAX_STACK_LIMIT:
            raise VerifyError(f"{where}: operand stack exceeds {MAX_STACK_LIMIT}")

        successors: List[int] = []
        if ins.op in BRANCH_OPS:
            target = ins.arg
            if not (0 <= target < len(code)):
                raise VerifyError(f"{where}@{pc}: branch target {target} out of range")
            successors.append(target)
        if ins.op not in TERMINATOR_OPS:
            if pc + 1 >= len(code):
                raise VerifyError(f"{where}@{pc}: execution falls off end of code")
            successors.append(pc + 1)

        new_state = _State(stack=stack, init=init)
        for succ in successors:
            old = states[succ]
            if old is None:
                states[succ] = new_state
                worklist.append(succ)
            else:
                merged = _merge(old, new_state, where, succ)
                if merged != old:
                    states[succ] = merged
                    worklist.append(succ)

    unreachable = [pc for pc, s in enumerate(states) if s is None]
    if unreachable:
        raise VerifyError(f"{where}: unreachable code at {unreachable[:5]}")
    # Every loop is entered through its header (the CFG is reducible)
    # and the structured form fits the host compiler, so the JIT and the
    # kernels can emit the function as loops and ifs.
    from .structure import plan

    plan(func, where, kernel=True)

    func.max_stack = max_stack
    # Export the proven per-instruction entry depths for the load-time
    # analyzer (repro.analysis): facts, not guesses — every pc has one.
    func.stack_in = tuple(len(s.stack) for s in states if s is not None)


def _merge(old: _State, new: _State, where: str, pc: int) -> _State:
    if old.stack != new.stack:
        raise VerifyError(
            f"{where}@{pc}: inconsistent stack at join "
            f"({list(old.stack)} vs {list(new.stack)})"
        )
    return _State(stack=old.stack, init=old.init & new.init)


def _step(
    cls: ClassFile,
    func: FunctionDef,
    locals_: List[VMType],
    resolver: Resolver,
    pc: int,
    ins: Instr,
    state: _State,
    where: str,
) -> Tuple[Tuple[VMType, ...], int]:
    """Abstractly execute one instruction; return the post state.

    ``locals_`` is the function's local types; a STORE writes back the
    type it checked, so it stays equal to ``func.local_types``.
    """
    stack = list(state.stack)
    init = state.init
    op = ins.op

    def fail(msg: str) -> VerifyError:
        return VerifyError(f"{where}@{pc} ({ins!r}): {msg}")

    def pop(expected: Optional[VMType] = None) -> VMType:
        if not stack:
            raise fail("stack underflow")
        top = stack.pop()
        if expected is not None and top is not expected:
            raise fail(f"expected {expected.value} on stack, found {top.value}")
        return top

    info = OPS[op]
    if info.pops is not None:
        if op is Op.SCONST:
            _pool_entry(cls, ins.arg, K_STR, fail)
        for want in reversed(info.pops):
            pop(want)
        stack.extend(info.pushes)
        return tuple(stack), init

    if op is Op.CALL:
        class_name, func_name = _pool_entry(cls, ins.arg, K_FUNC, fail)
        try:
            params, ret = resolver.function_signature(class_name, func_name)
        except LinkError as exc:
            raise fail(str(exc)) from None
        _apply_call(stack, params, ret, pop)
    elif op is Op.NATIVE:
        (name,) = _pool_entry(cls, ins.arg, K_NATIVE, fail)
        try:
            params, ret = resolver.native_signature(name)
        except LinkError as exc:
            raise fail(str(exc)) from None
        _apply_call(stack, params, ret, pop)
    elif op is Op.CALLBACK:
        (name,) = _pool_entry(cls, ins.arg, K_CALLBACK, fail)
        try:
            params, ret = resolver.callback_signature(name)
        except LinkError as exc:
            raise fail(str(exc)) from None
        _apply_call(stack, params, ret, pop)
    else:
        # A stack-only op: check what it needs, then apply it.
        def expect_top(want: VMType) -> None:
            if stack and stack[-1] is not want:
                raise fail(
                    f"expected {want.value} on stack, found {stack[-1].value}"
                )

        if op is Op.LOAD or op is Op.STORE:
            if ins.arg >= len(locals_):
                raise fail(f"local slot {ins.arg} out of range")
        if op is Op.LOAD:
            if not (init >> ins.arg) & 1:
                raise fail(f"local slot {ins.arg} read before write")
        elif op is Op.STORE:
            expect_top(locals_[ins.arg])
            init |= 1 << ins.arg
        elif op is Op.RET:
            if func.ret_type is VMType.VOID:
                raise fail("RET in a void function (use RETV)")
            expect_top(func.ret_type)
            if len(stack) > 1:
                raise fail("stack not empty under return value")
        elif op is Op.RETV:
            if func.ret_type is not VMType.VOID:
                raise fail("RETV in a non-void function")
            if stack:
                raise fail("stack not empty at void return")
        try:
            step_stack(ins, locals_, stack)
        except IndexError:
            raise fail("stack underflow") from None

    return tuple(stack), init


def _apply_call(
    stack: List[VMType],
    params: Tuple[VMType, ...],
    ret: VMType,
    pop: Callable[[Optional[VMType]], VMType],
) -> None:
    for want in reversed(params):
        pop(want)
    if ret is not VMType.VOID:
        stack.append(ret)


def _pool_entry(cls, index, kind, fail) -> Tuple[str, ...]:
    if not (0 <= index < len(cls.pool)):
        raise fail(f"constant-pool index {index} out of range")
    entry = cls.pool[index]
    if entry.kind != kind:
        raise fail(f"constant-pool entry {index} has kind {entry.kind}, want {kind}")
    return entry.value
