"""JaguarVM bytecode interpreter.

The interpreter is the "no JIT" execution mode: a classic decode-dispatch
loop charging one fuel unit per instruction.  It only runs *verified*
code — the constructor refuses unverified classfiles — so it performs no
type checks, but it does enforce everything the verifier provably cannot:
array bounds, division by zero, numeric conversion traps, call depth, and
the fuel / memory quotas.

An :class:`ExecutionContext` bundles the per-invocation environment:
function resolution (class loader), the security manager, the resource
account, and the callback broker.  The same context type drives the JIT,
so the two modes are interchangeable behind
:func:`~repro.vm.machine.JaguarVM.invoke`.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    ArithmeticFault,
    BoundsError,
    LinkError,
    VerifyError,
    VMRuntimeError,
)
from .classfile import ClassFile, FunctionDef, K_CALLBACK, K_FUNC, K_NATIVE, K_STR
from .opcodes import Op
from .resources import ResourceAccount, unmetered_account
from .security import SecurityManager, open_manager
from .stdlib import NATIVE_IMPLS
from .values import (
    VMType,
    VMValue,
    coerce_argument,
    coerce_argument_readonly,
    default_value,
    f2i,
    idiv,
    imod,
    wrap_int,
)

#: Every opcode the dispatch loop handles, in the order ``_execute``
#: unpacks them into locals.  Testing ``op is op_load`` (a LOAD_FAST)
#: instead of ``op is Op.LOAD`` (a global plus an enum attribute lookup)
#: roughly halves the cost of walking the dispatch chain.
_DISPATCH_OPS = (
    Op.LOAD, Op.STORE, Op.ICONST, Op.FCONST, Op.BCONST, Op.SCONST,
    Op.IADD, Op.ISUB, Op.IMUL, Op.IDIV, Op.IMOD, Op.INEG,
    Op.IAND, Op.IOR, Op.IXOR, Op.ISHL, Op.ISHR,
    Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FNEG,
    Op.I2F, Op.F2I, Op.I2S, Op.F2S,
    Op.ICMPLT, Op.FCMPLT, Op.ICMPLE, Op.FCMPLE,
    Op.ICMPGT, Op.FCMPGT, Op.ICMPGE, Op.FCMPGE,
    Op.ICMPEQ, Op.FCMPEQ, Op.SEQ, Op.ICMPNE, Op.FCMPNE,
    Op.NOT, Op.BAND, Op.BOR,
    Op.SCONCAT, Op.SLEN, Op.SINDEX, Op.SSUB,
    Op.NEWARR, Op.ALOAD, Op.ASTORE, Op.ALEN, Op.ACOPY,
    Op.NEWFARR, Op.FALOAD, Op.FASTORE, Op.FALEN,
    Op.JMP, Op.JZ, Op.JNZ, Op.RET, Op.RETV,
    Op.POP, Op.DUP, Op.SWAP,
    Op.CALL, Op.NATIVE, Op.CALLBACK,
)


class ExecutionContext:
    """Everything one sandboxed invocation needs from its environment."""

    __slots__ = ("resolve_function", "callbacks", "security", "account",
                 "natives", "callback_signatures")

    def __init__(
        self,
        resolve_function: Callable[[str, str], Tuple[ClassFile, FunctionDef]],
        callbacks: Optional[Dict[str, Callable]] = None,
        security: Optional[SecurityManager] = None,
        account: Optional[ResourceAccount] = None,
        callback_signatures: Optional[Dict[str, Tuple]] = None,
    ):
        self.resolve_function = resolve_function
        self.callbacks = callbacks or {}
        self.security = security if security is not None else open_manager()
        self.account = account if account is not None else unmetered_account()
        self.natives = NATIVE_IMPLS
        if callback_signatures is None:
            from ..core.callbacks import standard_callback_signatures

            callback_signatures = standard_callback_signatures()
        self.callback_signatures = callback_signatures

    def invoke_callback(self, name: str, args: Sequence[VMValue]) -> VMValue:
        """Security-checked callback dispatch (the JNI 'native method')."""
        self.security.check_callback(name)
        try:
            handler = self.callbacks[name]
        except KeyError:
            raise LinkError(f"callback {name!r} is not provided") from None
        return handler(*args)

    def invoke_native(self, name: str, args: Sequence[VMValue]) -> VMValue:
        self.security.check_native(name)
        return self.natives[name](*args)


def single_class_context(cls: ClassFile, **kwargs) -> ExecutionContext:
    """Context resolving CALLs inside ``cls`` only (tests, simple UDFs)."""

    def resolve(class_name: str, func_name: str):
        if class_name != cls.name:
            raise LinkError(f"cannot resolve foreign class {class_name!r}")
        try:
            return cls, cls.functions[func_name]
        except KeyError:
            raise LinkError(f"unknown function {func_name!r}") from None

    return ExecutionContext(resolve, **kwargs)


def run_function(
    cls: ClassFile,
    func: FunctionDef,
    args: Sequence[object],
    ctx: ExecutionContext,
    readonly_params: Sequence[int] = (),
) -> VMValue:
    """Invoke ``func`` with host-level ``args`` through the JNI boundary.

    Arguments are marshalled (copied where mutability demands) into VM
    representations; the return value comes back as a host value.
    ``readonly_params`` names parameter indices the flow certifier
    proved read-only, whose byte arrays may skip the defensive copy.
    """
    if not cls.verified:
        raise VerifyError(
            f"refusing to execute unverified class {cls.name!r}"
        )
    if len(args) != len(func.param_types):
        raise VMRuntimeError(
            f"{cls.name}.{func.name} expects {len(func.param_types)} "
            f"arguments, got {len(args)}"
        )
    if readonly_params:
        vm_args = [
            coerce_argument_readonly(a, t) if i in readonly_params
            else coerce_argument(a, t)
            for i, (a, t) in enumerate(zip(args, func.param_types))
        ]
    else:
        vm_args = [
            coerce_argument(a, t) for a, t in zip(args, func.param_types)
        ]
    return _execute(cls, func, vm_args, ctx)


def _execute(
    cls: ClassFile,
    func: FunctionDef,
    args: List[VMValue],
    ctx: ExecutionContext,
    metered: bool = True,
) -> VMValue:
    """The dispatch loop.  ``args`` are already VM values.

    When the function carries a :class:`ResourceCertificate` with a
    finite fuel bound, the whole worst case is charged up front and the
    per-instruction decrement is elided — the certificate *proves* the
    function cannot exceed what it paid.  Unbounded functions (and
    callees of an already-elided frame, whose cost the caller prepaid)
    keep the dynamic meter.  Memory stays dynamically metered in both
    modes: allocations are charged where they happen, so an over-quota
    allocation faults at the same instruction either way.
    """
    account = ctx.account
    if metered:
        cert = getattr(func, "certificate", None)
        if cert is not None and not account.revoked:
            charge = cert.fuel_charge(args)
            if charge is not None and charge <= account.fuel:
                account.fuel -= charge
                metered = False
    account.enter_call()
    try:
        slots: List[VMValue] = list(args)
        for t in func.local_types[len(args):]:
            slots.append(default_value(t))
        stack: List[VMValue] = []
        code = func.dispatch
        if code is None:
            code = tuple((i.op, i.arg) for i in func.code)
            func.dispatch = code
        pool = cls.pool
        (
            op_load, op_store, op_iconst, op_fconst, op_bconst, op_sconst,
            op_iadd, op_isub, op_imul, op_idiv, op_imod, op_ineg,
            op_iand, op_ior, op_ixor, op_ishl, op_ishr,
            op_fadd, op_fsub, op_fmul, op_fdiv, op_fneg,
            op_i2f, op_f2i, op_i2s, op_f2s,
            op_icmplt, op_fcmplt, op_icmple, op_fcmple,
            op_icmpgt, op_fcmpgt, op_icmpge, op_fcmpge,
            op_icmpeq, op_fcmpeq, op_seq, op_icmpne, op_fcmpne,
            op_not, op_band, op_bor,
            op_sconcat, op_slen, op_sindex, op_ssub,
            op_newarr, op_aload, op_astore, op_alen, op_acopy,
            op_newfarr, op_faload, op_fastore, op_falen,
            op_jmp, op_jz, op_jnz, op_ret, op_retv,
            op_pop, op_dup, op_swap,
            op_call, op_native, op_callback,
        ) = _DISPATCH_OPS
        pc = 0
        while True:
            if metered:
                account.fuel -= 1
                if account.fuel < 0:
                    account.out_of_fuel()
            op, arg = code[pc]
            pc += 1

            # The chain is ordered by dynamic frequency — loads, stores,
            # constants, the add/compare/branch loop kernel first — since
            # an instruction's position is its dispatch cost.
            if op is op_load:
                stack.append(slots[arg])
            elif op is op_iconst or op is op_fconst:
                stack.append(arg)
            elif op is op_store:
                slots[arg] = stack.pop()
            elif op is op_iadd:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] + b)
            elif op is op_icmplt or op is op_fcmplt:
                b = stack.pop()
                stack[-1] = stack[-1] < b
            elif op is op_jz:
                if not stack.pop():
                    pc = arg
            elif op is op_jmp:
                pc = arg
            elif op is op_jnz:
                if stack.pop():
                    pc = arg
            elif op is op_sindex:
                i = stack.pop()
                s = stack[-1]
                if not 0 <= i < len(s):
                    raise BoundsError(
                        f"string index {i} out of range [0, {len(s)})"
                    )
                stack[-1] = ord(s[i])
            elif op is op_aload:
                i = stack.pop()
                arr = stack[-1]
                if not 0 <= i < len(arr):
                    raise BoundsError(
                        f"array index {i} out of range [0, {len(arr)})"
                    )
                stack[-1] = arr[i]
            elif op is op_ret:
                return stack.pop()

            elif op is op_icmple or op is op_fcmple:
                b = stack.pop()
                stack[-1] = stack[-1] <= b
            elif op is op_icmpgt or op is op_fcmpgt:
                b = stack.pop()
                stack[-1] = stack[-1] > b
            elif op is op_icmpge or op is op_fcmpge:
                b = stack.pop()
                stack[-1] = stack[-1] >= b
            elif op is op_icmpeq or op is op_fcmpeq or op is op_seq:
                b = stack.pop()
                stack[-1] = stack[-1] == b
            elif op is op_icmpne or op is op_fcmpne:
                b = stack.pop()
                stack[-1] = stack[-1] != b

            elif op is op_isub:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] - b)
            elif op is op_imul:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] * b)
            elif op is op_idiv:
                b = stack.pop()
                stack[-1] = idiv(stack[-1], b)
            elif op is op_imod:
                b = stack.pop()
                stack[-1] = imod(stack[-1], b)
            elif op is op_ineg:
                stack[-1] = wrap_int(-stack[-1])
            elif op is op_iand:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] & b)
            elif op is op_ior:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] | b)
            elif op is op_ixor:
                b = stack.pop()
                stack[-1] = wrap_int(stack[-1] ^ b)
            elif op is op_ishl:
                b = stack.pop() & 63
                stack[-1] = wrap_int(stack[-1] << b)
            elif op is op_ishr:
                b = stack.pop() & 63
                stack[-1] = wrap_int(stack[-1] >> b)

            elif op is op_bconst:
                stack.append(arg == 1)
            elif op is op_sconst:
                stack.append(pool[arg].value[0])

            elif op is op_fadd:
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op is op_fsub:
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op is op_fmul:
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op is op_fdiv:
                b = stack.pop()
                if b == 0.0:
                    raise ArithmeticFault("float division by zero")
                stack[-1] = stack[-1] / b
            elif op is op_fneg:
                stack[-1] = -stack[-1]

            elif op is op_i2f:
                stack[-1] = float(stack[-1])
            elif op is op_f2i:
                stack[-1] = f2i(stack[-1])
            elif op is op_i2s:
                s = str(stack[-1])
                account.charge_memory(len(s))
                stack[-1] = s
            elif op is op_f2s:
                s = repr(stack[-1])
                account.charge_memory(len(s))
                stack[-1] = s

            elif op is op_not:
                stack[-1] = not stack[-1]
            elif op is op_band:
                b = stack.pop()
                stack[-1] = stack[-1] and b
            elif op is op_bor:
                b = stack.pop()
                stack[-1] = stack[-1] or b

            elif op is op_sconcat:
                b = stack.pop()
                a = stack[-1]
                account.charge_memory(len(a) + len(b))
                stack[-1] = a + b
            elif op is op_slen:
                stack[-1] = len(stack[-1])
            elif op is op_ssub:
                end = stack.pop()
                start = stack.pop()
                s = stack[-1]
                if not (0 <= start <= end <= len(s)):
                    raise BoundsError(
                        f"substring [{start}:{end}] out of range for "
                        f"length {len(s)}"
                    )
                account.charge_memory(end - start)
                stack[-1] = s[start:end]

            elif op is op_newarr:
                n = stack.pop()
                if n < 0:
                    raise BoundsError(f"negative array size {n}")
                account.charge_memory(n)
                stack.append(bytearray(n))
            elif op is op_astore:
                v = stack.pop()
                i = stack.pop()
                arr = stack.pop()
                if not 0 <= i < len(arr):
                    raise BoundsError(
                        f"array index {i} out of range [0, {len(arr)})"
                    )
                arr[i] = v & 0xFF
            elif op is op_alen:
                stack[-1] = len(stack[-1])
            elif op is op_acopy:
                arr = stack[-1]
                account.charge_memory(len(arr))
                stack[-1] = bytearray(arr)

            elif op is op_newfarr:
                n = stack.pop()
                if n < 0:
                    raise BoundsError(f"negative array size {n}")
                account.charge_memory(8 * n)
                stack.append(array("d", bytes(8 * n)))
            elif op is op_faload:
                i = stack.pop()
                arr = stack[-1]
                if not 0 <= i < len(arr):
                    raise BoundsError(
                        f"array index {i} out of range [0, {len(arr)})"
                    )
                stack[-1] = arr[i]
            elif op is op_fastore:
                v = stack.pop()
                i = stack.pop()
                arr = stack.pop()
                if not 0 <= i < len(arr):
                    raise BoundsError(
                        f"array index {i} out of range [0, {len(arr)})"
                    )
                arr[i] = v
            elif op is op_falen:
                stack[-1] = len(stack[-1])

            elif op is op_retv:
                return None

            elif op is op_pop:
                stack.pop()
            elif op is op_dup:
                stack.append(stack[-1])
            elif op is op_swap:
                stack[-1], stack[-2] = stack[-2], stack[-1]

            elif op is op_call:
                class_name, func_name = cls.constant(arg, K_FUNC)
                callee_cls, callee = ctx.resolve_function(class_name, func_name)
                nparams = len(callee.param_types)
                call_args = stack[len(stack) - nparams:]
                del stack[len(stack) - nparams:]
                result = _execute(callee_cls, callee, call_args, ctx,
                                  metered=metered)
                if callee.ret_type is not VMType.VOID:
                    stack.append(result)
            elif op is op_native:
                (name,) = cls.constant(arg, K_NATIVE)
                from .stdlib import NATIVE_SIGNATURES

                nparams = len(NATIVE_SIGNATURES[name][0])
                call_args = stack[len(stack) - nparams:]
                del stack[len(stack) - nparams:]
                result = ctx.invoke_native(name, call_args)
                if NATIVE_SIGNATURES[name][1] is not VMType.VOID:
                    stack.append(result)
            elif op is op_callback:
                (name,) = cls.constant(arg, K_CALLBACK)
                try:
                    sig = ctx.callback_signatures[name]
                except KeyError:
                    raise LinkError(f"no signature for callback {name!r}") from None
                nparams = len(sig[0])
                call_args = stack[len(stack) - nparams:]
                del stack[len(stack) - nparams:]
                result = ctx.invoke_callback(name, call_args)
                if sig[1] is not VMType.VOID:
                    stack.append(coerce_argument(result, sig[1]))
            else:  # pragma: no cover - verifier admits only known opcodes
                raise VMRuntimeError(f"unknown opcode {op}")
    finally:
        account.exit_call()
