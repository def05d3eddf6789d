"""Tier-1 whole-batch kernels: one compiled unit per batch of rows.

The JIT (tier 0, :mod:`repro.vm.jit`) removes interpretive dispatch, but
the executor still pays one VM entry per row: a closure call, argument
marshalling through ``coerce_argument``, ``enter_call``/``exit_call``
depth bookkeeping, a quota ``reset``, and the jitted prologue's
certified-bound check.  For a hot arithmetic UDF those fixed costs
dominate the body.  A *batch kernel* moves the row loop inside the
generated code:

* the VM entry, account binding, and depth bookkeeping happen once per
  batch instead of once per row;
* argument marshalling collapses to type **guards** specialized from the
  verifier's declared parameter types — a mismatch raises the deopt
  signal instead of coercing, and the tier-0 rerun then reproduces the
  exact baseline behaviour, coercions and error messages included;
* the certifier's constant fuel bound is prepaid with a single
  subtraction — per row, or once for the whole batch when the function
  is a leaf with a zero heap bound; per-basic-block metering disappears
  entirely (the same soundness argument as the jitted prologue's
  metering elision: the refill check guarantees the remaining quota
  covers the transitive worst case before the row starts);
* quota ``reset`` is elided exactly like the tier-0 certified batch
  paths: refill only when the remaining quota no longer covers the
  certified bounds, with the arena variant refunding non-escaping
  allocations after each row.

The body is the JIT's certified clone (:func:`repro.vm.jit.lower`) with
two differences: RET appends the row's result and ends the row (the
``continue`` of the row loop), where the JIT returns; and an accumulator
update skips the wrap only when the certified value bound is a constant
below 2^63, since a kernel has no per-call entry guard.  Accesses the
certifier proved in bounds and counted ``for`` loops hold for any row.

Eligibility is decided by :mod:`repro.vm.tier`; this module assumes the
function passed those checks (constant bounds, no callbacks, traps only
under a flow certificate, array parameters proven read-only) and raises
:class:`KernelUnsupported` otherwise.

Any condition the kernel cannot handle inline — a type-guard failure, a
trap, a quota refill that still cannot cover the certified bound — is a
**deopt**: the kernel raises :class:`KernelDeopt` (or lets the VM error
propagate) and the tier runner re-executes the faulting row and the rest
of the batch on tier 0 with per-call quota semantics, which is
bit-identical to never having run the kernel.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .classfile import ClassFile, FunctionDef
from .interpreter import ExecutionContext
from .jit import JitCompiler, _namespace, lower, source_name
from .opcodes import Op
from .values import INT_MAX, INT_MIN, VMType, default_value


class KernelDeopt(Exception):
    """Raised inside a kernel when a row needs the tier-0 slow path."""


class KernelUnsupported(Exception):
    """The function cannot be compiled to a batch kernel.

    Eligibility (:func:`repro.vm.tier.kernel_eligibility`) should have
    refused the function first; this is the codegen-level backstop.
    """


#: ``kernel(rows, ctx, out)`` appends one result per completed row to
#: ``out``, so on a deopt the caller resumes tier 0 at ``len(out)``.
BatchKernel = Callable[
    [Sequence[Sequence[object]], ExecutionContext, List[object]], None
]


def _guard_line(index: int, vm_type: VMType, readonly: frozenset) -> str:
    """A per-row type guard replacing ``coerce_argument`` for one slot.

    Guards are deliberately *narrower* than the coercers: anything the
    guard is unsure about (an int-valued float parameter, an out-of-range
    int, a memoryview byte array) deopts to tier 0, whose coercion — and
    whose error message on a genuine mismatch — is the semantics of
    record.
    """
    v = f"L{index}"
    if vm_type is VMType.INT:
        return (
            f"if not ({v}.__class__ is int and "
            f"{INT_MIN} <= {v} <= {INT_MAX}): raise __deopt"
        )
    if vm_type is VMType.FLOAT:
        return f"if {v}.__class__ is not float: raise __deopt"
    if vm_type is VMType.BOOL:
        return f"if {v}.__class__ is not bool: raise __deopt"
    if vm_type is VMType.STR:
        return f"if {v}.__class__ is not str: raise __deopt"
    if vm_type is VMType.ARR and index in readonly:
        # Proven read-only: pass the server buffer through uncopied,
        # exactly like coerce_argument_readonly on the tier-0 path.
        return (
            f"if not ({v}.__class__ is bytes or "
            f"{v}.__class__ is bytearray): raise __deopt"
        )
    raise KernelUnsupported(
        f"parameter {index} ({vm_type.value}) has no kernel guard"
    )


def compile_batch_kernel(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    compiler: JitCompiler,
) -> BatchKernel:
    """Translate one certified function into a whole-batch kernel."""
    from ..analysis.bounds import constant_bound

    cert = getattr(func, "certificate", None)
    fuel_need = (
        constant_bound(cert.fuel_bound) if cert is not None else None
    )
    local_need = (
        constant_bound(cert.local_fuel_bound) if cert is not None else None
    )
    if fuel_need is None or local_need is None:
        raise KernelUnsupported(
            f"{cls.name}.{func.name}: no constant certified fuel bound"
        )
    mem_need = constant_bound(cert.mem_bound)
    flows = getattr(func, "flows", None)
    arena = mem_need is None and flows is not None and flows.arena_safe
    readonly = (
        frozenset(flows.readonly_params) if flows is not None
        else frozenset()
    )

    source, namespace = _translate_kernel(
        cls, func, ctx, compiler,
        fuel_need=fuel_need, mem_need=mem_need, local_need=local_need,
        arena=arena, readonly=readonly,
    )
    code = compile(source, source_name("kernel", cls, func), "exec")
    exec(code, namespace)
    return namespace["__kernel"]


def _translate_kernel(
    cls: ClassFile,
    func: FunctionDef,
    ctx: ExecutionContext,
    compiler: JitCompiler,
    fuel_need: int,
    mem_need,
    local_need: int,
    arena: bool,
    readonly: frozenset,
):
    if any(ins.op is Op.CALLBACK for ins in func.code):
        raise KernelUnsupported(
            f"{cls.name}.{func.name}: callback-bearing body"
        )
    namespace = _namespace(cls, func, ctx, compiler)
    namespace["__deopt"] = KernelDeopt(f"{cls.name}.{func.name}")

    # -- per-row work, relative to the loop body (indent 0) --------------
    row_lines: List[str] = []
    nparams = len(func.param_types)
    row_lines.append(f"if len(__row) != {nparams}: raise __deopt")
    if nparams:
        names = ", ".join(f"L{i}" for i in range(nparams))
        trailing = "," if nparams == 1 else ""
        row_lines.append(f"({names}{trailing}) = __row")
    for i, t in enumerate(func.param_types):
        row_lines.append(_guard_line(i, t, readonly))
    for i, t in enumerate(func.local_types[nparams:], start=nparams):
        row_lines.append(f"L{i} = {default_value(t)!r}")

    def ret(value: str) -> List[str]:
        # Nothing this function allocates survives its return: an arena
        # kernel refunds the row's heap charges, like the tier-0 arena
        # path, before the row ends.
        if arena:
            return [f"__app({value})", "__acct.release_memory(__ml)"]
        return [f"__app({value})"]

    # The certified clone, minus any accumulator update whose value bound
    # would need an entry guard: a kernel takes only facts that hold for
    # every row.
    cert = func.certificate
    value_bound = cert.value_bound
    unconditional = (value_bound is not None and value_bound.is_constant
                     and value_bound.constant_value < 2 ** 63)
    nowrap = frozenset(cert.nowrap_pcs if unconditional else ())
    row_lines.extend(
        lower(cls, func, ctx, namespace, ret=ret, nowrap=nowrap)
    )

    # -- per-row quota prologue (hoisted metering, per-row elision) ------
    prologue: List[str] = []
    if mem_need is not None:
        cond = (
            f"__acct.fuel < {fuel_need} or __acct.memory < {mem_need}"
        )
        prologue.append(f"if {cond}:")
        prologue.append("    __acct.reset()")
        prologue.append(f"    if {cond}: raise __deopt")
    elif arena:
        cond = f"__acct.fuel < {fuel_need}"
        prologue.append(f"if {cond}:")
        prologue.append("    __acct.reset()")
        prologue.append(f"    if {cond}: raise __deopt")
    else:
        # Argument-dependent heap use with no arena proof: reset per row
        # (tier-0 baseline quota semantics), deopt if even a fresh quota
        # cannot cover the certified fuel worst case.
        prologue.append("__acct.reset()")
        prologue.append(f"if __acct.fuel < {fuel_need}: raise __deopt")
    if local_need:
        prologue.append(f"__acct.fuel -= {local_need}")

    # A leaf function (transitive bound == local bound) with a certified
    # zero heap bound and a body that never touches the account can have
    # the whole batch's fuel prepaid in one subtraction: if the quota
    # covers ``fuel_need + local_need*(n-1)``, every row is guaranteed
    # its certified bound at start (the elision argument, applied once
    # per batch), so the per-row prologue disappears from the hot loop.
    # A mid-batch deopt may leave the prepayment overcharged, but the
    # tier-0 tail resets per row, so no observable behaviour depends on
    # the residual balance.
    bulk_ok = (
        fuel_need == local_need
        and mem_need == 0
        and not arena
        and not any("__acct" in line for line in row_lines)
    )

    out: List[str] = []
    out.append("def __kernel(__rows, __ctx, __out):")
    out.append("    __acct = __ctx.account")
    out.append("    __app = __out.append")
    if arena:
        out.append("    __ml = __acct.memory_limit")
    if bulk_ok:
        out.append("    __n = len(__rows)")
        out.append(
            f"    __need = {fuel_need} + {local_need} * (__n - 1)"
        )
        out.append("    if __n and __acct.fuel < __need:")
        out.append("        __acct.reset()")
        out.append("    if __n and __acct.fuel >= __need:")
        out.append(f"        __acct.fuel -= {local_need} * __n")
        out.append("        for __row in __rows:")
        for line in row_lines:
            out.append(f"            {line}")
        out.append("        return")
    out.append("    for __row in __rows:")
    for line in prologue:
        out.append(f"        {line}")
    for line in row_lines:
        out.append(f"        {line}")

    return "\n".join(out) + "\n", namespace
