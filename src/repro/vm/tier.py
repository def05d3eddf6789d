"""Two-tier execution: eligibility and deopt accounting.

Tier 0 is the existing interpreter/JIT path (:mod:`repro.vm.jit`): one
VM entry per row, per-call quota semantics, dynamic or certified-bound
metering.  Tier 1 (:mod:`repro.vm.kernels`) is a type-specialized
whole-batch kernel: at CREATE FUNCTION, beside the JIT, the entry
function of a JIT-design UDF — if *eligible* — is compiled into a
single closure that runs the whole batch
(:meth:`~repro.vm.machine.LoadedUDF.build_kernel`).  Eligibility reads
load-time certificates only, so there is nothing to learn at run time.

Eligibility is static and conservative.  A function is refused tier 1
(with a structured reason the ``python -m repro.analysis`` lint prints)
when:

* it can reach a **callback** (transitively, via the effect summary) —
  callbacks are interactive server round trips whose ordering the
  kernel cannot replay after a mid-batch fault;
* its effect summary records **untyped/unknown operations** — the type
  guards would have nothing sound to specialize on;
* it contains **trap sites without a flow certificate** — traps deopt
  fine, but without the certificate there is no static account of
  where, so tier 1 stays conservative;
* the certifier proved **no constant fuel bound** — per-row prepayment
  needs a constant worst case;
* it takes a **mutable array parameter** (a byte/float array not proven
  read-only) — a partially executed row could leave caller-visible
  mutations a tier-0 rerun would not reproduce.

Everything dynamic — a type-guard failure, a trap, a quota edge the
refill check cannot cover, a revoked account — **deopts**: the kernel
aborts, and :func:`run_tiered_batch` re-executes the faulting row and
the remainder of the batch on tier 0 with reset-per-call quota
semantics.  Completed rows keep their kernel results (the kernel only
appends a result after a row fully finishes), so the observable outcome
is bit-identical to never having run the kernel.  A UDF whose kernel
deopts :data:`DEMOTION_DEOPTS` times is demoted for good — a deopt storm
means the static picture and the data disagree, and tier 0 is cheaper
than run-abort cycles.  The tally lives on the
:class:`~repro.vm.machine.LoadedUDF` beside the kernel (a forked worker
keeps its own copy).
"""

from __future__ import annotations

from typing import Optional

from ..errors import VMError
from .classfile import FunctionDef
from .kernels import KernelDeopt
from .opcodes import OPS
from .values import VMType

#: Deopts tolerated before a UDF's kernel is demoted back to tier 0.
DEMOTION_DEOPTS = 8

#: Structured refusal reasons (stable strings: the lint CLI prints and
#: JSON-encodes them, tests match on them).
REFUSE_CALLBACK = "callback"
REFUSE_UNTYPED = "untyped-op"
REFUSE_TRAP = "trap-without-certificate"
REFUSE_UNBOUNDED = "unbounded-fuel"
REFUSE_MUTABLE_ARRAY = "mutable-array-param"
#: Not an eligibility verdict: the kernel was built, then dropped after
#: :data:`DEMOTION_DEOPTS` deopts.
REFUSE_DEMOTED = "demoted"

def kernel_eligibility(func: Optional[FunctionDef]) -> Optional[str]:
    """``None`` when ``func`` may run as a kernel, else the refusal reason."""
    if func is None:
        return REFUSE_UNTYPED
    summary = getattr(func, "summary", None)
    if summary is None:
        return REFUSE_UNTYPED
    if summary.callbacks:
        return REFUSE_CALLBACK
    if summary.unknown_effects:
        return REFUSE_UNTYPED
    cert = getattr(func, "certificate", None)
    if cert is None:
        return REFUSE_UNBOUNDED
    from ..analysis.bounds import constant_bound

    if (constant_bound(cert.fuel_bound) is None
            or constant_bound(cert.local_fuel_bound) is None):
        return REFUSE_UNBOUNDED
    flows = getattr(func, "flows", None)
    if flows is None and any(OPS[ins.op].trap for ins in func.code):
        return REFUSE_TRAP
    readonly = frozenset(flows.readonly_params) if flows is not None else ()
    for index, vm_type in enumerate(func.param_types):
        if vm_type is VMType.FARR:
            return REFUSE_MUTABLE_ARRAY
        if vm_type is VMType.ARR and index not in readonly:
            return REFUSE_MUTABLE_ARRAY
    return None


def run_tiered_batch(loaded, kernel, context, rows, invoke_one) -> list:
    """Run one batch through ``kernel``, deopting mid-batch to tier 0.

    The kernel appends one result per *completed* row, so after a fault
    the tier-0 tail resumes at ``len(results)`` — the faulting row
    re-executes from scratch on a freshly reset account and either
    succeeds or raises exactly the error the baseline would have raised.
    Each deopt counts against ``loaded``; the :data:`DEMOTION_DEOPTS`-th
    drops its kernel for good.
    """
    account = context.account
    results: list = []
    try:
        account.enter_call()
    except VMError:
        pass
    else:
        try:
            kernel(rows, context, results)
            return results
        except (KernelDeopt, VMError):
            pass
        finally:
            account.exit_call()
    # Concurrent statements (one server thread each) share ``loaded``: a
    # lost update here only delays demotion, and a thread that already
    # holds ``kernel`` may finish its batch with it — both paths are
    # correct, demotion is about cost.
    loaded.deopts += 1
    if loaded.deopts >= DEMOTION_DEOPTS:
        loaded.kernel = None
        loaded.kernel_refusal = REFUSE_DEMOTED
    for args in rows[len(results):]:
        account.reset()  # tier-0 baseline: the quota is per invocation
        results.append(invoke_one(args))
    return results
