"""Design 3: sandboxed (JaguarVM) UDFs inside the server process ("JNI").

The paper's Section 4.2 implementation, transliterated:

* "a single JVM is created when the database server starts up" — the
  server owns one :class:`~repro.vm.machine.JaguarVM`;
* "each Java UDF is packaged as a method within its own class ... the
  corresponding class is loaded once for the whole query execution" —
  the classfile is loaded (decoded, verified, linked into an isolated
  class loader) at registration, and one execution context is reused
  across a query's invocations;
* "parameters that need to be passed must first be mapped to Java
  objects" — argument marshalling through
  :func:`~repro.vm.values.coerce_argument` copies byte arrays at the
  boundary, the impedance-mismatch cost Figure 5 measures at large
  payloads;
* "callbacks from the Java UDF to the server occur through the 'native
  method' feature" — a CALLBACK instruction calls the query binding's
  handler entry for its name, which the security manager allowed at the
  name's first crossing in the query.

The UDF payload may be JagScript source (compiled here) or classfile
bytes (a client-compiled, migrated UDF); either way the bytes are
verified before the catalog accepts them.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import UDFRegistrationError
from ..vm.classfile import MAGIC, ClassFile
from ..vm.compiler import compile_source
from ..vm.machine import LoadedUDF
from ..vm.security import Permissions
from ..vm.tier import run_tiered_batch
from .callbacks import standard_sink_callbacks
from .designs import Design
from .factory import UDFExecutor
from .udf import ServerEnvironment, UDFDefinition


def compile_udf_source(
    source: str, class_name: str, env: ServerEnvironment
) -> ClassFile:
    """Compile JagScript with the server's callback signatures visible."""
    return compile_source(
        source, class_name, callbacks=env.broker.signatures()
    )


def load_sandbox_payload(
    definition: UDFDefinition, env: ServerEnvironment
) -> LoadedUDF:
    """Turn a sandbox payload into the registration's prepared program.

    All load-time work happens here and only here: compile (source
    payloads), decode + verify + analyse + certify, the entry-signature
    check, and, for the JIT designs, JIT compilation of every function
    and the entry's tier-1 kernel (``SANDBOX_INTERP`` stays an
    interpreter: no JIT, no kernel).  The :class:`LoadedUDF` stays
    loaded in ``env.vm`` under the UDF's name (the registry unloads it
    at DROP FUNCTION); a payload failing any check leaves nothing
    loaded.
    """
    payload = definition.payload
    class_name = f"udf_{definition.name}"
    if payload[:4] == MAGIC:
        classfile: object = bytes(payload)  # hostile path: decode+verify
    else:
        try:
            source = payload.decode("utf-8")
        except UnicodeDecodeError:
            raise UDFRegistrationError(
                f"UDF {definition.name!r}: payload is neither a classfile "
                f"nor utf-8 source"
            ) from None
        classfile = compile_udf_source(source, class_name, env)

    vm = env.vm
    load_name = definition.name.lower()
    # None quotas inherit the VM's QuotaPolicy; explicit registration
    # values derive a per-UDF policy without touching anything shared.
    loaded = vm.load_udf(
        name=load_name,
        classfiles=[classfile],
        permissions=Permissions(
            callbacks=frozenset(definition.callbacks),
            sinks=standard_sink_callbacks(),
        ),
        fuel=definition.fuel,
        memory=definition.memory,
    )
    try:
        _check_entry(definition, loaded)
        if definition.design is not Design.SANDBOX_INTERP:
            loaded.jit_all()
            loaded.build_kernel(definition.entry)
    except Exception:
        vm.unload_udf(load_name)
        raise
    return loaded


def _check_entry(definition: UDFDefinition, loaded: LoadedUDF) -> None:
    entry = definition.entry
    func = loaded.main_class.functions.get(entry)
    if func is None:
        raise UDFRegistrationError(
            f"UDF {definition.name!r}: payload defines no function "
            f"{entry!r}"
        )
    want_params = definition.signature.vm_param_types()
    want_ret = definition.signature.vm_ret_type()
    if func.param_types != want_params or func.ret_type is not want_ret:
        params, ret = definition.signature.names
        raise UDFRegistrationError(
            f"UDF {definition.name!r}: entry signature "
            f"{[t.value for t in func.param_types]} -> "
            f"{func.ret_type.value} does not match declaration "
            f"{params} -> {ret}"
        )


def loaded_program(
    definition: UDFDefinition, env: ServerEnvironment
) -> LoadedUDF:
    """The prepared program every executor of ``definition`` runs.

    Registration loaded it; a definition that was never registered
    (executors built straight from a definition) is loaded on first use.
    """
    loaded = env.vm.loaded_udfs.get(definition.name.lower())
    return loaded if loaded is not None else load_sandbox_payload(
        definition, env
    )


def batch_tier(definition: UDFDefinition, env: ServerEnvironment) -> str:
    """What ``definition``'s batches run on, as EXPLAIN shows it.

    ``kernel``, or ``tier0(<refusal>)`` with the load-time eligibility
    refusal, ``interpreter`` for ``SANDBOX_INTERP`` or ``demoted`` after
    a deopt storm.
    """
    if definition.design is Design.SANDBOX_INTERP:
        return "tier0(interpreter)"
    loaded = loaded_program(definition, env)
    if loaded.kernel is None:
        return f"tier0({loaded.kernel_refusal})"
    return "kernel"


def _certified_call_bounds(loaded: LoadedUDF, entry: str) -> tuple:
    """Constant certified per-invocation (fuel, mem) bounds, or Nones."""
    from ..analysis.bounds import constant_bound

    cert = getattr(loaded.main_class.functions.get(entry), "certificate", None)
    if cert is None:
        return None, None
    return constant_bound(cert.fuel_bound), constant_bound(cert.mem_bound)


def admission_claim(loaded: LoadedUDF, entry: str) -> tuple:
    """Per-invocation worst case to reserve against the group budget.

    The certified constant bound is the tight claim; argument-dependent
    or absent bounds fall back to the program's full quota (the runtime
    meter's own cap in every design, so the claim is always sound).
    """
    fuel_claim, mem_claim = loaded.policy.fuel, loaded.policy.memory
    fuel_const, mem_const = _certified_call_bounds(loaded, entry)
    if fuel_const is not None:
        fuel_claim = min(fuel_claim, fuel_const)
    if mem_const is not None:
        mem_claim = min(mem_claim, mem_const)
    return fuel_claim, mem_claim


def run_batch(loaded: LoadedUDF, entry: str, context, invoke_one,
              args_list: Sequence[Sequence[object]]) -> list:
    """The one batch routine of every sandboxed executor, in process or
    in an isolated worker, profiled or not (a profile reads the
    account's :attr:`~repro.vm.resources.ResourceAccount.charged`).

    ``invoke_one`` is ``loaded.make_invoker(entry, context, ...)``.
    With a tier-1 kernel (built at load; see
    :meth:`LoadedUDF.build_kernel`) the whole batch runs inside it,
    deopting mid-batch through :func:`~repro.vm.tier.run_tiered_batch`.
    Otherwise each row is one ``invoke_one`` call, and the account is
    refilled only when what is left no longer covers the certified
    per-invocation fuel and heap need: an invocation that provably fits
    what is left cannot fault where a fresh account would not have, so
    the per-invocation quota holds without a refill per tuple.  When
    every allocation is proven non-escaping (``arena_safe``), each
    call's heap charges are refunded after it returns and only the fuel
    bound governs the refill.  Without a bound the need exceeds any
    quota: every call gets a fresh one.
    """
    kernel = loaded.kernel
    if kernel is not None:
        return run_tiered_batch(
            loaded, kernel, context, args_list, invoke_one
        )
    account = context.account
    fuel_need, mem_need = _certified_call_bounds(loaded, entry)
    flows = getattr(loaded.main_class.functions.get(entry), "flows", None)
    arena = mem_need is None and flows is not None and flows.arena_safe
    if fuel_need is None or (mem_need is None and not arena):
        fuel_need = account.fuel_limit + 1  # the quota is per invocation
    if mem_need is None:
        mem_need = 0
    mem_limit = account.memory_limit
    results = []
    for args in args_list:
        if account.fuel < fuel_need or account.memory < mem_need:
            account.reset()
        results.append(invoke_one(args))
        if arena:
            account.release_memory(mem_limit)
    return results


class SandboxExecutor(UDFExecutor):
    """In-process JaguarVM execution (with or without the JIT)."""

    def __init__(
        self,
        definition: UDFDefinition,
        env: ServerEnvironment,
        use_jit: bool = True,
    ):
        super().__init__(definition, env)
        self._loaded = loaded_program(definition, env)
        self._use_jit = use_jit
        self._context = None
        self._reservation = None

    def begin_query(self, binding=None) -> None:
        super().begin_query(binding)
        # One context (and one resource account) per query: quota limits
        # then bound the query's total sandbox work, and per-invocation
        # setup stays off the per-tuple path, as in the paper.  Its
        # callbacks are the binding's entries for the grant: a CALLBACK
        # calls its handler directly once the context checked it.
        self._context = self._loaded.make_context(
            callbacks=self.binding.as_handlers(
                self._loaded.security.permissions.callbacks
            )
        )
        registry = self.env.thread_groups
        if registry is not None:
            group = registry.group_for(self.definition.name.lower())
            # Admission control: reserve the worst case this query's
            # invocations can consume; a claim that cannot fit the
            # group's remaining budget is refused before any tuple runs.
            fuel_claim, mem_claim = admission_claim(
                self._loaded, self.definition.entry
            )
            group.reserve(fuel_claim, mem_claim)
            self._reservation = (group, fuel_claim, mem_claim)
            # Join the UDF's thread group until end_query: if the DBA
            # kills the group, this query's account is revoked and the
            # UDF dies at its next fuel check.
            group.adopt_account(self._context.account)

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """One VM entry per batch instead of per tuple.

        ``make_invoker`` hoists function lookup, verification, and JIT
        lookup out of the loop, and read-only byte-array parameters skip
        the defensive marshalling copy.  The batch then runs through
        :func:`run_batch`: the tier-1 kernel when the UDF has one, else
        the certified reset-elision loop.
        """
        if self._context is None:
            self.begin_query()
        context = self._context
        entry = self.definition.entry
        invoke_one = self._loaded.make_invoker(
            entry, context, use_jit=self._use_jit
        )
        return run_batch(self._loaded, entry, context, invoke_one, args_list)

    def end_query(self) -> None:
        super().end_query()
        context, self._context = self._context, None
        if self._reservation is not None:
            group, fuel_claim, mem_claim = self._reservation
            self._reservation = None
            group.release(fuel_claim, mem_claim)
            group.release_account(context.account)

    @property
    def account(self):
        return None if self._context is None else self._context.account
