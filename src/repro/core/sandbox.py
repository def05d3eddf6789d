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
  method' feature" — CALLBACK instructions dispatch through the security
  manager to the broker.

The UDF payload may be JagScript source (compiled here) or classfile
bytes (a client-compiled, migrated UDF); either way the bytes are
verified before the catalog accepts them.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import Optional, Sequence

from ..errors import UDFRegistrationError
from ..vm.classfile import MAGIC, ClassFile
from ..vm.compiler import compile_source
from ..vm.machine import LoadedUDF
from ..vm.security import Permissions
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
    check, and JIT compilation of every function for the JIT designs.
    The :class:`LoadedUDF` stays loaded in ``env.vm`` under the UDF's
    name (the registry unloads it at DROP FUNCTION); a payload failing
    any check leaves nothing loaded.
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
        raise UDFRegistrationError(
            f"UDF {definition.name!r}: entry signature "
            f"{[t.value for t in func.param_types]} -> "
            f"{func.ret_type.value} does not match declaration "
            f"{list(definition.signature.param_types)} -> "
            f"{definition.signature.ret_type}"
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


def admission_claim(loaded: LoadedUDF, entry: str) -> tuple:
    """Per-invocation worst case to reserve against the group budget.

    The certified constant bound is the tight claim; argument-dependent
    or absent bounds fall back to the program's full quota (the runtime
    meter's own cap in every design, so the claim is always sound).
    """
    from ..analysis.bounds import constant_bound

    policy = loaded.policy
    fuel_claim, mem_claim = policy.fuel, policy.memory
    cert = getattr(loaded.main_class.functions.get(entry), "certificate", None)
    if cert is not None:
        fuel_const = constant_bound(cert.fuel_bound)
        if fuel_const is not None:
            fuel_claim = min(fuel_claim, fuel_const)
        mem_const = constant_bound(cert.mem_bound)
        if mem_const is not None:
            mem_claim = min(mem_claim, mem_const)
    return fuel_claim, mem_claim


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
        # Tier-1 promotion state (lazy; shared executors accumulate call
        # counts across queries, which is what "hot" means here).
        self._tier = None
        # Exchange threads each get their own execution context (and
        # resource account): contexts are cheap, and sharing one across
        # threads would interleave fuel accounting mid-invocation.
        self._owner_thread: Optional[threading.Thread] = None
        self._tls = threading.local()
        self._extra_contexts: list = []
        self._extra_lock = threading.Lock()

    def begin_query(self, binding=None) -> None:
        super().begin_query(binding)
        # One context (and one resource account) per query: quota limits
        # then bound the query's total sandbox work, and per-invocation
        # setup stays off the per-tuple path, as in the paper.
        self._context = self._loaded.make_context(
            callbacks=self.binding.as_handlers()
        )
        registry = self.env.thread_groups
        if registry is not None:
            # Join the UDF's thread group: if the DBA kills the group,
            # this query's account is revoked and the UDF dies at its
            # next fuel check.
            group = registry.group_for(self.definition.name.lower())
            group.adopt_account(self._context.account)
            # Admission control: reserve the worst case this query's
            # invocations can consume; a claim that cannot fit the
            # group's remaining budget is refused before any tuple runs.
            fuel_claim, mem_claim = admission_claim(
                self._loaded, self.definition.entry
            )
            group.reserve(fuel_claim, mem_claim)
            self._reservation = (group, fuel_claim, mem_claim)
        self._owner_thread = threading.current_thread()
        self._tls = threading.local()

    def _thread_context(self):
        """The calling thread's execution context.

        The query's opening thread keeps the context made in
        ``begin_query``; an Exchange worker thread lazily gets its own
        (adopted into the same thread group, with its own labelled
        admission claim), so concurrent batches never share an account.
        Only certified-pure UDFs reach here concurrently — the optimizer
        gates Exchange on purity — so per-thread contexts cannot observe
        each other's effects.
        """
        if threading.current_thread() is self._owner_thread:
            return self._context
        context = getattr(self._tls, "context", None)
        if context is not None:
            return context
        context = self._loaded.make_context(
            callbacks=self.binding.as_handlers()
        )
        reservation = None
        registry = self.env.thread_groups
        if registry is not None:
            group = registry.group_for(self.definition.name.lower())
            group.adopt_account(context.account)
            fuel_claim, mem_claim = admission_claim(
                self._loaded, self.definition.entry
            )
            holder = (
                f"{self.definition.name.lower()}/"
                f"{threading.current_thread().name}"
            )
            group.reserve(fuel_claim, mem_claim, holder=holder)
            reservation = (group, fuel_claim, mem_claim, holder)
        with self._extra_lock:
            self._extra_contexts.append(reservation)
        self._tls.context = context
        return context

    def invoke(self, args: Sequence[object]) -> object:
        if self._context is None:
            self.begin_query()
        account = self._context.account
        account.reset()  # the quota is per invocation
        loaded = self._loaded
        saved = loaded.use_jit
        loaded.use_jit = self._use_jit
        prof = self.profile
        if prof is None:
            try:
                return loaded.invoke(
                    self.definition.entry, args, context=self._context
                )
            finally:
                loaded.use_jit = saved
        started = perf_counter_ns()
        try:
            result = loaded.invoke(
                self.definition.entry, args, context=self._context
            )
        except BaseException as exc:
            prof.record_error(exc)
            raise
        finally:
            loaded.use_jit = saved
        prof.record_invocations(1, perf_counter_ns() - started)
        # The account was reset at call entry, so the delta from its
        # limits is exactly this invocation's consumption.
        prof.record_resources(
            account.fuel_limit - account.fuel,
            account.memory_limit - account.memory,
        )
        return result

    def _certified_call_bounds(self) -> tuple:
        """Constant certified per-invocation (fuel, mem) bounds, or Nones."""
        from ..analysis.bounds import constant_bound

        entry = self._loaded.main_class.functions.get(self.definition.entry)
        cert = getattr(entry, "certificate", None)
        if cert is None:
            return None, None
        return (
            constant_bound(cert.fuel_bound),
            constant_bound(cert.mem_bound),
        )

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """One VM entry per batch instead of per tuple.

        ``make_invoker`` hoists function lookup, verification, and JIT
        compilation out of the loop.  When the certifier proved constant
        per-invocation fuel/heap bounds, the per-call ``account.reset()``
        is elided while the remaining quota still covers the bound: an
        invocation that provably fits what is left cannot fault where a
        fresh account would not have, so the per-invocation quota
        semantics are preserved without touching the account each tuple.

        The flow certificate adds two further fast paths.  When every
        allocation is proven non-escaping (``arena_safe``), the batch
        behaves like one recycled arena: each call's memory charges are
        refunded after it returns (the allocations are garbage by then),
        so an argument-dependent allocator no longer needs a full reset
        per tuple — only the certified fuel bound does.  And proven
        read-only byte-array parameters skip the defensive marshalling
        copy inside ``make_invoker`` (gated on ``definition.flows`` so
        stripping the certificate restores the copying baseline).
        """
        if self._context is None:
            self.begin_query()
        context = self._thread_context()
        account = context.account
        flows = getattr(self.definition, "flows", None)
        invoke_one = self._loaded.make_invoker(
            self.definition.entry,
            context,
            use_jit=self._use_jit,
            elide_copies=flows is not None,
        )
        state = None
        if getattr(self.env, "tiering", False):
            state = self._tier_state()
            state.calls += len(args_list)
            if self._promote(state, context, flows):
                return self._invoke_batch_tier1(
                    args_list, context, invoke_one, state
                )
        prof = self.profile
        if prof is not None:
            return self._invoke_batch_profiled(
                args_list, account, invoke_one, prof, tier_state=state
            )
        fuel_need, mem_need = self._certified_call_bounds()
        arena = flows is not None and flows.arena_safe
        results = []
        mem_limit = account.memory_limit
        if fuel_need is not None and mem_need is None and arena:
            # Per-batch arena: nothing this function allocates survives
            # its return, so the heap charges are handed back after each
            # call and only the fuel bound governs reset elision.  Only
            # worth it when no static memory bound exists — with both
            # bounds certified the branch below is cheaper (no per-call
            # refund).
            account.reset()
            for args in args_list:
                if account.fuel < fuel_need:
                    account.reset()
                results.append(invoke_one(args))
                account.release_memory(mem_limit)
        elif fuel_need is None or mem_need is None:
            for args in args_list:
                account.reset()  # the quota is per invocation
                results.append(invoke_one(args))
        else:
            account.reset()
            for args in args_list:
                if account.fuel < fuel_need or account.memory < mem_need:
                    account.reset()
                results.append(invoke_one(args))
        return results

    def _tier_state(self):
        """The executor's promotion state machine (created on demand)."""
        state = self._tier
        if state is None:
            from ..vm.tier import DEFAULT_PROMOTION_CALLS, TierState

            threshold = getattr(
                self.env, "tier1_threshold", DEFAULT_PROMOTION_CALLS
            )
            state = self._tier = TierState(threshold)
        return state

    def _promote(self, state, context, flows) -> bool:
        """Promote once hot; ``True`` when the next batch runs tier 1."""
        from ..vm.tier import maybe_promote

        already = state.kernel is not None
        promoted = maybe_promote(
            state,
            self._loaded,
            self.definition.entry,
            context,
            use_flows=flows is not None,
        )
        if promoted and not already and self.profile is not None:
            self.profile.record_promotion()
        return promoted

    def _invoke_batch_tier1(self, args_list, context, invoke_one, state):
        """One batch through the compiled kernel, deopt-safe.

        Mid-batch faults fall back to tier 0 inside
        :func:`~repro.vm.tier.run_tiered_batch`; a fault the tier-0
        rerun reproduces propagates from here exactly as the baseline
        batch loop would have raised it.
        """
        from ..vm.tier import run_tiered_batch

        prof = self.profile
        if prof is None:
            results, _deopted = run_tiered_batch(
                state, context, args_list, invoke_one
            )
            return results
        prof.bind_tier(state)
        started = perf_counter_ns()
        try:
            results, deopted = run_tiered_batch(
                state, context, args_list, invoke_one
            )
        except BaseException as exc:
            prof.record_error(exc)
            prof.record_tier_batch(len(args_list), 0, deopted=True)
            raise
        elapsed = perf_counter_ns() - started
        if args_list:
            prof.record_invocations(len(args_list), elapsed)
            prof.record_tier_batch(len(args_list), elapsed, deopted=deopted)
        return results

    def _invoke_batch_profiled(self, args_list, account, invoke_one, prof,
                               tier_state=None):
        """The batch loop with per-call fuel/heap attribution.

        Uses the reset-per-call baseline (eliding resets would fold
        several invocations' consumption into one opaque window); quota
        semantics are identical — elision is only ever an optimization.
        All accumulation is local-variable arithmetic; the profile is
        touched once per batch.
        """
        fuel_limit = account.fuel_limit
        mem_limit = account.memory_limit
        fuel_used = 0
        heap_used = 0
        results = []
        if tier_state is not None:
            prof.bind_tier(tier_state)
        started = perf_counter_ns()
        try:
            for args in args_list:
                account.reset()  # the quota is per invocation
                results.append(invoke_one(args))
                fuel_used += fuel_limit - account.fuel
                heap_used += mem_limit - account.memory
        except BaseException as exc:
            prof.record_error(exc)
            raise
        finally:
            if args_list:
                prof.record_resources(fuel_used, heap_used)
        if args_list:
            elapsed = perf_counter_ns() - started
            prof.record_invocations(len(args_list), elapsed)
            if tier_state is not None:
                prof.record_tier0_batch(len(args_list), elapsed)
        return results

    def end_query(self) -> None:
        super().end_query()
        self._context = None
        self._owner_thread = None
        self._tls = threading.local()
        if self._reservation is not None:
            group, fuel_claim, mem_claim = self._reservation
            self._reservation = None
            group.release(fuel_claim, mem_claim)
        with self._extra_lock:
            extras, self._extra_contexts = self._extra_contexts, []
        for reservation in extras:
            if reservation is not None:
                group, fuel_claim, mem_claim, holder = reservation
                group.release(fuel_claim, mem_claim, holder=holder)

    @property
    def resource_snapshot(self) -> Optional[dict]:
        """Usage of the current query's account (auditing aid)."""
        if self._context is None:
            return None
        return self._context.account.snapshot()
