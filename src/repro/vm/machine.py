"""The JaguarVM embedding facade.

Section 4.2 of the paper: "a single JVM is created when the database
server starts up, and is used until shutdown.  Each Java UDF is packaged
as a method within its own class."  :class:`JaguarVM` plays that role
here: the server instantiates one at startup, loads each registered UDF
into its own isolated class loader, and invokes entry points across the
JNI-analog boundary.

Every loaded UDF carries its own security manager (permissions + audit
log), class-loader namespace, and JIT cache.  Resource quotas are set at
load time and charged per invocation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from ..errors import LinkError, VerifyError, VMError, VMRuntimeError
from .classfile import ClassFile
from .classloader import SystemClassLoader, UDFClassLoader
from .interpreter import ExecutionContext, run_function
from .jit import JitCompiler
from .resources import DEFAULT_POLICY, QuotaPolicy, ResourceAccount
from .security import Permissions, SecurityManager, Signature
from .values import coerce_argument, coerce_argument_readonly


class LoadedUDF:
    """One UDF admitted into the VM: classes + policy + JIT cache."""

    def __init__(
        self,
        name: str,
        loader: UDFClassLoader,
        main_class: ClassFile,
        security: SecurityManager,
        callbacks: Dict[str, Callable],
        use_jit: bool,
        policy: QuotaPolicy,
    ):
        self.name = name
        self.loader = loader
        self.main_class = main_class
        self.security = security
        self.callbacks = callbacks
        self.use_jit = use_jit
        self.policy = policy
        self._jit = JitCompiler(loader.resolve_class)
        #: Tier 1 (:mod:`repro.vm.tier`), decided once by
        #: :meth:`build_kernel`: the entry's whole-batch kernel, or why
        #: there is none.  ``deopts`` tallies kernel bail-outs; enough of
        #: them drop the kernel (``kernel_refusal == "demoted"``).
        self.kernel_entry: Optional[str] = None
        self.kernel: Optional[Callable] = None
        self.kernel_refusal: Optional[str] = None
        self.deopts = 0

    def jit_all(self) -> None:
        """JIT-compile every function of the main class now, at load.

        Compilation reads only load-time state (resolved CALL targets,
        signatures, natives), so a scratch context will do and the cached
        closures serve every later context; intra-class CALL targets are
        compiled too, so no invocation ever compiles.
        """
        context = self.make_context()
        for func in self.main_class.functions.values():
            self._jit.get(self.main_class, func, context)

    def build_kernel(self, func_name: str) -> None:
        """Decide tier 1 for ``func_name`` now, at load, beside :meth:`jit_all`.

        An eligible function (:func:`repro.vm.tier.kernel_eligibility`)
        is compiled into its whole-batch kernel; otherwise
        ``kernel_refusal`` records why not.  Like the JIT, compilation
        reads load-time state only, so a scratch context will do and the
        kernel serves every later context, concurrent statements' included.
        """
        from . import kernels
        from .tier import REFUSE_UNTYPED, kernel_eligibility

        self.kernel_entry = func_name
        func = self.main_class.functions.get(func_name)
        refusal = kernel_eligibility(func)
        if refusal is None:
            try:
                self.kernel = kernels.compile_batch_kernel(
                    self.main_class, func, self.make_context(), self._jit
                )
            except (kernels.KernelUnsupported, VMError) as exc:
                refusal = f"{REFUSE_UNTYPED}: {exc}"
        self.kernel_refusal = refusal

    # Kept as properties: a lot of code (and tests) reads the quota off
    # the loaded UDF directly.
    @property
    def fuel(self) -> int:
        return self.policy.fuel

    @property
    def memory(self) -> int:
        return self.policy.memory

    @property
    def max_depth(self) -> int:
        return self.policy.max_depth

    def new_account(self) -> ResourceAccount:
        """A fresh quota for one invocation."""
        return self.policy.account()

    def make_context(
        self,
        account: Optional[ResourceAccount] = None,
        callbacks: Optional[Dict[str, Callable]] = None,
    ) -> ExecutionContext:
        return ExecutionContext(
            resolve_function=self.loader.resolve_function,
            callbacks=callbacks if callbacks is not None else self.callbacks,
            security=self.security,
            account=account if account is not None else self.new_account(),
            callback_signatures=self.loader.callback_signatures,
        )

    def invoke(
        self,
        func_name: str,
        args: Sequence[object],
        account: Optional[ResourceAccount] = None,
        callbacks: Optional[Dict[str, Callable]] = None,
        context: Optional[ExecutionContext] = None,
    ) -> object:
        """Run ``main_class.func_name(*args)`` inside the sandbox, once.

        The tier-0 entry of the client harness and the tests: never the
        batch kernel, and a fresh account unless ``context`` (or
        ``account``) is given.  Byte arrays are always copied in.  The
        call goes through :meth:`make_invoker`, so arity, argument
        coercion, the verified-class check and call-depth accounting are
        the executors' own.
        """
        ctx = context if context is not None else self.make_context(
            account=account, callbacks=callbacks
        )
        return self.make_invoker(func_name, ctx, elide_copies=False)(args)

    def make_invoker(
        self,
        func_name: str,
        context: ExecutionContext,
        use_jit: Optional[bool] = None,
        elide_copies: bool = True,
    ) -> Callable[[Sequence[object]], object]:
        """Build a per-call closure with invocation-invariant work hoisted.

        One VM "entry" (function lookup, verified check, JIT compile) is
        paid here; the returned callable only marshals arguments and
        runs.  Every sandboxed call goes through one: the executor
        enters the VM once per batch and calls the closure once per
        tuple, and :meth:`invoke` builds one for its single call.

        When ``elide_copies`` is true and the function carries a flow
        certificate, byte-array arguments for parameters proven
        read-only skip the defensive marshalling copy (the Figure 5
        boundary tax) — the certificate guarantees the UDF cannot write
        through or retain them.
        """
        func = self.main_class.functions.get(func_name)
        if func is None:
            raise LinkError(
                f"UDF {self.name!r} has no function {func_name!r}"
            )
        cls = self.main_class
        readonly: frozenset = frozenset()
        if elide_copies:
            flows = getattr(func, "flows", None)
            if flows is not None:
                readonly = frozenset(flows.readonly_params)
        jit = self.use_jit if use_jit is None else use_jit
        if not jit:
            def invoke_interp(args: Sequence[object]) -> object:
                return run_function(
                    cls, func, args, context, readonly_params=readonly
                )

            return invoke_interp
        if not cls.verified:
            raise VerifyError(
                f"refusing to execute unverified class {cls.name!r}"
            )
        jitted = self._jit.get(cls, func, context)
        param_types = func.param_types
        nparams = len(param_types)
        account = context.account
        coercers = [
            coerce_argument_readonly if index in readonly
            else coerce_argument
            for index in range(nparams)
        ]

        def invoke_one(args: Sequence[object]) -> object:
            if len(args) != nparams:
                raise VMRuntimeError(
                    f"{cls.name}.{func.name} expects {nparams} "
                    f"arguments, got {len(args)}"
                )
            vm_args = [
                c(a, t) for c, a, t in zip(coercers, args, param_types)
            ]
            account.enter_call()
            try:
                return jitted(vm_args, context)
            finally:
                account.exit_call()

        return invoke_one


class JaguarVM:
    """The single, server-lifetime VM instance.

    ``callback_signatures`` declares the server callbacks visible to
    verification; actual handler callables are supplied per UDF (or per
    invocation), because handlers usually close over query state.
    """

    def __init__(
        self,
        callback_signatures: Optional[Dict[str, Signature]] = None,
        use_jit: bool = True,
        policy: QuotaPolicy = DEFAULT_POLICY,
    ):
        if callback_signatures is None:
            from ..core.callbacks import standard_callback_signatures

            callback_signatures = standard_callback_signatures()
        self.callback_signatures = callback_signatures
        self.use_jit = use_jit
        self.policy = policy
        self.system_loader = SystemClassLoader(callback_signatures)
        self._udfs: Dict[str, LoadedUDF] = {}

    def load_udf(
        self,
        name: str,
        classfiles: Sequence[Union[bytes, ClassFile]],
        main_class: Optional[str] = None,
        permissions: Optional[Permissions] = None,
        callbacks: Optional[Dict[str, Callable]] = None,
        fuel: Optional[int] = None,
        memory: Optional[int] = None,
        max_depth: Optional[int] = None,
    ) -> LoadedUDF:
        """Load (decode, verify, link) a UDF into its own namespace.

        ``classfiles`` are admitted in order, so dependencies come first
        and the main class last; ``main_class`` defaults to the last one
        admitted.  Quota arguments of ``None`` inherit the VM's
        :class:`QuotaPolicy`; explicit values derive a per-UDF policy
        without touching anything shared.
        """
        policy = self.policy.with_overrides(
            fuel=fuel, memory=memory, max_depth=max_depth
        )
        if name in self._udfs:
            raise LinkError(f"UDF {name!r} is already loaded")
        if not classfiles:
            raise LinkError(f"UDF {name!r} supplies no classfiles")
        loader = UDFClassLoader(
            udf_name=name,
            parent=self.system_loader,
            callback_signatures=self.callback_signatures,
        )
        admitted = [loader.define_class(source) for source in classfiles]
        if main_class is None:
            main = admitted[-1]
        else:
            main = loader.resolve_class(main_class)
        security = SecurityManager(
            class_name=main.name,
            permissions=permissions if permissions is not None
            else Permissions.none(),
        )
        # Static security pre-check (analyzer rollup from define_class):
        # a class whose bytecode references a callback or native outside
        # the grant is rejected here, at load — not mid-query at its
        # first denied instruction.
        for cls in admitted:
            rollup = getattr(cls, "analysis", None)
            if rollup is not None:
                security.check_static_effects(
                    rollup.callbacks, rollup.natives, where=cls.name
                )
        # Static resource-bound gate (certifier rollup from define_class):
        # a class whose *proven minimum* fuel or heap consumption already
        # exceeds the quota can never complete a single invocation — it
        # would only ever burn its whole budget and die.  Reject it here,
        # with a static:bounds audit trail, instead of at run time.
        for cls in admitted:
            certificates = getattr(cls, "certificates", None)
            if certificates is not None:
                security.check_resource_bounds(
                    certificates, policy.fuel, policy.memory, where=cls.name
                )
        # Static information-flow gate (flow certificates from
        # define_class): a class whose bytecode can move tuple-derived
        # data into a policy-declared sink callback is a confinement
        # breach; reject it here with a static:flows audit trail.
        for cls in admitted:
            flows = getattr(cls, "flows", None)
            if flows is not None:
                security.check_flows(flows, where=cls.name)
        udf = LoadedUDF(
            name=name,
            loader=loader,
            main_class=main,
            security=security,
            callbacks=callbacks or {},
            use_jit=self.use_jit,
            policy=policy,
        )
        self._udfs[name] = udf
        return udf

    def get_udf(self, name: str) -> LoadedUDF:
        try:
            return self._udfs[name]
        except KeyError:
            raise LinkError(f"UDF {name!r} is not loaded") from None

    def unload_udf(self, name: str) -> None:
        """Drop a UDF; its loader, classes, and JIT cache become garbage."""
        self._udfs.pop(name, None)

    @property
    def loaded_udfs(self) -> Dict[str, LoadedUDF]:
        return dict(self._udfs)
