"""Executor interface and per-design construction.

``make_executor`` is the single switch over Table 1: it maps a
:class:`~repro.core.udf.UDFDefinition` to the executor implementing its
design.  ``validate_definition`` runs the load-time checks (compile /
verify / import) so registration fails fast.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from ..errors import UDFRegistrationError
from .callbacks import CallbackBinding
from .designs import Design
from .udf import ServerEnvironment, UDFDefinition, resolve_native_payload


class UDFExecutor(abc.ABC):
    """Runs invocations of one UDF for one query at a time.

    Lifecycle::

        executor = registry.executor_for_query(name)
        executor.begin_query(binding)
        for tuple in ...:
            executor.invoke(args)
        executor.end_query()      # isolated designs tear down here

    ``close`` releases everything (shared executors are closed when the
    registry shuts down).
    """

    #: Per-query :class:`~repro.obs.profile.UDFProfile`, attached by the
    #: statement executor's UDF resolver when observability collects and
    #: reset to ``None`` at query teardown.  A class attribute, so the
    #: default (off) costs executors neither per-instance state nor any
    #: hot-path work beyond one ``is None`` test per batch.
    profile = None

    def __init__(self, definition: UDFDefinition, env: ServerEnvironment):
        self.definition = definition
        self.env = env
        self.binding: Optional[CallbackBinding] = None

    @property
    def design(self) -> Design:
        return self.definition.design

    def begin_query(self, binding: Optional[CallbackBinding] = None) -> None:
        self.binding = binding if binding is not None else self.env.broker.bind()

    @abc.abstractmethod
    def invoke(self, args: Sequence[object]) -> object:
        """Run the UDF once.  ``args`` are SQL values."""

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """Run the UDF once per argument tuple, in order.

        The batch boundary is where each design amortizes its fixed
        per-invocation costs (guard setup, VM entry, shm round-trips);
        this default is the semantic contract the overrides must match —
        one result per argument tuple, same order, first failure
        propagates.
        """
        return [self.invoke(args) for args in args_list]

    def end_query(self) -> None:
        self.binding = None

    def close(self) -> None:
        self.end_query()

    def __enter__(self) -> "UDFExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_executor(
    definition: UDFDefinition, env: ServerEnvironment
) -> UDFExecutor:
    """Build the executor implementing ``definition.design``."""
    from .integrated import NativeIntegratedExecutor
    from .isolated import RemoteExecutor
    from .sandbox import SandboxExecutor
    from .sfi import SFIExecutor

    design = definition.design
    # Isolated designs get a WorkerPool of ``env.parallelism`` executor
    # processes; everything else runs in-process and parallelizes (when
    # safe) across Exchange threads instead.
    parallelism = getattr(env, "parallelism", 1)
    if design is Design.NATIVE_INTEGRATED:
        return NativeIntegratedExecutor(definition, env)
    if design is Design.NATIVE_SFI:
        return SFIExecutor(definition, env)
    if design is Design.NATIVE_ISOLATED:
        return RemoteExecutor(definition, env, parallelism=parallelism)
    if design is Design.SANDBOX_JIT:
        return SandboxExecutor(definition, env, use_jit=True)
    if design is Design.SANDBOX_INTERP:
        return SandboxExecutor(definition, env, use_jit=False)
    if design is Design.SANDBOX_ISOLATED:
        return RemoteExecutor(definition, env, parallelism=parallelism)
    raise UDFRegistrationError(f"no executor for design {design}")


def validate_definition(
    definition: UDFDefinition, env: ServerEnvironment
) -> Optional[object]:
    """Registration-time checks: fail at CREATE FUNCTION, not mid-query.

    For sandboxed designs, returns a ``(summary, certificate, inline,
    flows)`` tuple — the entry function's static effect summary
    (``repro.analysis.effects.FunctionSummary``), resource certificate
    (``repro.analysis.bounds.ResourceCertificate``), decompilation
    result (``repro.analysis.decompile.InlineTemplate`` or
    ``InlineRefusal``), and flow certificate
    (``repro.analysis.flows.FlowCertificate``); native designs are
    opaque host code and return ``None``.
    """
    if definition.design.is_sandboxed:
        from .sandbox import load_sandbox_payload

        # Compile + verify + static analysis (+ JIT) happen here, once;
        # a malformed or unsafe classfile never reaches the catalog, and
        # a classfile whose inferred effects exceed its callback grant is
        # rejected by the security manager's load-time pre-check.  The
        # program stays loaded: every query of this UDF runs it.
        loaded = load_sandbox_payload(definition, env)
        func = loaded.main_class.functions[definition.entry]
        return (
            getattr(func, "summary", None),
            getattr(func, "certificate", None),
            getattr(func, "inline", None),
            getattr(func, "flows", None),
        )
    else:
        func = resolve_native_payload(definition.payload)
        nparams = len(definition.signature.param_types)
        code = getattr(func, "__code__", None)
        if code is not None:
            declared = code.co_argcount
            takes_ctx = declared > 0 and code.co_varnames[0] == "ctx"
            expected = nparams + (1 if takes_ctx else 0)
            if declared != expected:
                raise UDFRegistrationError(
                    f"native UDF {definition.name!r} declares {declared} "
                    f"parameters, signature has {nparams}"
                )
