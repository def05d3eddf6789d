"""UDF definitions, signatures, and the registry.

A :class:`UDFDefinition` is everything the server needs to run a UDF:
name, typed signature, language + design (Table 1 coordinates), the
payload (JagScript source / classfile bytes for sandboxed UDFs, a
``module:function`` path for native ones), the callback permissions it
was granted, and optimizer cost hints.

The :class:`UDFRegistry` hands out *executors* (see the per-design
modules).  Executor lifetime follows the paper: in-process executors are
created once per registration and shared; isolated executors are created
once per query ("these executors ... are created once per query, not
once per function invocation") and torn down when the query ends.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import UDFRegistrationError
from ..vm.values import VMType
from .designs import Design

#: SQL-facing type names for UDF parameters/results.  ``handle`` is an
#: integer token for a server-side large object, enabling the callback
#: access pattern (Section 5.5) instead of by-value argument shipping.
PARAM_TYPE_NAMES = ("int", "float", "bool", "str", "bytes", "farr", "handle")

_VM_TYPES = {
    "int": VMType.INT,
    "float": VMType.FLOAT,
    "bool": VMType.BOOL,
    "str": VMType.STR,
    "bytes": VMType.ARR,
    "farr": VMType.FARR,
    "handle": VMType.INT,
    "void": VMType.VOID,
}


@dataclass(frozen=True)
class UDFSignature:
    """Typed signature in SQL-facing terms."""

    param_types: Tuple[str, ...]
    ret_type: str

    def __post_init__(self) -> None:
        for name in self.param_types:
            if name not in PARAM_TYPE_NAMES:
                raise UDFRegistrationError(f"unknown parameter type {name!r}")
        if self.ret_type not in PARAM_TYPE_NAMES:
            raise UDFRegistrationError(f"unknown return type {self.ret_type!r}")

    def vm_param_types(self) -> Tuple[VMType, ...]:
        return tuple(_VM_TYPES[name] for name in self.param_types)

    def vm_ret_type(self) -> VMType:
        return _VM_TYPES[self.ret_type]


@dataclass(frozen=True)
class CostHints:
    """Optimizer hints (Section 5.6: modelling a UDF by its components).

    ``cost_per_call`` is in abstract units relative to a cheap built-in
    predicate (cost 1.0); ``selectivity`` is the expected pass fraction
    when the UDF is used as a predicate.  ``derived`` marks hints the
    static analyzer estimated from bytecode (registration omitted them)
    as opposed to operator-declared figures; EXPLAIN surfaces the
    distinction.
    """

    cost_per_call: float = 1000.0
    selectivity: float = 0.5
    derived: bool = False

    @property
    def rank(self) -> float:
        """Hellerstein's predicate rank: lower runs earlier."""
        return (self.selectivity - 1.0) / self.cost_per_call


@dataclass
class UDFDefinition:
    """A registered UDF.

    ``cost`` of ``None`` means the registration declared no hints; the
    registry fills it with analyzer-derived estimates for sandboxed
    designs (native code cannot be analyzed and falls back to defaults).
    ``analysis`` holds the entry function's static summary
    (:class:`~repro.analysis.effects.FunctionSummary`) once validated;
    ``certificate`` its resource certificate
    (:class:`~repro.analysis.bounds.ResourceCertificate`), when the
    bounds pass could prove anything; ``inline`` its decompilation
    result (:class:`~repro.analysis.decompile.InlineTemplate` when the
    body lifted to a SQL expression, else an
    :class:`~repro.analysis.decompile.InlineRefusal`); ``flows`` its
    information-flow certificate
    (:class:`~repro.analysis.flows.FlowCertificate`), which gates the
    executors' copy-elision/arena fast paths and the optimizer's
    trap-guard elision.
    """

    name: str
    signature: UDFSignature
    design: Design
    payload: bytes
    entry: str
    callbacks: Tuple[str, ...] = ()
    cost: Optional[CostHints] = None
    fuel: Optional[int] = None
    memory: Optional[int] = None
    analysis: Optional[object] = field(default=None, compare=False)
    certificate: Optional[object] = field(default=None, compare=False)
    inline: Optional[object] = field(default=None, compare=False)
    flows: Optional[object] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise UDFRegistrationError(f"bad UDF name {self.name!r}")
        if not self.entry:
            raise UDFRegistrationError("UDF entry point must be non-empty")

    @property
    def language(self) -> str:
        return self.design.language

    @property
    def cost_hints(self) -> CostHints:
        """Declared or derived hints, defaulting when neither exists."""
        return self.cost if self.cost is not None else CostHints()

    @property
    def is_pure(self) -> bool:
        """Statically proven pure: safe to fold and memoize.

        Only sandboxed UDFs carry a summary; native UDFs are opaque host
        code and are never treated as pure.
        """
        summary = self.analysis
        return bool(summary is not None and getattr(summary, "pure", False))


def resolve_native_payload(payload: bytes) -> Callable:
    """Resolve a native UDF payload ``module:function`` to its callable.

    Native UDFs are host-language code living in the server's import
    path — the analog of C++ UDFs compiled against the server.  The
    server operator controls that path; this is exactly the trust the
    paper assigns to Design 1/2 code.
    """
    text = payload.decode("utf-8")
    module_name, sep, func_name = text.partition(":")
    if not sep or not module_name or not func_name:
        raise UDFRegistrationError(
            f"native payload must be 'module:function', got {text!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise UDFRegistrationError(
            f"cannot import native UDF module {module_name!r}: {exc}"
        ) from None
    func = getattr(module, func_name, None)
    if not callable(func):
        raise UDFRegistrationError(
            f"{module_name}.{func_name} is not a callable"
        )
    return func


def _admit_inline(definition: UDFDefinition, inline: Optional[object]):
    """Vet the decompiler's template against the SQL-facing signature.

    The decompiler reasons in VM types; registration adds the SQL view.
    ``handle`` parameters reach the VM as plain ints, but the call path
    *mints* each handle against the query's callback binding — a side
    effect inlining would skip — so handle-taking templates downgrade to
    a refusal.  Native designs (no probe result) are opaque host code.
    """
    from ..analysis.decompile import (
        REASON_IMPURE,
        REASON_UNSUPPORTED,
        InlineRefusal,
        InlineTemplate,
    )

    if inline is None:
        return InlineRefusal(
            definition.name, REASON_IMPURE, "opaque native host code"
        )
    if (isinstance(inline, InlineTemplate)
            and "handle" in definition.signature.param_types):
        return InlineRefusal(
            definition.name, REASON_UNSUPPORTED,
            "handle parameter (handle minting is a call-path effect)",
        )
    return inline


class UDFRegistry:
    """Name -> definition map with executor construction.

    The registry is wired to a server environment (VM instance, callback
    broker, LOB manager) by the owning :class:`~repro.database.Database`;
    the per-design executor modules pull what they need from it.
    """

    def __init__(self, environment: "ServerEnvironment"):
        self.environment = environment
        #: Bumped by every register/unregister; part of the plan-cache
        #: fingerprint.  Optimized plans embed a UDF's folded constants,
        #: inlined body and cost, so no plan cached before the change
        #: may be served after it — persisted UDF or not.
        self.epoch = 0
        self._definitions: Dict[str, UDFDefinition] = {}
        self._shared_executors: Dict[str, object] = {}

    def register(self, definition: UDFDefinition) -> None:
        key = definition.name.lower()
        if key in self._definitions:
            raise UDFRegistrationError(
                f"UDF {definition.name!r} is already registered"
            )
        # Validate eagerly: a bad payload should fail at CREATE FUNCTION
        # time, not mid-query.  For sandboxed designs validation also
        # returns the entry point's static effect summary, from which
        # cost hints are derived when the registration declared none.
        from .factory import validate_definition

        probe = validate_definition(definition, self.environment)
        try:
            summary, certificate, inline, flows = (
                probe if probe is not None else (None, None, None, None)
            )
            definition.analysis = summary
            definition.certificate = certificate
            definition.inline = _admit_inline(definition, inline)
            definition.flows = flows
            if definition.cost is None and summary is not None:
                from ..analysis.costs import derive_cost_hints

                definition.cost = derive_cost_hints(summary, certificate)
        except Exception:
            # Validation left the program loaded; a refused registration
            # must leave nothing behind.
            self.environment.vm.unload_udf(key)
            raise
        self._definitions[key] = definition
        self.epoch += 1

    def unregister(self, name: str) -> None:
        key = name.lower()
        self._definitions.pop(key, None)
        executor = self._shared_executors.pop(key, None)
        if executor is not None:
            executor.close()
        self.environment.vm.unload_udf(key)
        self.epoch += 1

    def get(self, name: str) -> UDFDefinition:
        try:
            return self._definitions[name.lower()]
        except KeyError:
            raise UDFRegistrationError(f"unknown UDF {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._definitions

    def names(self) -> List[str]:
        return sorted(d.name for d in self._definitions.values())

    def executor_for_query(self, name: str, private: bool = False):
        """An executor for one query's worth of invocations.

        In-process designs share one executor per registration (created
        lazily); isolated designs get a fresh remote process per query,
        as in the paper's implementation.

        ``private=True`` gives even in-process designs a fresh executor
        object: the shared ones carry per-query mutable state (context,
        owner thread, profile handle), so statements running
        *concurrently* — the server's snapshot reads — must not
        share them.  Construction is cheap: every sandboxed executor,
        shared, private or isolated, runs the one program the
        registration loaded, and only ``unregister`` unloads it.
        """
        definition = self.get(name)
        from .factory import make_executor

        if definition.design.is_isolated or private:
            return make_executor(definition, self.environment)
        key = definition.name.lower()
        executor = self._shared_executors.get(key)
        if executor is None:
            executor = make_executor(definition, self.environment)
            self._shared_executors[key] = executor
        return executor

    def close(self) -> None:
        for executor in self._shared_executors.values():
            executor.close()
        self._shared_executors.clear()


@dataclass
class ServerEnvironment:
    """What executors may touch in the server (dependency injection)."""

    vm: "object"                 # repro.vm.machine.JaguarVM
    broker: "object"             # repro.core.callbacks.CallbackBroker
    lobs: Optional[object] = None  # repro.storage.lob.LOBManager
    #: repro.vm.threadgroups.ThreadGroupRegistry — sandbox executors
    #: adopt their per-query accounts into the UDF's group so a DBA can
    #: revoke a runaway UDF mid-query (Section 6.1's thread groups).
    thread_groups: Optional[object] = None
    #: Executor batch size (rows per operator batch / ``invoke_batch``
    #: call).  Isolated executors also use it to pre-size their shared
    #: memory buffer for one batch per round trip.
    batch_size: int = 64
    #: Worker fan-out for UDF execution.  Isolated executors spawn this
    #: many worker processes per query (a :class:`WorkerPool` shards
    #: ``invoke_batch`` across them); the planner inserts Exchange
    #: operators at the same width.  1 (the default) reproduces exact
    #: serial semantics — one worker, no Exchange, seed-identical plans.
    parallelism: int = 1
    #: Tiered execution (``Database(tiering=True)``): hot sandboxed UDFs
    #: are promoted to type-specialized whole-batch kernels once their
    #: observed call count crosses ``tier1_threshold``.  Off by default:
    #: every executor takes its tier-0 (seed) code paths untouched.
    tiering: bool = False
    tier1_threshold: int = 128
