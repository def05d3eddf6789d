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
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import UDFInvocationError, UDFRegistrationError
from ..types import TYPES, SQLType
from ..vm.values import VMType
from .designs import Design

@dataclass(frozen=True)
class UDFSignature:
    """Typed signature: the parameter and result :class:`SQLType` of a
    UDF.  Each may be given as any spelling of a type with a UDF name
    (the catalog, the client and the wire give its UDF name, ``"str"``);
    ``handle`` is an integer token for a server-side large object,
    enabling the callback access pattern (Section 5.5) instead of
    by-value argument shipping."""

    param_types: Tuple[SQLType, ...]
    ret_type: SQLType

    def __post_init__(self) -> None:
        params = tuple(_udf_type(t, "parameter") for t in self.param_types)
        object.__setattr__(self, "param_types", params)
        object.__setattr__(self, "ret_type",
                           _udf_type(self.ret_type, "return"))

    @property
    def names(self) -> Tuple[List[str], str]:
        """``(parameter names, result name)`` as the catalog persists them."""
        return ([t.row.udf_name for t in self.param_types],
                self.ret_type.row.udf_name)

    def vm_param_types(self) -> Tuple[VMType, ...]:
        return tuple(t.row.vm_type for t in self.param_types)

    def vm_ret_type(self) -> VMType:
        return self.ret_type.row.vm_type


def _udf_type(name, role: str) -> SQLType:
    try:
        sql_type = SQLType(name)
    except ValueError:
        sql_type = None
    if sql_type is None or sql_type.row.udf_name is None:
        raise UDFRegistrationError(f"unknown {role} type {name!r}")
    return sql_type


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
    ``inline`` its decompilation result
    (:class:`~repro.analysis.decompile.InlineTemplate` when the body
    lifted to a SQL expression, else an
    :class:`~repro.analysis.decompile.InlineRefusal`).  The resource and
    flow certificates stay on the loaded entry function, their one
    holder (the cost oracle's ``udf_entry``).
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
    inline: Optional[object] = field(default=None, compare=False)

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


def takes_ctx(func: Callable) -> bool:
    """Whether a native payload's first parameter is named ``ctx``: it
    then gets its design's callback context before the SQL arguments."""
    code = getattr(func, "__code__", None)
    return bool(code is not None and code.co_argcount > 0
                and code.co_varnames[0] == "ctx")


class NativeUDFContext:
    """The ``ctx`` a native UDF gets: ``callback(name, *args)`` goes to
    its design's callback channel, the query's broker binding in
    process or the shm port in an isolated worker.

    Deliberately *not* a security boundary: Designs 1 and 2 trust the
    UDF.  It is a convenience handle for callbacks, matching how a C++
    UDF would simply call into server functions.
    """

    __slots__ = ("callback",)

    def __init__(self, channel):
        #: ``callback(name, *args)``: the channel's own ``invoke``,
        #: called with no frame of this context's in between.
        self.callback = channel.invoke


def native_batch(func: Callable, ctx: object) -> Callable:
    """The one batch routine of every native design (integrated, SFI and
    the isolated worker): a list of argument tuples in, their results
    out, in order.  ``ctx`` is the design's callback context, passed
    first to a payload that :func:`takes_ctx`."""
    if takes_ctx(func):
        return lambda rows: [func(ctx, *args) for args in rows]
    return lambda rows: [func(*args) for args in rows]


def conform_results(name: str, ret: SQLType, values: Sequence) -> list:
    """``values``, a batch of UDF ``name``'s results, each conformed to
    its ``RETURNS`` type ``ret`` (:meth:`~repro.types.TypeRow.conform`),
    NULLs kept; the first that is no value of it raises
    :class:`~repro.errors.UDFInvocationError` naming the UDF.  The call
    site and the isolated worker both check results through it, so every
    design refuses a result with the same message."""
    row = TYPES[ret]
    checked = []
    for value in values:
        if value is not None:
            try:
                value = row.conform(value)
            except ValueError as exc:
                raise UDFInvocationError(
                    f"UDF {name!r} returned a value outside its declared "
                    f"type {row.name}: {exc}"
                ) from None
        checked.append(value)
    return checked


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
            and SQLType.HANDLE in definition.signature.param_types):
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
            summary, certificate, inline = (
                probe if probe is not None else (None, None, None)
            )
            definition.analysis = summary
            definition.inline = _admit_inline(definition, inline)
            if definition.cost is None and summary is not None:
                from ..analysis.costs import derive_cost_hints

                definition.cost = derive_cost_hints(summary, certificate)
        except Exception:
            # Validation left the program loaded; a refused registration
            # must leave nothing behind.
            self.environment.vm.unload_udf(key)
            raise
        self._definitions[key] = definition
        self._changed()

    def unregister(self, name: str) -> None:
        key = name.lower()
        self._definitions.pop(key, None)
        executor = self._shared_executors.pop(key, None)
        if executor is not None:
            executor.close()
        self.environment.vm.unload_udf(key)
        self._changed()

    def _changed(self) -> None:
        self.epoch += 1
        # The isolated designs' zygote holds the programs and modules of
        # the epoch it was forked in.
        self.environment.retire_zygote()

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
    #: call).
    batch_size: int = 64
    #: Isolated worker-pool width, nothing else: an isolated executor
    #: starts this many worker processes per query and shards
    #: ``invoke_batch`` across them (one for a UDF with callbacks).  Plans
    #: and in-process designs do not read it; 1 (the default) is one
    #: worker per isolated UDF per query, as in the paper.
    parallelism: int = 1

    def __post_init__(self) -> None:
        self._zygote = None
        self._zygote_lock = threading.Lock()

    @property
    def zygote(self):
        """The template process that forks the isolated designs'
        executors (:class:`repro.core.isolated.Zygote`), so the server
        forks once per registry epoch, not once per query.  Made at the
        first isolated statement: a server that runs none never imports
        the isolated designs."""
        with self._zygote_lock:
            if self._zygote is None:
                from .isolated import Zygote

                self._zygote = Zygote()
            return self._zygote

    def retire_zygote(self) -> None:
        """The registry changed: the zygote's programs are stale."""
        if self._zygote is not None:
            self._zygote.retire()

    def close(self) -> None:
        """Reap the zygote; call once no statement runs any more."""
        if self._zygote is not None:
            self._zygote.close()
