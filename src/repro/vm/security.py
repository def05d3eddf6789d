"""JaguarVM security manager.

The run-time half of the sandbox (Section 6.1): every interaction between
sandboxed code and its environment — callbacks to the database server,
native stdlib calls, thread creation — is interposed by a
:class:`SecurityManager` holding an explicit :class:`Permissions` set.
Following the least-privilege principle the paper cites ([SS75]), a UDF
gets exactly the callbacks its registration granted and nothing else.

Unlike the 1998 JVM, the manager also keeps an **audit log**: the paper
complains that "if the security restrictions are violated, there is no
mechanism to trace the responsible UDF classes", so every denial and every
load-time (``static:*``) verdict is recorded with the responsible class
name.  An allowed run-time callback is recorded once per callback name:
the log shows which granted callbacks the class has used, and stays
bounded by the grant plus the denials however many queries run.  How
often each callback was crossed is counted per query, by the query's
:class:`~repro.core.callbacks.CallbackBinding` (``invocations``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from ..errors import SecurityViolation
from .values import VMType

Signature = Tuple[Tuple[VMType, ...], VMType]


@dataclass(frozen=True)
class Permissions:
    """Least-privilege grant for one UDF.

    ``callbacks`` names the server callbacks the UDF may invoke; every
    other callback is denied even if the server exposes it.  ``natives``
    of ``None`` grants the whole (trusted, side-effect-free) stdlib, which
    is the common case; pass a frozenset to restrict further.
    """

    callbacks: FrozenSet[str] = frozenset()
    natives: Optional[FrozenSet[str]] = None
    may_spawn_threads: bool = False
    #: Granted callbacks whose arguments leave the confinement boundary
    #: (logging, tracing).  A sink grant means the UDF may *invoke* the
    #: callback, but the flow certifier must prove no tuple-derived
    #: value reaches its arguments; otherwise the load is refused.
    sinks: FrozenSet[str] = frozenset()

    @staticmethod
    def none() -> "Permissions":
        """The default: pure computation only."""
        return Permissions()

    @staticmethod
    def with_callbacks(*names: str) -> "Permissions":
        return Permissions(callbacks=frozenset(names))


@dataclass
class AuditRecord:
    """One security-relevant event, attributable to a class."""

    timestamp: float
    class_name: str
    action: str
    target: str
    allowed: bool


@dataclass
class SecurityManager:
    """Checks every sensitive action of one sandboxed principal.

    A manager is created per UDF registration and shared by all of that
    UDF's invocations.  Its audit log holds every denial and load-time
    verdict of the UDF's whole history, giving the traceability the
    paper found missing, plus the first allowed crossing of each
    callback name; later allowed crossings are counted per query by the
    callback binding instead of logged.
    """

    class_name: str
    permissions: Permissions = field(default_factory=Permissions.none)
    audit_log: List[AuditRecord] = field(default_factory=list)
    allow_all: bool = False
    #: Callback names whose first allowed crossing is already logged.
    _crossed: Set[str] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def _record(self, action: str, target: str, allowed: bool) -> None:
        self.audit_log.append(
            AuditRecord(time.time(), self.class_name, action, target, allowed)
        )

    def check_callback(self, name: str) -> None:
        """Gate a CALLBACK instruction; raises on denial.

        Every denial is logged; an allowed crossing only the first time
        this manager allows ``name``.
        """
        if self.allow_all or name in self.permissions.callbacks:
            if name not in self._crossed:
                self._crossed.add(name)
                self._record("callback", name, True)
            return
        self._record("callback", name, False)
        raise SecurityViolation(
            f"UDF class {self.class_name!r} is not permitted to invoke "
            f"callback {name!r}"
        )

    def check_native(self, name: str) -> None:
        """Gate a NATIVE instruction; raises on denial."""
        natives = self.permissions.natives
        allowed = self.allow_all or natives is None or name in natives
        if not allowed:
            # Allowed native calls are too hot (and too boring) to log;
            # denials always are.
            self._record("native", name, False)
            raise SecurityViolation(
                f"UDF class {self.class_name!r} is not permitted to call "
                f"native {name!r}"
            )

    def check_spawn_thread(self) -> None:
        allowed = self.allow_all or self.permissions.may_spawn_threads
        self._record("spawn_thread", "", allowed)
        if not allowed:
            raise SecurityViolation(
                f"UDF class {self.class_name!r} may not spawn threads"
            )

    def check_static_effects(
        self,
        callbacks: FrozenSet[str],
        natives: FrozenSet[str] = frozenset(),
        where: Optional[str] = None,
    ) -> None:
        """Load-time gate over a class's *statically inferred* effect set.

        The analyzer (``repro.analysis``) knows, before a UDF ever runs,
        every callback and native its bytecode can reach; this check
        rejects the class at load when that set exceeds the permissions,
        instead of faulting mid-query on the first denied instruction.
        The run-time checks stay in place as defense in depth.
        """
        subject = where or self.class_name
        for name in sorted(callbacks):
            allowed = self.allow_all or name in self.permissions.callbacks
            self._record("static:callback", name, allowed)
            if not allowed:
                raise SecurityViolation(
                    f"UDF class {subject!r}: bytecode references callback "
                    f"{name!r} outside its permissions; rejected at load"
                )
        granted_natives = self.permissions.natives
        for name in sorted(natives):
            allowed = (
                self.allow_all
                or granted_natives is None
                or name in granted_natives
            )
            if not allowed:
                self._record("static:native", name, False)
                raise SecurityViolation(
                    f"UDF class {subject!r}: bytecode references native "
                    f"{name!r} outside its permissions; rejected at load"
                )

    def check_resource_bounds(
        self,
        certificates,
        fuel: int,
        memory: int,
        where: Optional[str] = None,
    ) -> None:
        """Load-time gate over *proven minimum* resource consumption.

        ``certificates`` is an ``analysis.bounds.ClassCertificates``
        rollup.  A function whose certified minimum fuel or heap already
        exceeds the account quota can never complete successfully — every
        run would die on FuelExhausted/MemoryQuotaExceeded after burning
        its whole budget.  Rejecting it at CREATE FUNCTION turns that
        guaranteed runtime death into a load failure the owner sees
        immediately (and the audit log records as ``static:bounds``).
        """
        subject = where or self.class_name
        for name in sorted(certificates.functions):
            cert = certificates.functions[name]
            over_fuel = not self.allow_all and cert.min_fuel > fuel
            over_mem = not self.allow_all and cert.min_memory > memory
            allowed = not (over_fuel or over_mem)
            self._record(
                "static:bounds",
                f"{name}: min_fuel={cert.min_fuel} min_mem={cert.min_memory}",
                allowed,
            )
            if over_fuel:
                raise SecurityViolation(
                    f"UDF class {subject!r}: function {name!r} provably "
                    f"consumes ≥ {cert.min_fuel} fuel but the quota is "
                    f"{fuel}; rejected at load"
                )
            if over_mem:
                raise SecurityViolation(
                    f"UDF class {subject!r}: function {name!r} provably "
                    f"allocates ≥ {cert.min_memory} bytes but the quota "
                    f"is {memory}; rejected at load"
                )

    def check_flows(
        self,
        flows,
        where: Optional[str] = None,
    ) -> None:
        """Load-time gate over *statically proven* information flows.

        ``flows`` is an ``analysis.flows.ClassFlows`` rollup.  For every
        callback the policy declares an egress *sink* (see
        ``Permissions.sinks``), the flow certificates name exactly which
        taint labels — ``arg{i}`` for tuple-derived parameters, ``cb:*``
        for server/LOB-derived callback results — can reach each call
        argument.  Any tainted label reaching a sink means the UDF could
        smuggle database contents past the confinement boundary, so the
        class is rejected at load with a ``static:flows`` audit entry.
        Clean sink invocations (constant arguments only) are allowed and
        recorded as such.
        """
        subject = where or self.class_name
        sinks = self.permissions.sinks
        for name in sorted(flows.functions):
            cert = flows.functions[name]
            for flow in cert.callback_flows:
                if flow.callback not in sinks:
                    continue
                tainted = flow.tainted
                allowed = self.allow_all or not tainted
                self._record(
                    "static:flows",
                    f"{name}: {flow.callback}@{flow.pc} <- "
                    f"{{{', '.join(tainted)}}}",
                    allowed,
                )
                if not allowed:
                    raise SecurityViolation(
                        f"UDF class {subject!r}: function {name!r} passes "
                        f"tuple-derived data ({', '.join(tainted)}) to sink "
                        f"callback {flow.callback!r}; rejected at load"
                    )

    def denials(self) -> List[AuditRecord]:
        """All denied actions, for the DBA's forensic queries."""
        return [r for r in self.audit_log if not r.allowed]


def open_manager(class_name: str = "<trusted>") -> SecurityManager:
    """A manager that allows everything; for trusted internal code paths."""
    return SecurityManager(class_name=class_name, allow_all=True)
