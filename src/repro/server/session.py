"""Per-connection session state and authorization.

The paper's deployment scenario (Section 1) is "a large number of ...
users in a web environment ... unknown or untrusted clients".  The
session's authorization policy encodes the consequence: an untrusted
session may only register UDFs in designs that contain them — the
sandboxed ones, plus the isolated-process design.  Native *integrated*
code (Design 1) "essentially corresponds to hard-coding the UDF into the
server" and is reserved for trusted sessions (the DBA / third-party
vendor path of Section 2.2).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from ..core.designs import Design
from ..errors import AuthError
from ..vm.resources import QuotaPolicy

#: Designs any (untrusted, web-style) client may use.
UNTRUSTED_DESIGNS: FrozenSet[Design] = frozenset(
    {
        Design.SANDBOX_JIT,
        Design.SANDBOX_INTERP,
        Design.SANDBOX_ISOLATED,
        Design.NATIVE_ISOLATED,
    }
)

_session_ids = itertools.count(1)


@dataclass
class Session:
    """State for one connected client."""

    peer: str
    trusted: bool = False
    session_id: int = field(default_factory=lambda: next(_session_ids))
    statements: int = 0
    udfs_registered: int = 0
    #: Optional per-session quota override: UDFs registered through this
    #: session are capped to this policy instead of the server-wide
    #: default.  A derived :class:`QuotaPolicy` object — never a mutated
    #: global — so two sessions with different caps coexist safely.
    policy: Optional[QuotaPolicy] = None
    #: Admission-control identity.  Clients may declare a tenant name in
    #: their HELLO; undeclared sessions each form a tenant of their own
    #: (``session-<id>``), so per-tenant budgets degrade to per-session.
    tenant: Optional[str] = None
    #: Guards the counters above: the server touches one
    #: session from multiple worker threads.
    _counter_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def tenant_name(self) -> str:
        return self.tenant or f"session-{self.session_id}"

    def note_statement(self) -> int:
        with self._counter_lock:
            self.statements += 1
            return self.statements

    def note_udf_registered(self) -> int:
        with self._counter_lock:
            self.udfs_registered += 1
            return self.udfs_registered

    def check_design_allowed(self, design: Design) -> None:
        if self.trusted or design in UNTRUSTED_DESIGNS:
            return
        raise AuthError(
            f"session {self.session_id} ({self.peer}) is not authorized "
            f"to register {design.paper_label!r} UDFs; untrusted clients "
            f"may use: "
            + ", ".join(sorted(d.paper_label for d in UNTRUSTED_DESIGNS))
        )
