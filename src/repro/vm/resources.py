"""Resource accounting for sandboxed code (the J-Kernel analog).

Section 6.2 of the paper identifies resource management as the missing
piece of 1998 JVM security: "UDFs can currently consume as much CPU time
and memory as they desire", and points at the Cornell J-Kernel project's
plan to instrument bytecode so resources "can be monitored and policed.
Such mechanisms will be essential in database systems."

JaguarVM builds that mechanism in:

* **Fuel** meters CPU: the interpreter charges one unit per instruction;
  the JIT charges per basic block (the exact instrument-the-code strategy
  J-Kernel proposed).  When fuel reaches zero the UDF dies with
  :class:`~repro.errors.FuelExhausted` and the server thread continues.
* **Memory** meters allocations: every NEWARR / NEWFARR / SCONCAT / ACOPY
  / SSUB charges the bytes it materializes.  Exceeding the quota raises
  :class:`~repro.errors.MemoryQuotaExceeded`.
* **Call depth** bounds the host stack so recursive sandboxed code cannot
  overflow the server's own stack.

Accounts are also *revocable*: the owner of a thread group can call
:meth:`ResourceAccount.revoke` and every UDF charged to the account dies
at its next check, which is how thread-group termination is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import (
    AccountRevoked,
    FuelExhausted,
    MemoryQuotaExceeded,
    StackOverflowFault,
)

#: Defaults are generous for benchmark UDFs yet small enough that a
#: runaway loop dies in well under a second.
DEFAULT_FUEL = 500_000_000
DEFAULT_MEMORY = 64 * 1024 * 1024
DEFAULT_MAX_DEPTH = 256


@dataclass(frozen=True)
class QuotaPolicy:
    """The quota configuration of one VM / session / registration.

    Historically the defaults above were read straight off the module at
    every call site, so a per-session override meant mutating globals.
    A policy object threads through instead: the VM holds one, sessions
    and registrations derive narrowed copies with :meth:`with_overrides`,
    and nothing global ever changes.
    """

    fuel: int = DEFAULT_FUEL
    memory: int = DEFAULT_MEMORY
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self) -> None:
        if self.fuel <= 0 or self.memory <= 0 or self.max_depth <= 0:
            raise ValueError("quota policy values must be positive")

    def with_overrides(
        self,
        fuel: Optional[int] = None,
        memory: Optional[int] = None,
        max_depth: Optional[int] = None,
    ) -> "QuotaPolicy":
        """A derived policy; ``None`` keeps the current value."""
        return replace(
            self,
            fuel=fuel if fuel is not None else self.fuel,
            memory=memory if memory is not None else self.memory,
            max_depth=max_depth if max_depth is not None else self.max_depth,
        )

    def account(self) -> "ResourceAccount":
        """A fresh account funded to this policy's quotas."""
        return ResourceAccount(
            fuel=self.fuel, memory=self.memory, max_depth=self.max_depth
        )


#: The process-wide default policy (immutable; derive, don't mutate).
DEFAULT_POLICY = QuotaPolicy()


class ResourceAccount:
    """Mutable quota state charged by one UDF invocation (or a group).

    The interpreter and JIT mutate :attr:`fuel` directly on their hot
    paths (attribute access is the cheapest instrumentation available in
    Python); everything else goes through methods.
    """

    __slots__ = ("fuel", "memory", "depth", "max_depth", "revoked",
                 "fuel_limit", "memory_limit", "fuel_folded",
                 "memory_folded")

    def __init__(
        self,
        fuel: int = DEFAULT_FUEL,
        memory: int = DEFAULT_MEMORY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        if fuel <= 0:
            raise ValueError("fuel quota must be positive")
        if memory <= 0:
            raise ValueError("memory quota must be positive")
        if max_depth <= 0:
            raise ValueError("max call depth must be positive")
        self.fuel = fuel
        self.fuel_limit = fuel
        self.memory = memory
        self.memory_limit = memory
        self.depth = 0
        self.max_depth = max_depth
        self.revoked = False
        #: What the windows closed by :meth:`reset` were charged (see
        #: :attr:`charged`).
        self.fuel_folded = 0
        self.memory_folded = 0

    # -- CPU ---------------------------------------------------------------

    def charge_fuel(self, units: int) -> None:
        """Charge ``units`` instructions; raise when the quota is gone."""
        self.fuel -= units
        if self.fuel < 0 or self.revoked:
            self.out_of_fuel()

    def out_of_fuel(self) -> None:
        """Raise the error for an empty (or revoked) fuel tank."""
        if self.revoked:
            raise AccountRevoked("execution revoked by thread-group owner")
        raise FuelExhausted(
            f"instruction quota of {self.fuel_limit} exhausted"
        )

    # -- memory --------------------------------------------------------------

    def charge_memory(self, nbytes: int) -> None:
        """Charge an allocation of ``nbytes``; raise when over quota."""
        if nbytes < 0:
            raise MemoryQuotaExceeded("negative allocation size")
        self.memory -= nbytes
        if self.memory < 0:
            raise MemoryQuotaExceeded(
                f"allocation quota of {self.memory_limit} bytes exhausted"
            )

    def release_memory(self, nbytes: int) -> None:
        """Return bytes to the account (used when the VM frees eagerly)."""
        self.memory = min(self.memory + nbytes, self.memory_limit)

    # -- call depth -------------------------------------------------------------

    def enter_call(self) -> None:
        self.depth += 1
        if self.depth > self.max_depth:
            raise StackOverflowFault(
                f"call depth exceeded limit of {self.max_depth}"
            )

    def exit_call(self) -> None:
        self.depth -= 1

    def reset(self) -> None:
        """Refill both quotas for a new invocation (revocation sticks).

        Executors reuse one account across a query's invocations; the
        quota is per *invocation*, so the account is refilled between
        tuples.  What the closing window was charged is folded into
        :attr:`charged` first.
        """
        if not self.revoked:
            self.fuel_folded += self.fuel_limit - self.fuel
            self.memory_folded += self.memory_limit - self.memory
            self.fuel = self.fuel_limit
            self.memory = self.memory_limit

    # -- revocation ----------------------------------------------------------------

    def revoke(self) -> None:
        """Asynchronously terminate whatever is charging this account.

        Safe to call from another thread: the running code observes it at
        its next fuel check (at most one basic block away).
        """
        self.revoked = True
        self.fuel = -1

    # -- reporting -------------------------------------------------------------------

    @property
    def fuel_used(self) -> int:
        return self.fuel_limit - max(self.fuel, 0)

    @property
    def memory_used(self) -> int:
        return self.memory_limit - max(self.memory, 0)

    @property
    def charged(self) -> tuple:
        """``(fuel, heap)`` charged over the account's life: every window
        :meth:`reset` closed plus the open one.  Whatever path ran the
        calls (per-call resets, elided resets, a batch kernel's prepay),
        this is what they were charged; heap is net of the arena's
        refunds."""
        return (self.fuel_folded + self.fuel_limit - self.fuel,
                self.memory_folded + self.memory_limit - self.memory)

    def snapshot(self) -> dict:
        """Usage report for auditing (the paper laments JVMs lack this)."""
        return {
            "fuel_limit": self.fuel_limit,
            "fuel_used": self.fuel_used,
            "memory_limit": self.memory_limit,
            "memory_used": self.memory_used,
            "depth": self.depth,
            "revoked": self.revoked,
        }


def unmetered_account() -> ResourceAccount:
    """An effectively unlimited account, for trusted internal uses."""
    return ResourceAccount(fuel=2 ** 62, memory=2 ** 62, max_depth=10_000)
