"""Per-UDF thread groups (Section 6.1).

"Each UDF is executed within its own thread group, preventing it from
affecting the threads executing other UDFs."

A :class:`ThreadGroup` owns the resource accounts of one UDF's
concurrent invocations, whichever threads run them.  Termination is
cooperative-but-prompt: killing a group revokes every member account,
and revocation is observed at the next fuel check — at most one basic
block of sandboxed execution away.  This is how Java thread groups *should* have worked for UDFs (the
paper notes ``Thread.stop``-style asynchronous kills are unsound; fuel
revocation gives the same effect safely).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..errors import AdmissionRefused, SecurityViolation
from .resources import ResourceAccount


class ThreadGroup:
    """The resource accounts belonging to one UDF.

    A group may carry *budgets* — caps on the summed worst-case fuel and
    memory of its concurrently admitted queries.  Callers reserve their
    certified worst case (or their full account quota when no static
    bound exists) before running; a claim that cannot fit is refused (or
    queued) up front via :class:`~repro.errors.AdmissionRefused`, rather
    than admitted and killed mid-flight.  Budgets of ``None`` (the
    default) disable admission control entirely.
    """

    def __init__(
        self,
        name: str,
        fuel_budget: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ):
        self.name = name
        self._lock = threading.Lock()
        self._admission = threading.Condition(self._lock)
        self._accounts: List[ResourceAccount] = []
        self._killed = False
        self.fuel_budget = fuel_budget
        self.memory_budget = memory_budget
        self._fuel_reserved = 0
        self._memory_reserved = 0
        # holder label -> (fuel, memory) currently reserved under it.
        # Worker pools label per-worker claims ("udf/worker3") so a DBA
        # can see which process a reservation belongs to.
        self._holders: Dict[str, List[int]] = {}

    def adopt_account(self, account: ResourceAccount) -> ResourceAccount:
        """Register an invocation's account with the group."""
        with self._lock:
            if self._killed:
                account.revoke()
            self._accounts.append(account)
        return account

    def release_account(self, account: ResourceAccount) -> None:
        """Drop a finished query's account: the group holds only the
        accounts a kill can still stop."""
        with self._lock:
            self._accounts.remove(account)

    # -- admission control -------------------------------------------------

    def _fits(self, fuel: int, memory: int) -> bool:
        if self.fuel_budget is not None:
            if self._fuel_reserved + fuel > self.fuel_budget:
                return False
        if self.memory_budget is not None:
            if self._memory_reserved + memory > self.memory_budget:
                return False
        return True

    def reserve(
        self,
        fuel: int,
        memory: int,
        wait: bool = False,
        timeout: Optional[float] = None,
        holder: Optional[str] = None,
    ) -> None:
        """Claim worst-case resources for one query's invocations.

        Raises :class:`AdmissionRefused` when the claim cannot fit the
        remaining budget (immediately with ``wait=False``; after other
        queries release without making room, with ``wait=True`` and a
        ``timeout``).  A claim exceeding the *whole* budget is refused
        outright — waiting could never admit it.  ``holder`` optionally
        labels the claim (e.g. one label per pool worker) so
        :attr:`reservations_by_holder` can attribute the group's reserved
        totals to individual execution units.
        """
        with self._admission:
            if self._killed:
                raise SecurityViolation(
                    f"thread group {self.name!r} has been killed"
                )
            over_total = (
                self.fuel_budget is not None and fuel > self.fuel_budget
            ) or (
                self.memory_budget is not None
                and memory > self.memory_budget
            )
            if over_total:
                raise AdmissionRefused(
                    f"thread group {self.name!r}: claim of {fuel} fuel / "
                    f"{memory} bytes exceeds the group budget outright"
                )
            if not self._fits(fuel, memory):
                if not wait:
                    raise AdmissionRefused(
                        f"thread group {self.name!r}: claim of {fuel} fuel "
                        f"/ {memory} bytes does not fit the remaining "
                        f"budget"
                    )
                admitted = self._admission.wait_for(
                    lambda: self._killed or self._fits(fuel, memory),
                    timeout=timeout,
                )
                if self._killed:
                    raise SecurityViolation(
                        f"thread group {self.name!r} has been killed"
                    )
                if not admitted:
                    raise AdmissionRefused(
                        f"thread group {self.name!r}: claim of {fuel} fuel "
                        f"/ {memory} bytes still does not fit after "
                        f"waiting {timeout}s"
                    )
            self._fuel_reserved += fuel
            self._memory_reserved += memory
            if holder is not None:
                entry = self._holders.setdefault(holder, [0, 0])
                entry[0] += fuel
                entry[1] += memory

    def release(
        self, fuel: int, memory: int, holder: Optional[str] = None
    ) -> None:
        """Return a reservation; wakes queued :meth:`reserve` callers."""
        with self._admission:
            self._fuel_reserved = max(0, self._fuel_reserved - fuel)
            self._memory_reserved = max(0, self._memory_reserved - memory)
            if holder is not None:
                entry = self._holders.get(holder)
                if entry is not None:
                    entry[0] = max(0, entry[0] - fuel)
                    entry[1] = max(0, entry[1] - memory)
                    if entry == [0, 0]:
                        del self._holders[holder]
            self._admission.notify_all()

    @property
    def reserved(self) -> dict:
        with self._lock:
            return {
                "fuel": self._fuel_reserved,
                "memory": self._memory_reserved,
            }

    @property
    def reservations_by_holder(self) -> Dict[str, dict]:
        """Labelled claims: holder -> {fuel, memory} currently reserved."""
        with self._lock:
            return {
                holder: {"fuel": entry[0], "memory": entry[1]}
                for holder, entry in self._holders.items()
            }

    def kill(self) -> None:
        """Revoke every member account; running invocations die at their
        next fuel check, and the group admits no new work."""
        with self._admission:
            self._killed = True
            accounts = list(self._accounts)
            self._admission.notify_all()  # unblock queued reservations
        for account in accounts:
            account.revoke()

    @property
    def killed(self) -> bool:
        return self._killed


class ThreadGroupRegistry:
    """Server-wide map of UDF name -> thread group."""

    def __init__(self) -> None:
        self._groups: Dict[str, ThreadGroup] = {}
        self._lock = threading.Lock()

    def group_for(self, udf_name: str) -> ThreadGroup:
        with self._lock:
            group = self._groups.get(udf_name)
            if group is None:
                group = ThreadGroup(udf_name)
                self._groups[udf_name] = group
            return group

    def set_budget(
        self,
        udf_name: str,
        fuel: Optional[int] = None,
        memory: Optional[int] = None,
    ) -> ThreadGroup:
        """Configure (or clear, with None) a UDF group's admission budget."""
        group = self.group_for(udf_name)
        with group._admission:
            group.fuel_budget = fuel
            group.memory_budget = memory
            group._admission.notify_all()
        return group

    def kill(self, udf_name: str) -> None:
        with self._lock:
            group = self._groups.pop(udf_name, None)
        if group is not None:
            group.kill()

    def discard(self, name: str) -> None:
        """Drop a group that holds no reservation; a busy one stays."""
        with self._lock:
            group = self._groups.get(name)
            if group is not None and not any(group.reserved.values()):
                del self._groups[name]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._groups)
