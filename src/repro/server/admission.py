"""Per-tenant admission control for the server.

One heavy UDF user must not starve everyone else.  The existing
mechanism for that is :class:`~repro.vm.threadgroups.ThreadGroup`
budgets — claims reserved up front, :class:`~repro.errors.AdmissionRefused`
when they cannot fit — and this module extends it from per-UDF to
per-tenant: every tenant gets a thread group named ``tenant:<name>``
whose fuel budget counts *concurrently executing statements* (one fuel
unit each).  A DBA can inspect a tenant's reservations or kill its group
with the same tools that already work for UDF groups.

On top of the groups sits a fair gate: callers wait in bounded
per-tenant FIFO queues, and a free slot is granted to the *next tenant
in round-robin order* that has a waiting caller and a free in-flight
slot — so a tenant with a thousand queued statements still yields to a
tenant with one.  A caller arriving at a full tenant queue is refused
immediately (the hard cap) instead of being buffered without bound.
The gate runs nothing itself: a granted caller executes its statement
on its own thread.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict

from ..errors import AdmissionRefused, SecurityViolation

#: Statements allowed to execute at once, across all tenants.
DEFAULT_SLOTS = 8
#: Statements of one tenant allowed to execute concurrently.
DEFAULT_TENANT_SLOTS = 2
#: Statements of one tenant allowed to wait; the hard cap.
DEFAULT_TENANT_QUEUE_CAP = 32


class AdmissionController:
    """Round-robin fair gate over per-tenant bounded queues.

    ``run(tenant, fn, *args)`` blocks the calling thread until it holds
    one of ``slots`` global and ``tenant_slots`` per-tenant slots, then
    calls ``fn`` on that same thread and returns its result.  It raises
    :class:`AdmissionRefused` at once when the tenant's queue is full,
    and :class:`SecurityViolation` when the tenant's group was killed.
    """

    def __init__(
        self,
        thread_groups=None,
        slots: int = DEFAULT_SLOTS,
        tenant_slots: int = DEFAULT_TENANT_SLOTS,
        queue_cap: int = DEFAULT_TENANT_QUEUE_CAP,
    ):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if tenant_slots < 1:
            raise ValueError(f"tenant_slots must be >= 1, got {tenant_slots}")
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        self.thread_groups = thread_groups
        self.slots = slots
        self.tenant_slots = tenant_slots
        self.queue_cap = queue_cap
        self._lock = threading.Lock()
        #: tenant -> FIFO of waiting callers' grant locks, only for
        #: tenants with a waiter; ``_ring`` holds the same tenants in
        #: round-robin order.
        self._queues: Dict[str, Deque[threading.Lock]] = {}
        self._ring: Deque[str] = deque()
        self._in_flight: Dict[str, int] = {}
        self._running = 0
        self.admitted = 0
        self.refused = 0
        self.completed = 0

    # -- admission ---------------------------------------------------------

    def run(self, tenant: str, fn: Callable, *args):
        """Run ``fn(*args)`` on this thread once ``tenant`` is granted a
        slot; refuse over the hard cap."""
        self._acquire(tenant)
        try:
            return fn(*args)
        finally:
            group = self._tenant_group(tenant)
            if group is not None:
                group.release(1, 0, holder=f"tenant:{tenant}")
            with self._lock:
                self.completed += 1
                self._give_back(tenant)

    def _acquire(self, tenant: str) -> None:
        grant = threading.Lock()
        grant.acquire()
        with self._lock:
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._ring.append(tenant)
            elif len(queue) >= self.queue_cap:
                self.refused += 1
                raise AdmissionRefused(
                    f"tenant {tenant!r}: {len(queue)} statements "
                    f"already queued (cap {self.queue_cap})"
                )
            queue.append(grant)
            self._grant()
        grant.acquire()  # released by _grant once a slot is ours
        try:
            group = self._tenant_group(tenant)
            if group is not None:
                group.reserve(1, 0, holder=f"tenant:{tenant}")
        except (AdmissionRefused, SecurityViolation):
            with self._lock:
                self.refused += 1
                self._give_back(tenant)
            raise
        with self._lock:
            self.admitted += 1

    def _give_back(self, tenant: str) -> None:
        """Return ``tenant``'s slot and grant freed slots.  Lock held."""
        self._running -= 1
        left = self._in_flight[tenant] - 1
        if left:
            self._in_flight[tenant] = left
        else:
            del self._in_flight[tenant]
        self._grant()

    def _grant(self) -> None:
        """Wake waiting callers into free slots, round-robin across
        tenants, until no waiter can take one.  Lock held."""
        passed = 0
        while passed < len(self._ring) and self._running < self.slots:
            tenant = self._ring.popleft()
            queue = self._queues[tenant]
            in_flight = self._in_flight.get(tenant, 0)
            if in_flight < self.tenant_slots:
                self._running += 1
                self._in_flight[tenant] = in_flight + 1
                queue.popleft().release()
                passed = 0
            else:
                passed += 1
            if queue:
                self._ring.append(tenant)
            else:
                del self._queues[tenant]

    def forget(self, tenant: str) -> None:
        """Drop ``tenant``'s group unless it holds a reservation."""
        if self.thread_groups is not None:
            self.thread_groups.discard(f"tenant:{tenant}")

    def _tenant_group(self, tenant: str):
        """The tenant's thread group, budgeted to its in-flight slots."""
        if self.thread_groups is None:
            return None
        name = f"tenant:{tenant}"
        group = self.thread_groups.group_for(name)
        if group.fuel_budget is None:
            self.thread_groups.set_budget(name, fuel=self.tenant_slots)
        return group

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "tenant_slots": self.tenant_slots,
                "queue_cap": self.queue_cap,
                "admitted": self.admitted,
                "refused": self.refused,
                "completed": self.completed,
                "queued": {
                    tenant: len(queue)
                    for tenant, queue in self._queues.items()
                },
                "in_flight": dict(self._in_flight),
            }
