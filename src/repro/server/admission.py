"""Per-tenant admission control for the server.

One heavy UDF user must not starve everyone else.  The existing
mechanism for that is :class:`~repro.vm.threadgroups.ThreadGroup`
budgets — claims reserved up front, :class:`~repro.errors.AdmissionRefused`
when they cannot fit — and this module extends it from per-UDF to
per-tenant: every tenant gets a thread group named ``tenant:<name>``
whose fuel budget counts *concurrently executing statements* (one fuel
unit each).  A DBA can inspect a tenant's reservations or kill its group
with the same tools that already work for UDF groups.

On top of the groups sits a fair dispatcher: statements wait in bounded
per-tenant FIFO queues, and a free worker slot is given to the *next
tenant in round-robin order* that has queued work and a free in-flight
slot — so a tenant with a thousand queued statements still yields to a
tenant with one.  A statement arriving at a full tenant queue is refused
immediately (the hard cap) instead of being buffered without bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Callable, Dict, Optional

from ..errors import AdmissionRefused, SecurityViolation

#: Statements of one tenant allowed to execute concurrently.
DEFAULT_TENANT_SLOTS = 2
#: Statements of one tenant allowed to wait; the hard cap.
DEFAULT_TENANT_QUEUE_CAP = 32


class AdmissionController:
    """Round-robin fair dispatcher over per-tenant bounded queues.

    ``submit(tenant, thunk)`` returns a :class:`Future` that completes
    with the thunk's result once a worker ran it — or fails with
    :class:`AdmissionRefused` (queue cap) / :class:`SecurityViolation`
    (tenant group killed).  Work runs on the caller-supplied executor;
    the controller only decides *order and admission*.
    """

    def __init__(
        self,
        executor,
        thread_groups=None,
        tenant_slots: int = DEFAULT_TENANT_SLOTS,
        queue_cap: int = DEFAULT_TENANT_QUEUE_CAP,
    ):
        if tenant_slots < 1:
            raise ValueError(f"tenant_slots must be >= 1, got {tenant_slots}")
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        self.executor = executor
        self.thread_groups = thread_groups
        self.tenant_slots = tenant_slots
        self.queue_cap = queue_cap
        self._lock = threading.Lock()
        #: tenant -> FIFO of (future, thunk); insertion order doubles as
        #: the round-robin ring (rotated via ``_ring``).
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._ring: deque = deque()
        self._in_flight: Dict[str, int] = {}
        self.admitted = 0
        self.refused = 0
        self.completed = 0

    # -- admission ---------------------------------------------------------

    def submit(self, tenant: str, thunk: Callable[[], object]) -> Future:
        """Queue one statement for ``tenant``; refuse over the hard cap."""
        future: Future = Future()
        with self._lock:
            queue = self._queues.get(tenant)
            if queue is None:
                queue = deque()
                self._queues[tenant] = queue
                self._ring.append(tenant)
            if len(queue) >= self.queue_cap:
                self.refused += 1
                raise AdmissionRefused(
                    f"tenant {tenant!r}: {len(queue)} statements already "
                    f"queued (cap {self.queue_cap})"
                )
            queue.append((future, thunk))
        self._dispatch()
        return future

    def _dispatch(self) -> None:
        """Hand queued statements to the executor, fairly across tenants."""
        while True:
            with self._lock:
                job = None
                for __ in range(len(self._ring)):
                    tenant = self._ring[0]
                    self._ring.rotate(-1)
                    queue = self._queues.get(tenant)
                    if (
                        queue
                        and self._in_flight.get(tenant, 0)
                            < self.tenant_slots
                    ):
                        job = (tenant,) + queue.popleft()
                        self._in_flight[tenant] = (
                            self._in_flight.get(tenant, 0) + 1
                        )
                        break
                if job is None:
                    return
            tenant, future, thunk = job
            try:
                group = self._tenant_group(tenant)
                if group is not None:
                    group.reserve(1, 0, holder=f"tenant:{tenant}")
            except (AdmissionRefused, SecurityViolation) as exc:
                with self._lock:
                    self._in_flight[tenant] -= 1
                    self.refused += 1
                future.set_exception(exc)
                continue
            with self._lock:
                self.admitted += 1
            self.executor.submit(self._run, tenant, future, thunk)

    def _run(self, tenant: str, future: Future, thunk) -> None:
        try:
            result = thunk()
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            group = self._tenant_group(tenant)
            if group is not None:
                group.release(1, 0, holder=f"tenant:{tenant}")
            with self._lock:
                self._in_flight[tenant] -= 1
                self.completed += 1
            self._dispatch()

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
                    if queue
                },
                "in_flight": {
                    tenant: count
                    for tenant, count in self._in_flight.items()
                    if count
                },
            }
