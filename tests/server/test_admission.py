"""Per-tenant admission control: fairness, hard caps, group budgets.

Each caller is a thread, as each connection is in the server: it blocks
in ``run`` until granted a slot and then runs its statement itself.
"""

import sys
import threading
import time

import pytest

from repro.errors import AdmissionRefused, SecurityViolation
from repro.server.admission import AdmissionController
from repro.vm.threadgroups import ThreadGroupRegistry


def _arrived(controller):
    """Callers that have reached the gate: queued, running or done."""
    stats = controller.stats()
    return (
        sum(stats["queued"].values()) + sum(stats["in_flight"].values())
        + stats["completed"] + stats["refused"]
    )


class Caller:
    """``controller.run(tenant, fn)`` on a thread of its own.

    Returns once the caller has reached the gate, so callers started one
    after another queue in that order.
    """

    def __init__(self, controller, tenant, fn):
        self._outcome = {}
        before = _arrived(controller)
        self._thread = threading.Thread(
            target=self._run, args=(controller, tenant, fn)
        )
        self._thread.start()
        deadline = time.monotonic() + 5
        while _arrived(controller) == before:
            assert time.monotonic() < deadline, "caller never arrived"
            time.sleep(0.001)

    def _run(self, controller, tenant, fn):
        try:
            self._outcome["value"] = controller.run(tenant, fn)
        except BaseException as exc:
            self._outcome["error"] = exc

    def result(self, timeout):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "caller still blocked"
        if "error" in self._outcome:
            raise self._outcome["error"]
        return self._outcome["value"]


class TestBasics:
    def test_run_returns_result(self):
        controller = AdmissionController()
        assert controller.run("a", lambda: 42) == 42
        stats = controller.stats()
        assert stats["admitted"] == 1 and stats["completed"] == 1

    def test_exception_propagates(self):
        controller = AdmissionController()
        caller = Caller(controller, "a", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            caller.result(5)
        # The failed statement released its slot.
        assert Caller(controller, "a", lambda: "ok").result(5) == "ok"

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(slots=0)
        with pytest.raises(ValueError):
            AdmissionController(tenant_slots=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_cap=0)


class TestHardCap:
    def test_queue_cap_refuses_synchronously(self):
        gate = threading.Event()
        try:
            controller = AdmissionController(
                slots=1, tenant_slots=1, queue_cap=2
            )
            blocked = Caller(controller, "a", gate.wait)
            q1 = Caller(controller, "a", lambda: 1)
            q2 = Caller(controller, "a", lambda: 2)
            with pytest.raises(AdmissionRefused):
                controller.run("a", lambda: 3)
            assert controller.stats()["refused"] == 1
            # Another tenant is not affected by a's full queue.
            other = Caller(controller, "b", lambda: "b")
            gate.set()
            assert blocked.result(5) is True
            assert q1.result(5) == 1 and q2.result(5) == 2
            assert other.result(5) == "b"
        finally:
            gate.set()

    def test_drained_queue_admits_again(self):
        gate = threading.Event()
        try:
            controller = AdmissionController(
                slots=1, tenant_slots=1, queue_cap=1
            )
            blocked = Caller(controller, "a", gate.wait)
            queued = Caller(controller, "a", lambda: 1)
            with pytest.raises(AdmissionRefused):
                controller.run("a", lambda: 2)
            gate.set()
            blocked.result(5)
            queued.result(5)
            assert controller.run("a", lambda: 3) == 3
        finally:
            gate.set()


class TestFairness:
    def test_round_robin_across_tenants(self):
        """A tenant with a deep queue yields to a tenant with one item."""
        order = []
        gate = threading.Event()
        try:
            controller = AdmissionController(slots=1, tenant_slots=1)
            blocked = Caller(controller, "a", gate.wait)
            callers = [
                Caller(controller, "a", lambda i=i: order.append(f"a{i}"))
                for i in range(3)
            ]
            callers.append(
                Caller(controller, "b", lambda: order.append("b0"))
            )
            gate.set()
            blocked.result(5)
            for caller in callers:
                caller.result(5)
            # b's single statement ran before a's backlog drained.
            assert order.index("b0") < order.index("a2")
        finally:
            gate.set()

    def test_tenant_slots_limit_concurrency(self):
        controller = AdmissionController(slots=4, tenant_slots=2)
        running = []
        peak = []
        lock = threading.Lock()
        gate = threading.Event()

        def work(i):
            with lock:
                running.append(i)
                peak.append(len(running))
            gate.wait(5)
            with lock:
                running.remove(i)

        callers = [
            Caller(controller, "a", lambda i=i: work(i)) for i in range(6)
        ]
        # Let the first admissions start, then open the gate.
        time.sleep(0.1)
        gate.set()
        for caller in callers:
            caller.result(5)
        assert max(peak) <= 2


class TestThreadGroupIntegration:
    def test_tenant_group_budgeted(self):
        groups = ThreadGroupRegistry()
        controller = AdmissionController(groups, tenant_slots=2)
        controller.run("acme", lambda: None)
        group = groups.group_for("tenant:acme")
        assert group.fuel_budget == 2

    def test_killed_tenant_group_refuses(self):
        groups = ThreadGroupRegistry()
        controller = AdmissionController(groups)
        controller.run("acme", lambda: None)
        # Kill the group object itself (still registered): further
        # reservations against it die with SecurityViolation.
        groups.group_for("tenant:acme").kill()
        with pytest.raises(SecurityViolation):
            controller.run("acme", lambda: "nope")
        # Other tenants are untouched.
        assert controller.run("other", lambda: 7) == 7

    def test_registry_kill_gives_fresh_group_next_time(self):
        """``ThreadGroupRegistry.kill`` pops the group (same semantics
        as ``Database.kill_udf``): in-flight reservations die, but the
        tenant's *next* statement gets a fresh group and is admitted."""
        groups = ThreadGroupRegistry()
        controller = AdmissionController(groups, tenant_slots=2)
        controller.run("acme", lambda: None)
        groups.kill("tenant:acme")
        assert controller.run("acme", lambda: 1) == 1
        assert groups.group_for("tenant:acme").fuel_budget == 2


class TestStress:
    def test_slots_hold_under_contention(self):
        """More callers than cores, a short switch interval: the global
        and per-tenant bounds hold at every instant, and every slot
        comes back."""
        controller = AdmissionController(slots=3, tenant_slots=2)
        lock = threading.Lock()
        running = {"all": 0}
        peaks = {"all": 0}

        def work(tenant):
            with lock:
                for key in ("all", tenant):
                    running[key] = running.get(key, 0) + 1
                    peaks[key] = max(peaks.get(key, 0), running[key])
            time.sleep(0)
            with lock:
                running["all"] -= 1
                running[tenant] -= 1

        def caller(n):
            tenant = f"t{n % 3}"
            for __ in range(200):
                controller.run(tenant, work, tenant)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(n,))
                for n in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert peaks["all"] <= 3
        assert max(peaks[f"t{n}"] for n in range(3)) <= 2
        stats = controller.stats()
        assert stats["admitted"] == stats["completed"] == 8 * 200
        assert stats["queued"] == {} and stats["in_flight"] == {}
