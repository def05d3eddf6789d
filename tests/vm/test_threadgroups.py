"""Thread groups: killing one UDF's group leaves others untouched.

A group owns accounts, not threads; each test runs sandboxed code on a
thread of its own charging an account the group adopted.
"""

import threading
import time

import pytest

from repro.errors import FuelExhausted, SecurityViolation, VMError
from repro.vm import compile_source, run_function, single_class_context, verify_class
from repro.vm.resources import ResourceAccount
from repro.vm.threadgroups import ThreadGroup, ThreadGroupRegistry

SPIN = (
    "def spin() -> int:\n"
    "    while True:\n"
    "        pass\n"
)


class SpinThread(threading.Thread):
    """Runs ``spin()`` against ``account``, keeping the VM error it ends
    with."""

    def __init__(self, account):
        super().__init__(daemon=True)
        self.account = account
        self.error = None

    def run(self):
        cls = compile_source(SPIN, "TG")
        verify_class(cls)
        ctx = single_class_context(cls, account=self.account)
        try:
            run_function(cls, cls.functions["spin"], [], ctx)
        except VMError as exc:
            self.error = exc


def _spinning(group):
    thread = SpinThread(group.adopt_account(ResourceAccount(fuel=2 ** 50)))
    thread.start()
    return thread


class TestGroups:
    def test_kill_revokes_running_udf(self):
        group = ThreadGroup("spinner")
        thread = _spinning(group)
        time.sleep(0.05)
        assert thread.is_alive()
        group.kill()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(thread.error, FuelExhausted)

    def test_kill_does_not_affect_other_group(self):
        group_a = ThreadGroup("a")
        group_b = ThreadGroup("b")
        thread_a = _spinning(group_a)
        thread_b = _spinning(group_b)
        time.sleep(0.05)
        group_a.kill()
        thread_a.join(timeout=5.0)
        assert not thread_a.is_alive()
        assert thread_b.is_alive()  # B keeps running
        group_b.kill()
        thread_b.join(timeout=5.0)
        assert not thread_b.is_alive()

    def test_killed_group_refuses_new_work(self):
        group = ThreadGroup("dead")
        group.kill()
        with pytest.raises(SecurityViolation):
            group.reserve(1, 1)

    def test_account_adopted_after_kill_is_born_revoked(self):
        group = ThreadGroup("dead")
        group.kill()
        account = group.adopt_account(ResourceAccount(fuel=100))
        with pytest.raises(FuelExhausted):
            account.charge_fuel(1)


class TestRegistry:
    def test_group_per_udf(self):
        registry = ThreadGroupRegistry()
        assert registry.group_for("a") is registry.group_for("a")
        assert registry.group_for("a") is not registry.group_for("b")

    def test_registry_kill(self):
        registry = ThreadGroupRegistry()
        group = registry.group_for("x")
        registry.kill("x")
        assert group.killed
        # A new group takes the name afterwards.
        assert registry.group_for("x") is not group
