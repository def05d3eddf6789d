"""The attacks of Section 1, demonstrated failing (or, for Design 1,
demonstrated *succeeding* — which is the paper's point).

"the DBMS must be wary of UDFs that might crash the database system,
that modify its files or memory directly ... or that monopolize CPU,
memory or disk resources."
"""

import os

import pytest

from repro.core.callbacks import CallbackBroker
from repro.core.designs import Design
from repro.core.udf import ServerEnvironment, UDFDefinition, UDFRegistry, UDFSignature
from repro.errors import (
    FuelExhausted,
    MemoryQuotaExceeded,
    SecurityViolation,
    SFIViolation,
    UDFCrashed,
)
from repro.vm.machine import JaguarVM


@pytest.fixture
def registry():
    broker = CallbackBroker()
    env = ServerEnvironment(vm=JaguarVM(broker.signatures()), broker=broker)
    reg = UDFRegistry(env)
    yield reg
    reg.close()
    env.close()


def run_udf(registry, definition, args):
    registry.register(definition)
    executor = registry.executor_for_query(definition.name)
    executor.begin_query(registry.environment.broker.bind())
    try:
        return executor.invoke(args)
    finally:
        executor.end_query()


# -- malicious native UDFs (importable by the worker) -------------------------

SERVER_STATE = {"corrupted": False}


def evil_crash(x):
    os._exit(13)  # the closest Python gets to a segfault


def evil_raise(x):
    raise RuntimeError("buggy UDF blew up")


def evil_touch_server(x):
    SERVER_STATE["corrupted"] = True
    return x


def evil_scan_everything(ctx, data):
    total = 0
    for index in range(len(data) + 10):  # off-by-ten bug
        total += data[index]
    return total


def native_def(name, func_name, design, params=("int",), ret="int",
               **kwargs):
    return UDFDefinition(
        name=name,
        signature=UDFSignature(tuple(params), ret),
        design=design,
        payload=f"tests.core.test_security_scenarios:{func_name}".encode(),
        entry=func_name,
        **kwargs,
    )


class TestDesign1IsUnsafe:
    """Design 1 trusts the UDF — and that trust is real."""

    def test_exception_escapes_into_server_thread(self, registry):
        definition = native_def("bug", "evil_raise", Design.NATIVE_INTEGRATED)
        with pytest.raises(RuntimeError, match="blew up"):
            run_udf(registry, definition, [1])

    def test_udf_can_mutate_server_state(self, registry):
        SERVER_STATE["corrupted"] = False
        definition = native_def(
            "touch", "evil_touch_server", Design.NATIVE_INTEGRATED
        )
        run_udf(registry, definition, [1])
        assert SERVER_STATE["corrupted"]  # nothing stopped it


class TestDesign2Containment:
    """Design 2: the crash kills only the executor process."""

    def test_hard_crash_contained(self, registry):
        definition = native_def("crash", "evil_crash", Design.NATIVE_ISOLATED)
        with pytest.raises(UDFCrashed):
            run_udf(registry, definition, [1])
        # The server (this test process) is alive and can keep working.
        ok = native_def("ok", "evil_touch_server", Design.NATIVE_ISOLATED)
        assert run_udf(registry, ok, [5]) == 5

    def test_exception_reported_not_fatal(self, registry):
        definition = native_def("bug2", "evil_raise", Design.NATIVE_ISOLATED)
        with pytest.raises(RuntimeError, match="blew up"):
            run_udf(registry, definition, [1])

    def test_server_state_isolated_by_process_boundary(self, registry):
        SERVER_STATE["corrupted"] = False
        definition = native_def(
            "touch2", "evil_touch_server", Design.NATIVE_ISOLATED
        )
        run_udf(registry, definition, [1])
        # The worker mutated *its own copy*; the server's is untouched.
        assert not SERVER_STATE["corrupted"]


class TestSFI:
    def test_out_of_region_access_trapped(self, registry):
        definition = UDFDefinition(
            name="oob",
            signature=UDFSignature(("bytes",), "int"),
            design=Design.NATIVE_SFI,
            payload=b"tests.core.test_security_scenarios:evil_scan_everything",
            entry="evil_scan_everything",
        )
        with pytest.raises(SFIViolation):
            run_udf(registry, definition, [b"ab"])


SPIN_SRC = b"def spin(x: int) -> int:\n    while True:\n        pass\n"
# The allocation size depends on the argument, so the static certifier
# cannot reject this at load — it must be killed by the runtime quota,
# which is exactly what this scenario tests.
BOMB_SRC = (
    b"def bomb(x: int) -> int:\n"
    b"    total: int = 0\n"
    b"    for i in range(1000000):\n"
    b"        a: bytes = bytearray(x * 1048576)\n"
    b"        total = total + len(a)\n"
    b"    return total"
)
SNEAKY_SRC = b"def sneak(x: int) -> int:\n    return cb_lob_length(x)\n"


def sandbox_def(name, payload, entry, design=Design.SANDBOX_JIT, **kwargs):
    return UDFDefinition(
        name=name,
        signature=UDFSignature(("int",), "int"),
        design=design,
        payload=payload,
        entry=entry,
        **kwargs,
    )


class TestSandboxResourcePolicing:
    def test_cpu_bomb_killed_by_fuel(self, registry):
        definition = sandbox_def("spin", SPIN_SRC, "spin", fuel=100_000)
        with pytest.raises(FuelExhausted):
            run_udf(registry, definition, [1])

    def test_cpu_bomb_killed_in_interpreter_too(self, registry):
        definition = sandbox_def(
            "spin2", SPIN_SRC, "spin",
            design=Design.SANDBOX_INTERP, fuel=100_000,
        )
        with pytest.raises(FuelExhausted):
            run_udf(registry, definition, [1])

    def test_memory_bomb_killed_by_quota(self, registry):
        definition = sandbox_def(
            "bomb", BOMB_SRC, "bomb", memory=8 * 1024 * 1024
        )
        with pytest.raises(MemoryQuotaExceeded):
            run_udf(registry, definition, [1])

    def test_isolated_sandbox_also_policed(self, registry):
        definition = sandbox_def(
            "spin3", SPIN_SRC, "spin",
            design=Design.SANDBOX_ISOLATED, fuel=100_000,
        )
        with pytest.raises(FuelExhausted):
            run_udf(registry, definition, [1])

    def test_server_survives_all_of_the_above(self, registry):
        definition = sandbox_def(
            "fine", b"def fine(x: int) -> int:\n    return x + 1", "fine"
        )
        assert run_udf(registry, definition, [41]) == 42


class TestLeastPrivilege:
    def test_unauthorized_callback_denied(self, registry):
        # The UDF compiles (cb_lob_length is a known signature) but the
        # registration grants no callbacks: the static pre-check rejects
        # it at CREATE FUNCTION time, before it can ever run.
        definition = sandbox_def("sneak", SNEAKY_SRC, "sneak")
        with pytest.raises(SecurityViolation):
            run_udf(registry, definition, [1])

    def test_rejected_at_registration_not_first_invocation(self, registry):
        definition = sandbox_def("sneak2", SNEAKY_SRC, "sneak")
        with pytest.raises(SecurityViolation, match="cb_lob_length"):
            registry.register(definition)
        # Nothing reached the catalog or the VM.
        assert not registry.has("sneak2")
        assert "sneak2" not in registry.environment.vm.loaded_udfs

    def test_denial_recorded_in_audit_log(self, registry):
        from repro.vm.security import SecurityManager

        manager = SecurityManager(class_name="udf_sneak2")
        with pytest.raises(SecurityViolation, match="rejected at load"):
            manager.check_static_effects(frozenset({"cb_lob_length"}))
        denials = manager.denials()
        assert denials and denials[0].target == "cb_lob_length"
        assert denials[0].action == "static:callback"

    def test_granted_callback_allowed(self, registry):
        definition = sandbox_def(
            "legit", SNEAKY_SRC, "sneak", callbacks=("cb_lob_length",)
        )
        registry.register(definition)
        executor = registry.executor_for_query("legit")
        binding = registry.environment.broker.bind({1: b"hello"})
        executor.begin_query(binding)
        try:
            assert executor.invoke([1]) == 5
        finally:
            executor.end_query()
