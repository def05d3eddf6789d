"""All six UDF designs: identical results, different properties."""

import pytest

from repro.core.callbacks import CallbackBroker
from repro.core.designs import Design
from repro.core.generic_udf import generic_definition, noop_definition
from repro.core.udf import ServerEnvironment, UDFRegistry
from repro.errors import UDFRegistrationError
from repro.vm.machine import JaguarVM

DATA = bytes(range(100))


@pytest.fixture
def registry():
    broker = CallbackBroker()
    env = ServerEnvironment(
        vm=JaguarVM(broker.signatures()), broker=broker
    )
    reg = UDFRegistry(env)
    yield reg
    reg.close()
    env.close()


@pytest.fixture
def broker(registry):
    return registry.environment.broker


ALL_DESIGNS = list(Design)


class TestParity:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_generic_udf_result_identical(self, registry, broker, design):
        definition = generic_definition(design)
        registry.register(definition)
        executor = registry.executor_for_query(definition.name)
        executor.begin_query(broker.bind())
        try:
            expected = 7 + 2 * sum(DATA) + 0
            assert executor.invoke([DATA, 7, 2, 3]) == expected
        finally:
            executor.end_query()

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_noop_udf(self, registry, broker, design):
        definition = noop_definition(design)
        registry.register(definition)
        executor = registry.executor_for_query(definition.name)
        executor.begin_query(broker.bind())
        try:
            assert executor.invoke([DATA, 0, 0, 0]) == 0
        finally:
            executor.end_query()

    @pytest.mark.parametrize(
        "design",
        [d for d in ALL_DESIGNS if not d.is_isolated],
        ids=lambda d: d.value,
    )
    def test_many_invocations_one_query(self, registry, broker, design):
        definition = generic_definition(design)
        registry.register(definition)
        executor = registry.executor_for_query(definition.name)
        executor.begin_query(broker.bind())
        try:
            for index in range(50):
                assert executor.invoke([b"\x01", index, 1, 0]) == index + 1
        finally:
            executor.end_query()


class TestExecutorLifecycle:
    def test_in_process_executor_shared(self, registry):
        definition = generic_definition(Design.SANDBOX_JIT)
        registry.register(definition)
        first = registry.executor_for_query(definition.name)
        second = registry.executor_for_query(definition.name)
        assert first is second

    def test_isolated_executor_fresh_per_query(self, registry):
        definition = generic_definition(Design.NATIVE_ISOLATED)
        registry.register(definition)
        first = registry.executor_for_query(definition.name)
        second = registry.executor_for_query(definition.name)
        assert first is not second
        first.close()
        second.close()

    def test_duplicate_registration_rejected(self, registry):
        definition = generic_definition(Design.SANDBOX_JIT)
        registry.register(definition)
        with pytest.raises(UDFRegistrationError):
            registry.register(generic_definition(Design.SANDBOX_JIT))

    def test_unregister_allows_reregistration(self, registry):
        definition = generic_definition(Design.SANDBOX_JIT)
        registry.register(definition)
        registry.unregister(definition.name)
        registry.register(generic_definition(Design.SANDBOX_JIT))

    def test_names_listing(self, registry):
        registry.register(generic_definition(Design.SANDBOX_JIT, name="aaa"))
        registry.register(generic_definition(Design.NATIVE_SFI, name="bbb"))
        assert registry.names() == ["aaa", "bbb"]


class TestRegistrationValidation:
    def test_bad_jagscript_rejected_eagerly(self, registry):
        from repro.core.udf import UDFDefinition, UDFSignature

        definition = UDFDefinition(
            name="broken",
            signature=UDFSignature(("int",), "int"),
            design=Design.SANDBOX_JIT,
            payload=b"def broken(x: int) -> int:\n    return undefined_var",
            entry="broken",
        )
        with pytest.raises(Exception):
            registry.register(definition)
        assert not registry.has("broken")

    def test_signature_mismatch_rejected(self, registry):
        from repro.core.udf import UDFDefinition, UDFSignature

        definition = UDFDefinition(
            name="mismatch",
            signature=UDFSignature(("int", "int"), "int"),
            design=Design.SANDBOX_JIT,
            payload=b"def mismatch(x: int) -> int:\n    return x",
            entry="mismatch",
        )
        with pytest.raises(UDFRegistrationError, match="signature"):
            registry.register(definition)

    def test_missing_entry_rejected(self, registry):
        from repro.core.udf import UDFDefinition, UDFSignature

        definition = UDFDefinition(
            name="ghost",
            signature=UDFSignature(("int",), "int"),
            design=Design.SANDBOX_JIT,
            payload=b"def other(x: int) -> int:\n    return x",
            entry="ghost",
        )
        with pytest.raises(UDFRegistrationError, match="no function"):
            registry.register(definition)

    def test_unknown_native_module_rejected(self, registry):
        from repro.core.udf import UDFDefinition, UDFSignature

        definition = UDFDefinition(
            name="nomod",
            signature=UDFSignature(("int",), "int"),
            design=Design.NATIVE_INTEGRATED,
            payload=b"no.such.module:fn",
            entry="fn",
        )
        with pytest.raises(UDFRegistrationError, match="import"):
            registry.register(definition)

    def test_native_arity_checked(self, registry):
        from repro.core.udf import UDFDefinition, UDFSignature

        definition = UDFDefinition(
            name="badarity",
            signature=UDFSignature(("int",), "int"),
            design=Design.NATIVE_INTEGRATED,
            payload=b"repro.core.generic_udf:generic_native",
            entry="generic_native",
        )
        with pytest.raises(UDFRegistrationError, match="parameters"):
            registry.register(definition)

    def test_bad_signature_type_name(self):
        from repro.core.udf import UDFSignature

        with pytest.raises(UDFRegistrationError):
            UDFSignature(("quaternion",), "int")
