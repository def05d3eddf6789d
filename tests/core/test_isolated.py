"""Remote executor internals: chunked shm transport, callbacks, teardown."""

import pytest

from repro.core.callbacks import CallbackBroker
from repro.core.designs import Design
from repro.core.generic_udf import SIGNATURE, generic_definition
from repro.core.isolated import DEFAULT_BUFFER, RemoteExecutor
from repro.core.udf import ServerEnvironment, UDFDefinition, UDFSignature
from repro.errors import UDFInvocationError
from repro.vm.machine import JaguarVM


@pytest.fixture
def env():
    broker = CallbackBroker()
    return ServerEnvironment(vm=JaguarVM(broker.signatures()), broker=broker)


def make_executor(env, definition, **kwargs):
    executor = RemoteExecutor(definition, env, **kwargs)
    executor.begin_query(env.broker.bind())
    return executor


class TestTransport:
    def test_payload_larger_than_buffer_chunks_through(self, env):
        """The shm buffer is smaller than the argument; the chunking
        protocol must still deliver it intact (with more hand-offs —
        the data-size cost the paper predicts)."""
        definition = generic_definition(
            Design.NATIVE_ISOLATED, name="bigpayload"
        )
        executor = make_executor(env, definition, buffer_size=4096)
        try:
            data = bytes(range(256)) * 100  # 25,600 bytes >> 4,096
            assert executor.invoke([data, 0, 1, 0]) == sum(data)
        finally:
            executor.close()

    def test_large_result_chunks_back(self, env):
        definition = UDFDefinition(
            name="echo",
            signature=UDFSignature(("bytes",), "bytes"),
            design=Design.NATIVE_ISOLATED,
            payload=b"tests.core.test_isolated:echo_bytes",
            entry="echo_bytes",
        )
        executor = make_executor(env, definition, buffer_size=2048)
        try:
            data = bytes(10000)
            assert executor.invoke([data]) == data
        finally:
            executor.close()

    def test_many_sequential_invocations(self, env):
        definition = generic_definition(Design.NATIVE_ISOLATED, name="seq")
        executor = make_executor(env, definition)
        try:
            for index in range(100):
                assert executor.invoke([b"\x02", index, 0, 0]) == index
        finally:
            executor.close()


class TestCallbacks:
    def test_callback_round_trips_counted(self, env):
        definition = generic_definition(Design.NATIVE_ISOLATED, name="cbs")
        executor = RemoteExecutor(definition, env)
        binding = env.broker.bind()
        executor.begin_query(binding)
        try:
            executor.invoke([b"\x00", 0, 0, 25])
            assert binding.invocations["cb_noop"] == 25
        finally:
            executor.close()

    def test_callback_error_propagates_into_udf(self, env):
        definition = UDFDefinition(
            name="badcb",
            signature=SIGNATURE,
            design=Design.NATIVE_ISOLATED,
            payload=b"repro.core.generic_udf:generic_native",
            entry="generic_native",
        )
        executor = RemoteExecutor(definition, env)
        binding = env.broker.bind()

        def explode(binding_):
            raise ValueError("callback exploded")

        # Sabotage the broker's handler for this binding.
        binding.broker._handlers["cb_noop"] = explode
        executor.begin_query(binding)
        try:
            with pytest.raises(ValueError, match="exploded"):
                executor.invoke([b"", 0, 0, 1])
        finally:
            executor.close()


class TestLifecycle:
    def test_end_query_terminates_process(self, env):
        definition = generic_definition(Design.NATIVE_ISOLATED, name="gone")
        executor = make_executor(env, definition)
        process = executor._pool.workers[0].process
        executor.end_query()
        assert process is not None
        process.join(timeout=5.0)
        assert not process.is_alive()

    def test_invoke_after_close_raises(self, env):
        definition = generic_definition(Design.NATIVE_ISOLATED, name="dead")
        executor = make_executor(env, definition)
        executor.close()
        with pytest.raises(UDFInvocationError, match="closed"):
            executor.invoke([b"", 0, 0, 0])

    def test_double_close_harmless(self, env):
        definition = generic_definition(Design.NATIVE_ISOLATED, name="twice")
        executor = make_executor(env, definition)
        executor.close()
        executor.close()

    def test_sandbox_isolated_jit_and_interp(self, env):
        for design, name in (
            (Design.SANDBOX_ISOLATED, "si"),
        ):
            definition = generic_definition(design, name=name)
            executor = make_executor(env, definition)
            try:
                assert executor.invoke([b"\x03\x04", 1, 1, 0]) == 8
            finally:
                executor.close()


def echo_bytes(data):
    return bytes(data)
