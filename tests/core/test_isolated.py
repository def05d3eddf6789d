"""Remote executor internals: chunked shm transport, callbacks, teardown."""

import os
import signal
import threading
import time

import pytest

import repro.core.isolated as isolated
from repro.core.callbacks import CallbackBroker
from repro.core.designs import Design
from repro.core.generic_udf import (
    SIGNATURE,
    generic_definition,
    noop_definition,
)
from repro.core.isolated import BUFFER_SIZE, RemoteExecutor
from repro.core.udf import ServerEnvironment, UDFDefinition, UDFSignature
from repro.database import Database
from repro.errors import UDFCrashed, UDFInvocationError
from repro.vm.machine import JaguarVM

BLEN = "def blen(data: bytes) -> int:\n    return len(data)\n"


@pytest.fixture
def env():
    broker = CallbackBroker()
    environment = ServerEnvironment(
        vm=JaguarVM(broker.signatures()), broker=broker
    )
    yield environment
    environment.close()


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

    def test_small_batch_crosses_in_one_chunk_each_way(self, env):
        """A 64-row 1-byte no-op batch fits the buffer, so it moves
        whole: one request out, the worker's READY plus one batch result
        back, one chunk per message."""
        definition = noop_definition(Design.NATIVE_ISOLATED)
        executor = make_executor(env, definition)
        try:
            batch = [(bytes([row]), 0, 0, 0) for row in range(64)]
            assert executor.invoke_batch(batch) == [0] * 64
            stats = executor.channel_stats()
            assert (stats["messages_sent"], stats["chunks_sent"]) == (1, 1)
            assert (stats["messages_received"], stats["chunks_received"]) == (
                2, 2
            )
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

    def test_worker_that_raises_exits_with_code_1(self, env, monkeypatch,
                                                  capfd):
        def broken(*args):
            raise RuntimeError("worker broke")

        monkeypatch.setattr(isolated, "_worker_main", broken)
        definition = generic_definition(Design.NATIVE_ISOLATED, name="broke")
        with pytest.raises(UDFCrashed, match="exit code 1"):
            make_executor(env, definition)
        assert "RuntimeError: worker broke" in capfd.readouterr().err

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


class TestRetainedBufferCap:
    """Regression: a batch hint never grows the shm buffer."""

    def test_oversized_batches_still_flow_through_capped_buffer(self):
        # A payload bigger than the buffer must chunk, not fail, even
        # under a giant batch hint at executor build time.
        with Database() as db:
            db.batch_size = 100_000
            db.execute(
                "CREATE FUNCTION blen(bytes) RETURNS int LANGUAGE JAGUAR "
                f"DESIGN SANDBOX_ISOLATED AS '{BLEN}'"
            )
            executor = db.registry.executor_for_query("blen")
            executor.begin_query()
            try:
                payload = bytes(2 * BUFFER_SIZE)
                assert executor.invoke_batch([(payload,)]) == [
                    len(payload)
                ]
                stats = executor.channel_stats()
                assert stats["buffer_size"] == BUFFER_SIZE
                assert stats["chunks_sent"] > stats["messages_sent"]
            finally:
                executor.end_query()
                executor.close()


# -- native payloads for the worker-boundary tests (run in the worker) -------

SERVER_FILES = ("data.pages", "wal.log")


def _fds_naming(suffixes):
    """This process's open fds whose target ends with one of ``suffixes``."""
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue
        if target.endswith(suffixes):
            found.append(int(name))
    return found


def server_files_seen(x):
    return len(_fds_naming(SERVER_FILES))


def scribble(x):
    """Overwrite the first 64 bytes of the server's data file, if open."""
    written = 0
    for fd in _fds_naming(("data.pages",)):
        try:
            written += os.pwrite(fd, b"\xff" * 64, 0)
        except OSError:
            pass
    return written


def die(x):
    os.kill(os.getpid(), signal.SIGKILL)


def plus_one(x):
    return x + 1


def _create_native(db, name, function):
    db.execute(
        f"CREATE FUNCTION {name}(int) RETURNS int LANGUAGE NATIVE "
        f"DESIGN ISOLATED AS 'tests.core.test_isolated:{function}'"
    )


class TestWorkerHoldsNoServerFiles:
    """The worker closes every fd it inherited before UDF code runs, so
    an isolated UDF cannot read or write the server's files."""

    def test_udf_sees_neither_file_and_cannot_write_the_data_file(
        self, tmp_path
    ):
        path = tmp_path / "db"
        with Database(str(path)) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1)")
            _create_native(db, "seen", "server_files_seen")
            _create_native(db, "scribble", "scribble")
            db.checkpoint()
            # The server itself holds both files open.
            assert server_files_seen(0) == len(SERVER_FILES)
            before = (path / "data.pages").read_bytes()
            assert db.query("SELECT seen(a) FROM t") == [(0,)]
            assert db.query("SELECT scribble(a) FROM t") == [(0,)]
            assert (path / "data.pages").read_bytes() == before


class TestNothingLeftBehind:
    """Every worker is forked by the zygote and reaped, with every fd
    closed, whether the statement succeeded, its worker died mid-batch,
    or the worker failed before READY; the server forks only zygotes."""

    def test_no_child_and_no_fd_outlives_a_statement(self, monkeypatch):
        forked = []
        workers = []
        fork = os.fork
        inner = isolated._Worker.__init__

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def counting_worker(self, *args, **kwargs):
            inner(self, *args, **kwargs)
            workers.append(self.process.pid)

        def all_gone():
            return not [
                pid for pid in workers if os.path.exists(f"/proc/{pid}")
            ]

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(isolated._Worker, "__init__", counting_worker)
        start_fds = len(os.listdir("/proc/self/fd"))
        with Database() as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute(
                "INSERT INTO t VALUES "
                + ", ".join(f"({i})" for i in range(20))
            )
            _create_native(db, "inc", "plus_one")
            _create_native(db, "die", "die")
            db.execute(
                "CREATE FUNCTION sinc(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX_ISOLATED AS "
                "'def sinc(x: int) -> int: return x + 1'"
            )
            # Warm up: the first statement forks the zygote, whose
            # control socket stays open while it serves.
            db.query("SELECT inc(a) FROM t")
            assert all_gone()
            open_fds = len(os.listdir("/proc/self/fd"))
            for __ in range(3):
                assert db.query(
                    "SELECT inc(a) FROM t WHERE sinc(a) > 10"
                ) == [(a + 1,) for a in range(10, 20)]
                assert all_gone()
            with pytest.raises(UDFCrashed, match="SIGKILL"):
                db.query("SELECT die(a) FROM t")
            assert all_gone()
            assert len(os.listdir("/proc/self/fd")) == open_fds

            def broken(worker_payload, port):
                raise RuntimeError("no invoker before READY")

            # A registry change retires the zygote; the next one is
            # forked after the patch and hands it to its workers.
            monkeypatch.setattr(isolated, "_build_worker_invoker", broken)
            db.execute("DROP FUNCTION die")
            with pytest.raises(Exception, match="no invoker before READY"):
                db.query("SELECT inc(a) FROM t")
            assert all_gone()
        assert len(os.listdir("/proc/self/fd")) == start_fds
        assert len(workers) == 1 + 3 * 2 + 1 + 1
        assert len(forked) == 2 and not set(forked) & set(workers)
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


def _one_row_db():
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1)")
    return db


class TestCrashReportedAtOnce:
    """The server waits on a worker's channel and its death sentinel in
    one untimed ``poll``, so a death is reported as soon as the zygote
    has reaped the worker, not after a polling interval."""

    def test_killed_worker_is_reported_within_50_ms(self):
        timings = []
        with _one_row_db() as db:
            _create_native(db, "die", "die")
            for __ in range(3):
                started = time.perf_counter()
                with pytest.raises(UDFCrashed, match="killed by SIGKILL"):
                    db.query("SELECT die(a) FROM t")
                timings.append(time.perf_counter() - started)
        assert min(timings) < 0.050, timings


class TestRefusedWithoutLinuxCalls:
    """A host without the calls the zygote needs gets a named refusal at
    its first isolated statement, and other statements still run."""

    @pytest.mark.parametrize("call", ["pidfd_open", "memfd_create"])
    def test_isolated_statement_names_the_missing_call(
        self, monkeypatch, call
    ):
        monkeypatch.delattr(os, call)
        with _one_row_db() as db:
            _create_native(db, "inc", "plus_one")
            with pytest.raises(UDFInvocationError, match=f"os\\.{call}"):
                db.query("SELECT inc(a) FROM t")
            assert db.query("SELECT a + 1 FROM t") == [(2,)]


def _killed_worker_status():
    """The raw wait status of a child killed by SIGKILL, as the zygote
    reports it."""
    pid = os.fork()
    if pid == 0:
        os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)
    __, status = os.waitpid(pid, 0)
    return pid, status


class TestServerWait:
    """The server's wait on a channel pipe: a token sent before the
    worker died is taken first; EOF waits for the exit status."""

    def test_token_in_the_pipe_is_taken_before_the_death(self):
        pid, status = _killed_worker_status()
        rfd, wfd = os.pipe()
        sentinel, status_end = os.pipe()
        os.write(wfd, b"\0")
        os.close(wfd)
        os.write(status_end, isolated._STATUS.pack(status))
        os.close(status_end)
        token = isolated._PipeToken(rfd=rfd)
        peer = isolated._ZygoteChild(pid, sentinel)
        try:
            isolated._ShmChannel._acquire(token, peer)
            with pytest.raises(UDFCrashed, match="killed by SIGKILL"):
                isolated._ShmChannel._acquire(token, peer)
        finally:
            token.close()

    def test_eof_waits_for_the_exit_status(self):
        pid, status = _killed_worker_status()
        rfd, wfd = os.pipe()
        os.close(wfd)
        sentinel, status_end = os.pipe()

        def report_late():
            time.sleep(0.1)
            os.write(status_end, isolated._STATUS.pack(status))
            os.close(status_end)

        reporter = threading.Thread(target=report_late)
        token = isolated._PipeToken(rfd=rfd)
        peer = isolated._ZygoteChild(pid, sentinel)
        reporter.start()
        try:
            with pytest.raises(UDFCrashed, match="killed by SIGKILL"):
                isolated._ShmChannel._acquire(token, peer)
        finally:
            reporter.join(timeout=5.0)
            token.close()
        assert not reporter.is_alive()
