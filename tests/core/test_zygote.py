"""The isolated designs' zygote: what it holds, when it is replaced, and
what it costs the server.

The server forks one zygote per registry epoch; the zygote forks every
Design 2/4 worker, one per UDF per statement.
"""

import os
import resource
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.designs import Design
from repro.core.generic_udf import generic_definition
from repro.core.isolated import RemoteExecutor
from repro.database import Database
from repro.errors import UDFCrashed
from repro.server import Client, DatabaseServer

# -- native payloads (run in the worker) -------------------------------------


def plus_one(x):
    return x + 1


def times_ten(x):
    return x * 10


def kill_zygote(path):
    """Leave this worker's pid in ``path``, kill its parent, the zygote,
    then hang."""
    with open(path, "w") as out:
        out.write(str(os.getpid()))
    os.kill(os.getppid(), signal.SIGKILL)
    time.sleep(30)
    return 1


def buffers_mapped(x):
    """How many channel buffers this worker maps."""
    with open("/proc/self/maps") as maps:
        return sum("udf-executor-shm" in line for line in maps)


def gated(path):
    """Signal the start, then wait until ``<path>.go`` exists."""
    open(path + ".started", "w").close()
    while not os.path.exists(path + ".go"):
        time.sleep(0.01)
    return 1


def spin(path):
    """Leave this worker's pid and its zygote's in ``path``, then spin."""
    with open(path + ".tmp", "w") as out:
        out.write(f"{os.getpid()} {os.getppid()}")
    os.rename(path + ".tmp", path)
    while True:
        pass


def _native(db, name, function, param="int"):
    db.execute(
        f"CREATE FUNCTION {name}({param}) RETURNS int LANGUAGE NATIVE "
        f"DESIGN ISOLATED AS 'tests.core.test_zygote:{function}'"
    )


def _sandboxed(db, name, body):
    db.execute(
        f"CREATE FUNCTION {name}(int) RETURNS int LANGUAGE JAGUAR "
        f"DESIGN SANDBOX_ISOLATED AS "
        f"'def {name}(x: int) -> int: return {body}'"
    )


def _table(db, rows=4):
    db.execute("CREATE TABLE t (a INT)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(rows))
    )


def _fds(pid="self"):
    return sorted(int(fd) for fd in os.listdir(f"/proc/{pid}/fd"))


def _state(pid):
    """``/proc/<pid>`` state letter, ``None`` once the pid is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.fixture
def db():
    with Database() as database:
        _table(database)
        yield database


class TestStalePrograms:
    """A zygote serves only programs it inherited: a registry change
    retires it, so a re-created or new UDF runs its own body."""

    def test_recreated_sandboxed_udf_runs_its_new_body(self, db):
        _sandboxed(db, "f", "x + 1")
        assert db.query("SELECT f(a) FROM t") == [(1,), (2,), (3,), (4,)]
        first = db.environment.zygote.pid
        db.execute("DROP FUNCTION f")
        _sandboxed(db, "f", "x * 100")
        assert db.query("SELECT f(a) FROM t") == [(0,), (100,), (200,),
                                                  (300,)]
        assert db.environment.zygote.pid not in (None, first)

    def test_recreated_native_udf_runs_its_new_function(self, db):
        _native(db, "g", "plus_one")
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]
        db.execute("DROP FUNCTION g")
        first = db.environment.zygote.pid
        _native(db, "g", "times_ten")
        assert db.query("SELECT g(a) FROM t") == [(0,), (10,), (20,), (30,)]
        assert db.environment.zygote.pid not in (None, first)

    def test_udf_created_after_the_zygote_works_at_once(self, db):
        _native(db, "g", "plus_one")
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]
        assert db.environment.zygote.pid is not None
        _sandboxed(db, "late", "x - 1")
        _native(db, "later", "times_ten")
        assert db.query("SELECT late(a), later(a) FROM t") == [
            (x - 1, x * 10) for x in range(4)
        ]

    def test_program_the_zygote_does_not_hold_retires_it(self, db):
        _sandboxed(db, "f", "x + 1")
        db.query("SELECT f(a) FROM t")
        first = db.environment.zygote.pid
        # Built straight from a definition, the program is loaded here,
        # after the zygote was forked.
        definition = generic_definition(Design.SANDBOX_ISOLATED, name="un")
        executor = RemoteExecutor(definition, db.environment)
        executor.begin_query(db.broker.bind())
        try:
            assert executor.invoke([b"\x03\x04", 1, 1, 0]) == 8
        finally:
            executor.close()
        assert db.environment.zygote.pid not in (None, first)


class TestLifecycle:
    def test_zygote_holds_only_stdio_and_its_control_socket(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            _table(db)
            _native(db, "g", "plus_one")
            db.checkpoint()
            with DatabaseServer(db) as server, Client(
                server.host, server.port
            ) as client:
                assert client.execute("SELECT g(a) FROM t").rows == [
                    (1,), (2,), (3,), (4,)
                ]
                zygote = db.environment.zygote.pid
                # The zygote closes the worker's status pipe a moment
                # after the server read the status from it.
                _wait_for(lambda: len(_fds(zygote)) <= 4)
                fds = _fds(zygote)
                targets = [
                    os.readlink(f"/proc/{zygote}/fd/{fd}") for fd in fds
                ]
        assert fds[:3] == [0, 1, 2] and len(fds) == 4
        assert targets[0] == os.devnull
        assert targets[3].startswith("socket:")
        assert not [
            target for target in targets
            if target.endswith(("data.pages", "wal.log"))
        ]

    def test_zygote_killed_between_statements_is_replaced(self, db):
        _native(db, "g", "plus_one")
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]
        first = db.environment.zygote.pid
        os.kill(first, signal.SIGKILL)
        _wait_for(lambda: _state(first) == "Z")
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]
        assert db.environment.zygote.pid != first
        assert _state(first) is None  # reaped

    def test_zygote_killed_mid_statement_fails_the_statement(
        self, db, tmp_path
    ):
        path = str(tmp_path / "worker.pid")
        db.execute("CREATE TABLE one (p TEXT)")
        db.execute(f"INSERT INTO one VALUES ('{path}')")
        _native(db, "assassin", "kill_zygote", param="text")
        _native(db, "g", "plus_one")
        started = time.monotonic()
        with pytest.raises(UDFCrashed, match="zygote died"):
            db.query("SELECT assassin(p) FROM one")
        assert time.monotonic() - started < 10
        # The orphaned worker does not outlive its zygote.
        with open(path) as worker:
            orphan = int(worker.read())
        _wait_for(lambda: _state(orphan) in (None, "Z"))
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]

    def test_close_reaps_the_zygote_and_every_fd(self):
        start = len(_fds())
        with Database() as db:
            _table(db)
            _native(db, "g", "plus_one")
            db.query("SELECT g(a) FROM t")
            zygote = db.environment.zygote.pid
        with pytest.raises(ChildProcessError):
            os.waitpid(zygote, os.WNOHANG)
        assert len(_fds()) == start

    def test_retired_zygote_exits_after_its_last_worker(self, db, tmp_path):
        gate = str(tmp_path / "gate")
        db.execute("CREATE TABLE one (p TEXT)")
        db.execute(f"INSERT INTO one VALUES ('{gate}')")
        _native(db, "wait", "gated", param="text")
        results = []
        statement = threading.Thread(
            target=lambda: results.append(db.query("SELECT wait(p) FROM one"))
        )
        statement.start()
        try:
            _wait_for(lambda: os.path.exists(gate + ".started"))
            retired = db.environment.zygote.pid
            _native(db, "g", "plus_one")  # a registry change retires it
            # The next zygote is forked while the gated worker's buffer
            # is mapped in the server; its workers map only their own.
            _native(db, "maps", "buffers_mapped")
            assert db.query("SELECT maps(a) FROM t") == [(1,)] * 4
            assert _state(retired) not in (None, "Z")  # its worker lives
        finally:
            open(gate + ".go", "w").close()
            statement.join(10)
        assert results == [[(1,)]]
        _wait_for(lambda: _state(retired) in (None, "Z"))
        assert db.query("SELECT g(a) FROM t") == [(1,), (2,), (3,), (4,)]
        assert db.environment.zygote.pid != retired


ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

#: A server that dies by ``os._exit`` while an isolated UDF spins.
DYING_SERVER = """
import os, sys, threading, time
from repro.database import Database
path = sys.argv[1]
db = Database()
db.execute("CREATE TABLE one (p TEXT)")
db.execute(f"INSERT INTO one VALUES ('{path}')")
db.execute("CREATE FUNCTION spin(text) RETURNS int LANGUAGE NATIVE "
           "DESIGN ISOLATED AS 'tests.core.test_zygote:spin'")
threading.Thread(target=db.query, args=("SELECT spin(p) FROM one",),
                 daemon=True).start()
while not os.path.exists(path):
    time.sleep(0.01)
os._exit(0)
"""


class TestNothingOutlivesItsServer:
    """EOF on the zygote's control socket means its server is gone: the
    zygote kills and reaps its workers and exits.  The children's output
    goes nowhere the test reads, since they inherit the server's."""

    def test_zygote_and_spinning_worker_die_with_the_server(self, tmp_path):
        path = str(tmp_path / "pids")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        ))
        server = subprocess.Popen(
            [sys.executable, "-c", DYING_SERVER, path], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        pids = []
        try:
            assert server.wait(timeout=60) == 0
            with open(path) as out:
                pids = [int(pid) for pid in out.read().split()]
            _wait_for(
                lambda: all(_state(pid) in (None, "Z") for pid in pids),
                timeout=5.0,
            )
        finally:
            for pid in pids:
                if _state(pid) not in (None, "Z"):
                    os.kill(pid, signal.SIGKILL)
            if server.poll() is None:
                server.kill()
                server.wait()


class TestServerPaysNoCopyOnWrite:
    """Forking a worker from the server write-protected the server's
    whole heap: the server then took a page fault on each page it next
    wrote (~600 per isolated statement).  A worker forked from the
    zygote leaves the server's pages alone."""

    @pytest.mark.parametrize("design", ["native", "sandbox"])
    def test_isolated_statement_costs_few_server_page_faults(self, design):
        with Database() as db:
            _table(db, rows=20)
            if design == "native":
                _native(db, "f", "plus_one")
            else:
                _sandboxed(db, "f", "x + 1")
            expected = [(x + 1,) for x in range(20)]
            for __ in range(3):
                assert db.query("SELECT f(a) FROM t") == expected
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for __ in range(20):
                db.query("SELECT f(a) FROM t")
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert (after - before) / 20 < 100
