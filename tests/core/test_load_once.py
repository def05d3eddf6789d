"""Load once, fork warm: a sandboxed UDF's load-time work (compile,
verify + analyse, JIT, tier-1 kernel) happens at CREATE FUNCTION and
never per query, for all three sandboxed designs, isolated workers
included."""

import pytest

import repro.core.isolated as isolated
import repro.core.sandbox as sandbox
import repro.vm.compiler as compiler
import repro.vm.jit as jit
import repro.vm.kernels as kernels
from repro.database import Database
from repro.errors import FuelExhausted, UDFCrashed
from repro.server import Client, DatabaseServer
from repro.vm.classloader import ClassLoader
from repro.vm.resources import QuotaPolicy

DESIGNS = ("SANDBOX", "SANDBOX_INTERP", "SANDBOX_ISOLATED")

PLAIN = "def plain(x: int) -> int:\n    return x * 3 + 1"
HELPED = (
    "def twice(x: int) -> int:\n    return x * 2\n"
    "def helped(x: int) -> int:\n"
    "    s = 0\n    i = 0\n"
    "    while i < 5:\n        s = s + twice(i)\n        i = i + 1\n"
    "    return s + x"
)
CALLING = "def calling(x: int) -> int:\n    return x + cb_noop() + cb_noop()"
LOOP = (
    "def spin(n: int) -> int:\n"
    "    i = 0\n    while i < n:\n        i = i + 1\n    return i"
)

#: name -> (source, CALLBACKS clause, python oracle)
BODIES = {
    "plain": (PLAIN, "", lambda x: x * 3 + 1),
    "helped": (HELPED, "", lambda x: 20 + x),
    "calling": (CALLING, "CALLBACKS 'cb_noop' ", lambda x: x),
}


def create(db, name, design, source, clause=""):
    body = source.replace("'", "''")
    db.execute(
        f"CREATE FUNCTION {name}(int) RETURNS int LANGUAGE JAGUAR "
        f"DESIGN {design} {clause}AS '{body}'"
    )


def fill(db, rows=4):
    db.execute("CREATE TABLE t (a INT)")
    for value in range(rows):
        db.execute(f"INSERT INTO t VALUES ({value})")


@pytest.fixture
def loads(monkeypatch):
    """Counts ``define_class`` calls (verify + analyse ride inside it)."""
    calls = []
    original = ClassLoader.define_class

    def counting(self, source):
        calls.append(self.name)
        return original(self, source)

    monkeypatch.setattr(ClassLoader, "define_class", counting)
    return calls


def forbid_load_time_work(monkeypatch):
    """From here on, compiling, loading, JIT-compiling or building a
    tier-1 kernel is a failure.

    Forked workers inherit the patches, so this covers them too.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("load-time work at query time")

    monkeypatch.setattr(ClassLoader, "define_class", refuse)
    monkeypatch.setattr(compiler, "compile_source", refuse)
    monkeypatch.setattr(sandbox, "compile_source", refuse)
    monkeypatch.setattr(jit, "compile_function", refuse)
    monkeypatch.setattr(kernels, "compile_batch_kernel", refuse)


class TestNoLoadTimeWorkAtQueryTime:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_statements_run_with_loading_forbidden(
        self, db, design, monkeypatch
    ):
        fill(db)
        for name, (source, clause, __) in BODIES.items():
            create(db, name, design, source, clause)
        forbid_load_time_work(monkeypatch)
        for name, (__, __, oracle) in BODIES.items():
            for __ in range(2):  # the second run is a plan-cache hit
                rows = db.query(f"SELECT {name}(a) FROM t")
                assert rows == [(oracle(x),) for x in range(4)]

    @pytest.mark.parametrize("design", DESIGNS)
    def test_one_load_per_create_function(self, db, design, loads):
        fill(db)
        create(db, "helped", design, HELPED)
        assert loads == ["udf:helped"]
        db.query("SELECT helped(a) FROM t")
        # A private executor (what concurrent snapshot reads get) shares
        # the program, and closing it unloads nothing.
        private = db.registry.executor_for_query("helped", private=True)
        private.begin_query()
        assert private.invoke([1]) == 21
        private.close()
        assert db.query("SELECT helped(a) FROM t") == [
            (20 + x,) for x in range(4)
        ]
        assert loads == ["udf:helped"]
        assert db.vm.get_udf("helped") is private._loaded

    def test_jit_compiles_once_at_create_function(self, db, monkeypatch):
        compiled = []
        original = jit.compile_function

        def counting(cls, func, ctx, compiler_):
            compiled.append(func.name)
            return original(cls, func, ctx, compiler_)

        monkeypatch.setattr(jit, "compile_function", counting)
        fill(db)
        create(db, "helped", "SANDBOX_ISOLATED", HELPED)
        create(db, "slow", "SANDBOX_INTERP", PLAIN.replace("plain", "slow"))
        assert sorted(compiled) == ["helped", "twice"]
        db.query("SELECT helped(a), slow(a) FROM t")
        assert sorted(compiled) == ["helped", "twice"]

    def test_rejected_create_function_leaves_nothing_loaded(self, db):
        with pytest.raises(Exception, match="does not match declaration"):
            db.execute(
                "CREATE FUNCTION plain(int) RETURNS float LANGUAGE JAGUAR "
                f"DESIGN SANDBOX_ISOLATED AS '{PLAIN}'"
            )
        assert "plain" not in db.vm.loaded_udfs
        create(db, "plain", "SANDBOX_ISOLATED", PLAIN)  # name is free


class TestWorkerEnforcesServerPolicy:
    def test_isolated_worker_runs_under_the_vm_quota_policy(self, db):
        """The worker runs the server's program, so it enforces the server
        VM's ``QuotaPolicy``, not a VM-less ``DEFAULT_POLICY``: the same
        loop dies of the same error in all three designs."""
        db.vm.policy = QuotaPolicy(fuel=3000)
        fill(db, rows=1)
        for design in DESIGNS:
            name = f"spin_{design.lower()}"
            create(db, name, design, LOOP.replace("spin", name))
            assert db.query(f"SELECT {name}(a + 10) FROM t") == [(10,)]
            with pytest.raises(FuelExhausted):
                db.query(f"SELECT {name}(a + 100000) FROM t")


class TestStalenessAndContainment:
    def test_recreated_function_is_what_runs_next(self, db):
        fill(db)
        sql = "SELECT f(a) FROM t"
        create(db, "f", "SANDBOX_ISOLATED", PLAIN.replace("plain", "f"))
        with DatabaseServer(db) as server, Client(
            server.host, server.port
        ) as client:
            assert db.query(sql) == [(x * 3 + 1,) for x in range(4)]
            assert client.execute(sql).rows == db.query(sql)
            first = db.vm.get_udf("f")
            client.execute("DROP FUNCTION f")
            assert "f" not in db.vm.loaded_udfs
            create(db, "f", "SANDBOX_ISOLATED",
                   "def f(x: int) -> int:\n    return x - 7")
            assert db.vm.get_udf("f") is not first
            assert client.execute(sql).rows == [(x - 7,) for x in range(4)]
            assert db.query(sql) == [(x - 7,) for x in range(4)]

    def test_killed_worker_does_not_cost_a_reload(
        self, db, loads, monkeypatch
    ):
        fill(db)
        create(db, "calling", "SANDBOX_ISOLATED", CALLING,
               "CALLBACKS 'cb_noop' ")
        executors = []
        original = isolated.RemoteExecutor.invoke_batch

        def tracking(self, args_list):
            executors.append(self)
            return original(self, args_list)

        monkeypatch.setattr(isolated.RemoteExecutor, "invoke_batch", tracking)

        def kill_the_caller(binding):
            # The worker is mid-batch, blocked on this callback's reply.
            executors[-1]._pool.workers[0].process.kill()
            return 0

        healthy = db.broker._handlers["cb_noop"]
        db.broker._handlers["cb_noop"] = kill_the_caller
        try:
            with pytest.raises(UDFCrashed, match="SIGKILL"):
                db.query("SELECT calling(a) FROM t")
        finally:
            db.broker._handlers["cb_noop"] = healthy
        assert db.query("SELECT calling(a) FROM t") == [
            (x,) for x in range(4)
        ]
        assert loads == ["udf:calling"]

    def test_reopened_database_loads_each_udf_once(self, db_path, loads):
        with Database(db_path) as first:
            fill(first)
            create(first, "helped", "SANDBOX_ISOLATED", HELPED)
        del loads[:]
        with Database(db_path) as reopened:
            assert loads == ["udf:helped"]
            assert reopened.query("SELECT helped(a) FROM t") == [
                (20 + x,) for x in range(4)
            ]
            assert loads == ["udf:helped"]


@pytest.fixture
def kernel_compiles(monkeypatch):
    """Names of the functions ``compile_batch_kernel`` compiled."""
    compiled = []
    original = kernels.compile_batch_kernel

    def counting(cls, func, ctx, compiler_):
        compiled.append(func.name)
        return original(cls, func, ctx, compiler_)

    monkeypatch.setattr(kernels, "compile_batch_kernel", counting)
    return compiled


class TestKernelBuiltOnce:
    """Tier 1 is decided at CREATE FUNCTION: one kernel compile per
    eligible JIT-design registration, none at query time anywhere."""

    @pytest.mark.parametrize("where", ("embedded", "snapshots", "isolated"))
    def test_statements_run_through_the_load_time_kernel(
        self, db, where, kernel_batches, monkeypatch
    ):
        fill(db)
        design = "SANDBOX_ISOLATED" if where == "isolated" else "SANDBOX"
        create(db, "plain", design, PLAIN)
        if where == "snapshots":
            # The server's setting: every read pins a snapshot and gets
            # private executors, fresh per statement.
            db.snapshots.enable(db)
        forbid_load_time_work(monkeypatch)
        for __ in range(2):
            assert db.query("SELECT plain(a) FROM t") == [
                (x * 3 + 1,) for x in range(4)
            ]
        assert kernel_batches.value == 2

    def test_one_compile_per_eligible_jit_registration(
        self, db, kernel_compiles
    ):
        fill(db)
        create(db, "plain", "SANDBOX", PLAIN)
        create(db, "iso", "SANDBOX_ISOLATED", PLAIN.replace("plain", "iso"))
        create(db, "calling", "SANDBOX", CALLING, "CALLBACKS 'cb_noop' ")
        # SANDBOX_INTERP stays an interpreter: its eligible body is never
        # handed to the kernel compiler.
        create(db, "slow", "SANDBOX_INTERP", PLAIN.replace("plain", "slow"))
        assert sorted(kernel_compiles) == ["iso", "plain"]
        assert db.vm.get_udf("calling").kernel_refusal == "callback"
        assert db.vm.get_udf("slow").kernel is None
        db.query("SELECT plain(a), iso(a), calling(a), slow(a) FROM t")
        assert sorted(kernel_compiles) == ["iso", "plain"]

    def test_drop_and_create_compiles_once_more(self, db, kernel_compiles):
        fill(db)
        create(db, "plain", "SANDBOX", PLAIN)
        db.execute("DROP FUNCTION plain")
        create(db, "plain", "SANDBOX", PLAIN)
        assert kernel_compiles == ["plain", "plain"]
        db.query("SELECT plain(a) FROM t")
        assert kernel_compiles == ["plain", "plain"]

    def test_reopened_database_compiles_once_at_catalog_load(
        self, db_path, kernel_compiles
    ):
        with Database(db_path) as first:
            fill(first)
            create(first, "plain", "SANDBOX", PLAIN)
        del kernel_compiles[:]
        with Database(db_path) as reopened:
            assert kernel_compiles == ["plain"]
            assert reopened.query("SELECT plain(a) FROM t") == [
                (x * 3 + 1,) for x in range(4)
            ]
            assert kernel_compiles == ["plain"]
