"""Every SQL consumer of a UDF enters the design through ``invoke_batch``.

SELECT scans and filters, sort keys, UPDATE/DELETE WHERE and UPDATE SET
hand a UDF whole batches; INSERT VALUES and plan-time folding evaluate
one row at a time.  Each design implements only
``invoke_batch`` (``invoke`` is a one-row batch), so patching a design's
executor class to count its ``invoke_batch`` calls sees every invocation
any statement makes.
"""

import os

import pytest

from repro.core import isolated
from repro.core.designs import Design
from repro.core.integrated import NativeIntegratedExecutor
from repro.core.isolated import RemoteExecutor
from repro.core.sandbox import SandboxExecutor
from repro.core.sfi import SFIExecutor
from repro.database import Database
from tests.sql.test_batch_parity import UDF_BY_DESIGN, triple

#: The class each design's executor is, to count its ``invoke_batch``.
EXECUTOR_CLASS = {
    Design.NATIVE_INTEGRATED: NativeIntegratedExecutor,
    Design.NATIVE_SFI: SFIExecutor,
    Design.NATIVE_ISOLATED: RemoteExecutor,
    Design.SANDBOX_JIT: SandboxExecutor,
    Design.SANDBOX_INTERP: SandboxExecutor,
    Design.SANDBOX_ISOLATED: RemoteExecutor,
}

ROWS = 12


def _database(design, rows=ROWS):
    db = Database()
    db.execute("CREATE TABLE t (id INT, x INT, c INT)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {(i * 7) % rows}, 0)" for i in range(rows))
    )
    db.execute(UDF_BY_DESIGN[design])  # t1(x) = triple(x) in every design
    return db


@pytest.fixture
def batches(monkeypatch):
    """Patch one executor class; return the batch sizes it was given."""
    def patch(cls):
        sizes = []
        inner = cls.invoke_batch

        def counting(self, args_list):
            sizes.append(len(args_list))
            return inner(self, args_list)

        monkeypatch.setattr(cls, "invoke_batch", counting)
        return sizes

    return patch


@pytest.mark.parametrize("design", tuple(Design))
def test_every_consumer_enters_through_invoke_batch(design, batches):
    with _database(design) as db:
        sizes = batches(EXECUTOR_CLASS[design])
        table = {i: (i * 7) % ROWS for i in range(ROWS)}  # id -> x

        # Sort key: one batch over the materialized rows.
        rows = db.query("SELECT id FROM t ORDER BY t1(x) DESC, id")
        assert [r[0] for r in rows] == sorted(
            table, key=lambda i: (-triple(table[i]), i)
        )
        assert sizes == [ROWS]

        # UPDATE SET: one batch over the 4 matches.
        sizes.clear()
        assert db.execute("UPDATE t SET c = t1(x) WHERE id < 4").rowcount == 4
        assert db.query("SELECT id, c FROM t WHERE id < 4 ORDER BY id") == [
            (i, triple(table[i])) for i in range(4)
        ]
        assert sizes == [4]

        # DELETE WHERE: a batch at a time, every row once.
        sizes.clear()
        doomed = [i for i in table if triple(table[i]) > 24]
        assert doomed
        assert db.execute(
            "DELETE FROM t WHERE t1(x) > 24"
        ).rowcount == len(doomed)
        assert sum(sizes) == ROWS
        for i in doomed:
            del table[i]
        assert sorted(r[0] for r in db.query("SELECT id FROM t")) == sorted(
            table
        )

        # INSERT VALUES: one call for the one value.
        sizes.clear()
        db.execute("INSERT INTO t VALUES (100, 5, t1(3))")
        assert db.query("SELECT c FROM t WHERE id = 100") == [(9,)]
        assert sizes == [1]

        # A pure (sandboxed) UDF over literals folds at plan time through
        # ``invoke``; a native one runs on the one selected row.  One
        # invocation either way.
        sizes.clear()
        assert db.query("SELECT id, t1(4) FROM t WHERE id = 100") == [
            (100, 12)
        ]
        assert sizes == [1]
        assert db.registry.get("t1").is_pure == design.is_sandboxed


def test_one_worker_per_isolated_udf_per_statement(monkeypatch):
    """An isolated UDF in both WHERE and SET of one UPDATE starts one
    worker process, as the same UDF in a SELECT's WHERE and list does:
    one ``_Worker`` and one fresh worker pid per statement.  The zygote
    forks the workers, so the server's one ``os.fork`` is the zygote's,
    at the first statement."""
    started = []
    pids = []
    forks = []
    inner = isolated._Worker.__init__
    fork = os.fork

    def counting(self, *args, **kwargs):
        started.append(self)
        inner(self, *args, **kwargs)
        pids.append(self.process.pid)

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(isolated._Worker, "__init__", counting)
    monkeypatch.setattr(os, "fork", counting_fork)
    with Database() as db:
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(20))
        )
        db.execute(
            "CREATE FUNCTION p1(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX_ISOLATED AS "
            "'def p1(x: int) -> int: return x + 1'"
        )
        assert len(db.query("SELECT p1(v) FROM t WHERE p1(id) > 10")) == 10
        zygote = db.environment.zygote.pid
        assert len(started) == len(pids) == 1
        assert forks == [zygote]
        started.clear()
        forks.clear()
        assert db.execute(
            "UPDATE t SET v = p1(v) WHERE p1(id) > 10"
        ).rowcount == 10
        assert len(started) == 1 and len(pids) == 2
        assert forks == []
        assert db.query("SELECT id, v FROM t WHERE id >= 9 ORDER BY id") == [
            (i, i * 2 + (i >= 10)) for i in range(9, 20)
        ]
        assert len(set(pids)) == 2 and zygote not in pids


@pytest.mark.parametrize("batch_size, crossings", [(64, 2), (1, 100)])
def test_dml_where_crosses_once_per_batch(batch_size, crossings, batches):
    """An isolated UDF in UPDATE/DELETE WHERE over 100 rows crosses once
    per batch of ``db.batch_size`` rows, not once per row."""
    with _database(Design.NATIVE_ISOLATED, rows=100) as db:
        db.batch_size = batch_size
        sizes = batches(RemoteExecutor)
        assert db.execute(
            "UPDATE t SET c = 1 WHERE t1(x) >= 150"
        ).rowcount == 50
        assert len(sizes) == crossings and sum(sizes) == 100
        sizes.clear()
        assert db.execute("DELETE FROM t WHERE t1(x) < 150").rowcount == 50
        assert len(sizes) == crossings and sum(sizes) == 100
        assert db.query("SELECT count(*), min(c) FROM t") == [(50, 1)]
