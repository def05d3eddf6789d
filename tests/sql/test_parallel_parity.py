"""Parallelism parity: the isolated worker pool must never change results.

``parallelism`` is the width of each isolated UDF's worker pool and
nothing else.  Two layers of guarantees, mirroring ``test_batch_parity``:

* pool level: a :class:`~repro.core.isolated.RemoteExecutor` with
  ``parallelism > 1`` shards each batch across worker processes but must
  reassemble results in input order, even when per-argument work is
  deliberately skewed so the shards finish out of order;
* query level: every query under every design returns exactly what
  ``parallelism = 1`` returns, order included, an isolated query's
  batches really run on ``parallelism`` distinct worker processes, and
  plans (EXPLAIN, the plan cache) do not depend on the width at all.

Plus the failure-surface contracts the pool adds: worker death carries
the exit status, ``close()`` reaps every worker, and ``channel_stats``
breaks traffic down per worker.
"""

import os
import time

import pytest

from repro.core.designs import Design
from repro.core.isolated import RemoteExecutor
from repro.database import Database
from repro.errors import UDFCrashed

PARALLELISM_LEVELS = (2, 4)


# -- UDF payloads (module-level so worker processes can import them) ----------

def slow_triple(x):
    """Skewed per-argument work: shards finish out of dispatch order."""
    time.sleep((x % 3) * 0.002)
    return x * 3


def die42(x):
    """Hard-crash the worker with a recognizable exit status."""
    os._exit(42)


def worker_pid(x):
    """The pid of the process the call runs in."""
    return os.getpid()


# -- fixtures -----------------------------------------------------------------

SETUP = """
CREATE TABLE stocks (id INT, price INT, type TEXT);
INSERT INTO stocks VALUES (1, 10, 'tech');
INSERT INTO stocks VALUES (2, NULL, 'oil');
INSERT INTO stocks VALUES (3, 10, 'tech');
INSERT INTO stocks VALUES (4, -5, NULL);
INSERT INTO stocks VALUES (5, 7, 'oil');
INSERT INTO stocks VALUES (6, 10, 'gas');
INSERT INTO stocks VALUES (7, NULL, 'tech');
INSERT INTO stocks VALUES (8, 7, 'gas');
INSERT INTO stocks VALUES (9, 0, 'oil');
INSERT INTO stocks VALUES (10, 3, 'tech');
"""

#: Every design's ``t1`` declares COST 500, an expensive UDF whose
#: predicates the optimizer orders after the cheap built-in ones.
UDF_BY_DESIGN = {
    Design.NATIVE_INTEGRATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN INTEGRATED COST 500 "
        "AS 'tests.sql.test_parallel_parity:slow_triple'"
    ),
    Design.NATIVE_SFI: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN SFI COST 500 "
        "AS 'tests.sql.test_parallel_parity:slow_triple'"
    ),
    Design.NATIVE_ISOLATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN ISOLATED COST 500 "
        "AS 'tests.sql.test_parallel_parity:slow_triple'"
    ),
    Design.SANDBOX_JIT: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX COST 500 "
        "AS 'def t1(x: int) -> int:\n    return x * 3'"
    ),
    Design.SANDBOX_INTERP: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX_INTERP COST 500 "
        "AS 'def t1(x: int) -> int:\n    return x * 3'"
    ),
    Design.SANDBOX_ISOLATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX_ISOLATED COST 500 "
        "AS 'def t1(x: int) -> int:\n    return x * 3'"
    ),
}

QUERIES = [
    "SELECT id, t1(id) FROM stocks ORDER BY id",
    "SELECT id FROM stocks WHERE t1(id) > 12 AND type <> 'gas' ORDER BY id",
    "SELECT id FROM stocks WHERE price IS NULL OR t1(id) < 10 ORDER BY id",
    "SELECT type, count(*), sum(t1(price)) FROM stocks "
    "GROUP BY type ORDER BY type",
    "SELECT id FROM stocks WHERE id BETWEEN 2 AND 8 "
    "AND type IN ('tech', 'oil') ORDER BY t1(id) DESC LIMIT 3",
]

#: Isolated designs spawn ``parallelism`` workers per UDF query, so the
#: cross-design matrix runs a representative subset for them.
ISOLATED_QUERIES = QUERIES[1:3]

IN_PROCESS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_SFI,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)
ISOLATED = (Design.NATIVE_ISOLATED, Design.SANDBOX_ISOLATED)


def _fresh_db(design, parallelism=1):
    db = Database(parallelism=parallelism)
    for statement in SETUP.strip().split(";"):
        if statement.strip():
            db.execute(statement)
    db.execute(UDF_BY_DESIGN[design])
    return db


# -- query-level parity across designs ----------------------------------------

class TestQueryParityAcrossDesigns:
    @pytest.mark.parametrize("design", IN_PROCESS)
    def test_in_process_designs(self, design):
        with _fresh_db(design) as db:
            reference = {sql: db.query(sql) for sql in QUERIES}
            for level in PARALLELISM_LEVELS:
                db.parallelism = level
                for sql in QUERIES:
                    assert db.query(sql) == reference[sql], (sql, level)

    @pytest.mark.parametrize("design", ISOLATED)
    def test_isolated_designs(self, design):
        with _fresh_db(design) as db:
            reference = {sql: db.query(sql) for sql in ISOLATED_QUERIES}
            for level in PARALLELISM_LEVELS:
                db.parallelism = level
                for sql in ISOLATED_QUERIES:
                    assert db.query(sql) == reference[sql], (sql, level)


class TestPlansIgnoreParallelism:
    """Plans do not read ``parallelism``; only an isolated call's
    ``workers=N`` note names the pool width."""

    @pytest.mark.parametrize("design", IN_PROCESS + ISOLATED)
    def test_explain_identical_at_one_and_two(self, design):
        with _fresh_db(design) as db:
            plans = {}
            for level in (1, 2):
                db.parallelism = level
                plans[level] = [
                    line for sql in QUERIES
                    for (line,) in db.execute("EXPLAIN " + sql)
                ]
        if design.is_isolated:
            assert any("workers=1" in line for line in plans[1])
            assert [
                line.replace("workers=1", "workers=2") for line in plans[1]
            ] == plans[2]
        else:
            assert plans[1] == plans[2]
            assert not any("workers=" in line for line in plans[1])

    @pytest.mark.parametrize("design", IN_PROCESS + ISOLATED)
    def test_warm_statement_hits_after_width_change(self, design):
        sql = ISOLATED_QUERIES[0]
        with _fresh_db(design) as db:
            expected = db.query(sql)
            db.parallelism = 2
            before = db.stats()["plan_cache"]
            assert db.query(sql) == expected
            after = db.stats()["plan_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["invalidations"] == before["invalidations"]

    def test_callback_udf_shows_one_worker(self):
        with Database(parallelism=2) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute(
                "CREATE FUNCTION ping(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX_ISOLATED CALLBACKS 'cb_noop' "
                "AS 'def ping(x: int) -> int:\n    return x + cb_noop()'"
            )
            lines = [line for (line,) in db.execute(
                "EXPLAIN SELECT ping(a) FROM t WHERE ping(a) > 0"
            )]
        assert sum("workers=1" in line for line in lines) == 2
        assert not any("workers=2" in line for line in lines)


class TestQueryShardsAcrossWorkers:
    """An isolated query's batches run on ``parallelism`` worker
    processes, none of them the server."""

    ROWS = 128

    def _db(self, parallelism, ddl):
        db = Database(parallelism=parallelism)
        db.execute("CREATE TABLE t (a INT)")
        for start in range(0, self.ROWS, 32):
            values = ", ".join(
                f"({x})" for x in range(start, start + 32)
            )
            db.execute(f"INSERT INTO t VALUES {values}")
        db.execute(ddl)
        return db

    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_native_rows_carry_pool_width_worker_pids(self, parallelism):
        ddl = (
            "CREATE FUNCTION pid(int) RETURNS int LANGUAGE NATIVE "
            "DESIGN ISOLATED AS 'tests.sql.test_parallel_parity:worker_pid'"
        )
        with self._db(parallelism, ddl) as db:
            rows = db.query("SELECT pid(a) FROM t")
            zygote = db.environment.zygote.pid
        pids = {pid for (pid,) in rows}
        assert len(rows) == self.ROWS
        assert len(pids) == parallelism
        assert os.getpid() not in pids
        assert zygote not in pids

    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_sandboxed_batches_reach_pool_width_workers(
        self, parallelism, monkeypatch
    ):
        # A sandboxed UDF cannot read its pid (no callback exposes one,
        # and a UDF with callbacks keeps one worker), so count the
        # workers whose channel carried a request instead.
        busy = []
        end_query = RemoteExecutor.end_query

        def record(executor):
            busy.append(sum(
                1 for worker in executor.channel_stats()["per_worker"]
                if worker["messages_sent"] > 0
            ))
            end_query(executor)

        monkeypatch.setattr(RemoteExecutor, "end_query", record)
        ddl = UDF_BY_DESIGN[Design.SANDBOX_ISOLATED]
        with self._db(parallelism, ddl) as db:
            rows = db.query("SELECT t1(a) FROM t")
        assert rows == [(x * 3,) for x in range(self.ROWS)]
        assert busy == [parallelism]


# -- pool-level contracts -----------------------------------------------------

def _native_definition(name, payload):
    from repro.core.udf import UDFDefinition, UDFSignature

    return UDFDefinition(
        name=name,
        signature=UDFSignature(("int",), "int"),
        design=Design.NATIVE_ISOLATED,
        payload=payload.encode(),
        entry=payload.split(":")[1],
    )


@pytest.fixture
def env():
    from repro.core.callbacks import CallbackBroker
    from repro.core.udf import ServerEnvironment
    from repro.vm.machine import JaguarVM

    broker = CallbackBroker()
    environment = ServerEnvironment(
        vm=JaguarVM(broker.signatures()), broker=broker
    )
    yield environment
    environment.close()


class TestWorkerPool:
    def test_batch_order_preserved_across_skewed_shards(self, env):
        definition = _native_definition(
            "slow3", "tests.sql.test_parallel_parity:slow_triple"
        )
        executor = RemoteExecutor(definition, env, parallelism=3)
        try:
            executor.begin_query(env.broker.bind())
            args = [(x,) for x in range(40)]
            assert executor.invoke_batch(args) == [x * 3 for x in range(40)]
            assert executor.pool_size == 3
        finally:
            executor.close()

    def test_worker_death_surfaces_exit_status(self, env):
        definition = _native_definition(
            "dies", "tests.sql.test_parallel_parity:die42"
        )
        executor = RemoteExecutor(definition, env, parallelism=2)
        try:
            executor.begin_query(env.broker.bind())
            with pytest.raises(UDFCrashed, match="exit code 42"):
                executor.invoke_batch([(x,) for x in range(16)])
        finally:
            executor.close()

    def test_close_reaps_every_worker(self, env):
        definition = _native_definition(
            "reap", "tests.sql.test_parallel_parity:slow_triple"
        )
        executor = RemoteExecutor(definition, env, parallelism=3)
        executor.begin_query(env.broker.bind())
        processes = [w.process for w in executor._pool.workers]
        assert len(processes) == 3
        executor.invoke_batch([(x,) for x in range(24)])
        executor.close()
        for process in processes:
            assert not process.is_alive()
        # Idempotent, and invocation after close is a clean error.
        executor.close()

    def test_per_worker_stats_roll_up(self, env):
        definition = _native_definition(
            "stats", "tests.sql.test_parallel_parity:slow_triple"
        )
        executor = RemoteExecutor(definition, env, parallelism=3)
        try:
            executor.begin_query(env.broker.bind())
            executor.invoke_batch([(x,) for x in range(30)])
            stats = executor.channel_stats()
            assert stats["workers"] == 3
            assert len(stats["per_worker"]) == 3
            for key in ("messages_sent", "messages_received",
                        "chunks_sent", "chunks_received"):
                assert stats[key] == sum(w[key] for w in stats["per_worker"])
        finally:
            executor.close()

    def test_small_batches_stay_on_one_worker(self, env):
        # Below _MIN_SHARD_ROWS per shard, fanning out costs more than
        # it saves: a 4-row batch must use a single round trip.
        definition = _native_definition(
            "tiny", "tests.sql.test_parallel_parity:slow_triple"
        )
        executor = RemoteExecutor(definition, env, parallelism=3)
        try:
            executor.begin_query(env.broker.bind())
            assert executor.invoke_batch([(x,) for x in range(4)]) == [
                0, 3, 6, 9
            ]
            stats = executor.channel_stats()
            busy = [w for w in stats["per_worker"]
                    if w["messages_sent"] > 0]
            assert len(busy) == 1
        finally:
            executor.close()
