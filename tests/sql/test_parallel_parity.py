"""Parallelism parity: parallel execution must never change results.

Two layers of guarantees, mirroring ``test_batch_parity``:

* pool level: a :class:`~repro.core.isolated.RemoteExecutor` with
  ``parallelism > 1`` shards each batch across worker processes but must
  reassemble results in input order, even when per-argument work is
  deliberately skewed so the shards finish out of order;
* operator/query level: the Exchange operator dispatches batches to a
  thread pool but collects them in dispatch order, so every query under
  every design returns exactly what ``parallelism = 1`` returns — order
  included wherever the serial executor guaranteed it.

Plus the failure-surface contracts the parallel layer adds: worker
death carries the exit status, ``close()`` reaps every worker, EXPLAIN
shows the parallel region, and ``channel_stats`` breaks traffic down
per worker.
"""

import os
import time

import pytest

from repro.core.designs import Design
from repro.core.isolated import RemoteExecutor
from repro.database import Database
from repro.errors import UDFCrashed
from repro.sql.operators import Exchange
from tests.sql.sources import Rows

PARALLELISM_LEVELS = (2, 4)


# -- UDF payloads (module-level so worker processes can import them) ----------

def slow_triple(x):
    """Skewed per-argument work: shards finish out of dispatch order."""
    time.sleep((x % 3) * 0.002)
    return x * 3


def die42(x):
    """Hard-crash the worker with a recognizable exit status."""
    os._exit(42)


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

#: Every design's ``t1`` declares COST 500 so the optimizer treats it
#: as expensive: the pure sandbox variants then get an Exchange, the
#: impure/native ones must *not* (purity gate) — both paths are under
#: parity test.
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

    def test_explain_shows_parallel_region_for_pure_udf(self):
        with _fresh_db(Design.SANDBOX_JIT, parallelism=3) as db:
            lines = [row[0] for row in db.execute(
                "EXPLAIN SELECT id FROM stocks "
                "WHERE t1(id) > 12 AND type <> 'gas'"
            )]
            assert any("Exchange [parallel=3]" in line for line in lines)

    def test_no_exchange_for_impure_native_udf(self):
        # Native UDFs are never analyzer-proven pure: the purity gate
        # must keep them out of Exchange regions (they still get pool
        # sharding inside invoke_batch when isolated).
        with _fresh_db(Design.NATIVE_INTEGRATED, parallelism=3) as db:
            lines = [row[0] for row in db.execute(
                "EXPLAIN SELECT id FROM stocks WHERE t1(id) > 12"
            )]
            assert not any("Exchange" in line for line in lines)

    def test_no_exchange_at_parallelism_one(self):
        with _fresh_db(Design.SANDBOX_JIT, parallelism=1) as db:
            lines = [row[0] for row in db.execute(
                "EXPLAIN SELECT id FROM stocks WHERE t1(id) > 12"
            )]
            assert not any("Exchange" in line for line in lines)


# -- Exchange operator unit tests ---------------------------------------------

class TestExchangeOperator:
    def _source(self):
        return Rows([[x] for x in range(20)], batch_size=2)

    def test_preserves_batch_order_under_skew(self):
        def stage(batch):
            # Later batches sleep less: without ordered collection the
            # output would arrive reversed.
            time.sleep(max(0.0, (10 - batch[0][0]) * 0.002))
            return [[row[0] * 2] for row in batch]

        exchange = Exchange(self._source(), stage, parallelism=4,
                            batch_size=2)
        assert list(exchange.rows()) == [[x * 2] for x in range(20)]

    def test_parallelism_one_is_serial_identity(self):
        stage = lambda batch: [[row[0] + 1] for row in batch]  # noqa: E731
        serial = Exchange(self._source(), stage, parallelism=1,
                          batch_size=2)
        threaded = Exchange(self._source(), stage, parallelism=3,
                            batch_size=2)
        assert list(serial.rows()) == list(threaded.rows())

    def test_empty_stage_outputs_are_dropped(self):
        def stage(batch):
            return [row for row in batch if row[0] % 2 == 0]

        exchange = Exchange(self._source(), stage, parallelism=3,
                            batch_size=2)
        assert list(exchange.rows()) == [[x] for x in range(0, 20, 2)]

    def test_stage_error_propagates(self):
        def stage(batch):
            raise ValueError("stage blew up")

        exchange = Exchange(self._source(), stage, parallelism=3,
                            batch_size=2)
        with pytest.raises(ValueError, match="stage blew up"):
            list(exchange.rows())


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
