"""Crash context: a dead pool worker names itself and its shard.

``UDFCrashed`` raised for a worker that died mid-batch must carry which
worker index died and which half-open ``(start, stop)`` slice of the
input batch it was executing — with or without metrics enabled.
"""

import os

import pytest

from repro.core.designs import Design
from repro.core.isolated import RemoteExecutor
from repro.database import Database
from repro.errors import UDFCrashed


def die42(x):
    """Hard-crash the worker with a recognizable exit status."""
    os._exit(42)


_PAYLOAD = "tests.obs.test_crash_context:die42"


def _definition():
    from repro.core.udf import UDFDefinition, UDFSignature

    return UDFDefinition(
        name="dies",
        signature=UDFSignature(("int",), "int"),
        design=Design.NATIVE_ISOLATED,
        payload=_PAYLOAD.encode(),
        entry="die42",
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


class TestCrashContext:
    def test_single_invoke_names_the_worker(self, env):
        executor = RemoteExecutor(_definition(), env, parallelism=2)
        try:
            executor.begin_query(env.broker.bind())
            with pytest.raises(UDFCrashed) as excinfo:
                executor.invoke((1,))
            exc = excinfo.value
            assert isinstance(exc.worker_index, int)
            assert 0 <= exc.worker_index < 2
            # A one-row invoke is a one-row batch: its shard is that row.
            assert exc.shard == (0, 1)
        finally:
            executor.close()

    def test_unsharded_batch_reports_full_slice(self, env):
        # 4 rows < 2 * _MIN_SHARD_ROWS: the batch stays on one worker,
        # so its shard is the whole input range.
        executor = RemoteExecutor(_definition(), env, parallelism=2)
        try:
            executor.begin_query(env.broker.bind())
            with pytest.raises(UDFCrashed) as excinfo:
                executor.invoke_batch([(x,) for x in range(4)])
            exc = excinfo.value
            assert isinstance(exc.worker_index, int)
            assert 0 <= exc.worker_index < 2
            assert exc.shard == (0, 4)
        finally:
            executor.close()

    def test_sharded_batch_reports_crashing_slice(self, env):
        # 16 rows across 2 workers: shards (0, 8) and (8, 16).  Every
        # worker dies; the raised error is the lowest shard's, so the
        # slice is well-defined and within the batch.
        executor = RemoteExecutor(_definition(), env, parallelism=2)
        try:
            executor.begin_query(env.broker.bind())
            with pytest.raises(UDFCrashed) as excinfo:
                executor.invoke_batch([(x,) for x in range(16)])
            exc = excinfo.value
            assert isinstance(exc.worker_index, int)
            assert 0 <= exc.worker_index < 2
            start, stop = exc.shard
            assert (start, stop) == (0, 8)
        finally:
            executor.close()

    def test_crash_context_with_profile_attached(self, env):
        """Metrics on: same attributes, plus a crash count recorded by
        the call site, where every design's batches are observed."""
        from repro.obs import MetricsRegistry, QueryProfile
        from repro.sql.expressions import QueryRuntime, UDFCallSite

        executor = RemoteExecutor(_definition(), env, parallelism=2)
        try:
            profile = QueryProfile(MetricsRegistry())
            executor.profile = profile.udf("dies", "native_isolated")
            executor.begin_query(env.broker.bind())
            site = UDFCallSite(
                "dies", executor, ("int",),
                [lambda rows: [row[0] for row in rows]], QueryRuntime(),
            )
            with pytest.raises(UDFCrashed) as excinfo:
                site([(x,) for x in range(16)])
            assert excinfo.value.shard == (0, 8)
            assert executor.profile.crashes.value == 1
        finally:
            executor.profile = None
            executor.close()

    def test_query_level_crash_carries_context(self):
        """The attributes survive the full SQL execution path."""
        with Database(parallelism=2) as db:
            db.execute("CREATE TABLE t (id INT)")
            for i in range(4):
                db.execute(f"INSERT INTO t VALUES ({i})")
            db.execute(
                "CREATE FUNCTION dies(int) RETURNS int LANGUAGE NATIVE "
                f"DESIGN ISOLATED AS '{_PAYLOAD}'"
            )
            with pytest.raises(UDFCrashed) as excinfo:
                db.query("SELECT dies(id) FROM t")
            exc = excinfo.value
            assert exc.worker_index is not None
            assert exc.shard is not None
