"""The one module of perfbench that imports the engine.

Two surfaces, kept apart on purpose:

* **End to end** - what a user of the system touches: ``Database`` (given
  only ``path``, ``page_size`` and ``buffer_capacity``, so the engine runs
  as shipped), ``execute``, ``insert_rows``, ``read_lob``, ``checkpoint``,
  ``close``, ``Client`` and whichever server class the package exports.
  If any of these is missing the benchmark cannot run and the import fails.
* **Per-layer probes** - reach into modules (parser, planner, executors,
  VM, buffer pool, WAL).  Every probe resolves its entry point when it is
  called and raises :class:`ProbeUnavailable` (carrying the probe's name)
  when the entry point has moved, so a later PR that deletes a module gets
  a named warning and a 0 in that metric, not a failed run.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import Database  # noqa: E402  (needs the path set above)
from repro.server import Client  # noqa: E402

perf_counter = time.perf_counter


class ProbeUnavailable(Exception):
    """A per-layer probe's engine entry point no longer exists."""


def _resolve(probe: str, module_name: str, *attrs: str):
    """``module.attr[.attr...]`` or :class:`ProbeUnavailable`."""
    import importlib

    try:
        target = importlib.import_module(module_name)
        for attr in attrs:
            target = getattr(target, attr)
    except (ImportError, AttributeError) as exc:
        raise ProbeUnavailable(f"{probe}: {exc}") from None
    return target


def _attr(probe: str, obj, *attrs: str):
    try:
        for attr in attrs:
            obj = getattr(obj, attr)
    except AttributeError as exc:
        raise ProbeUnavailable(f"{probe}: {exc}") from None
    return obj


# -- end-to-end surface ------------------------------------------------------

def open_database(path, page_size: int, buffer_capacity: int) -> Database:
    """The engine as shipped: no mode flag is ever passed."""
    return Database(
        path, page_size=page_size, buffer_capacity=buffer_capacity
    )


def server_class():
    """Whichever server the package exports; the concurrent one first."""
    import repro.server as package

    for name in ("AsyncDatabaseServer", "DatabaseServer"):
        cls = getattr(package, name, None)
        if cls is not None:
            return cls
    raise ImportError("repro.server exports no server class")


class SplitClient:
    """A :class:`Client` whose request and reply halves can be driven apart.

    One selector loop keeps a statement in flight on each connection, so
    it must send without waiting for the reply.  ``Client.execute`` is the
    two halves back to back; when its private halves are gone the wrapper
    falls back to the blocking call (connections then take turns).
    """

    def __init__(self, host: str, port: int):
        self.client = Client(host, port)
        self.sock = getattr(self.client, "_sock", None)
        try:
            self._protocol = _resolve("client", "repro.server.protocol")
            self._send = _attr("client", self.client, "_send")
            self._recv = _attr("client", self.client, "_recv")
            self.split = self.sock is not None
        except ProbeUnavailable:
            self.split = False
        self._pending = None

    def send(self, sql: str) -> None:
        if self.split:
            p = self._protocol
            self._send(p.OP_EXECUTE, p.encode_values(sql))
        else:
            self._pending = sql

    def recv(self):
        """The reply's rows (a write's row count), or the server's error
        as an exception."""
        if not self.split:
            result = self.client.execute(self._pending)
            return result.rows if result.columns else result.rowcount
        p = self._protocol
        chunks = []
        while True:
            opcode, payload = self._recv()
            chunks.append(payload)
            if opcode == p.OP_RESULT_PART:
                continue
            if opcode == p.OP_ERROR:
                raise RuntimeError(": ".join(p.decode_values(payload, 2)))
            if opcode != p.OP_RESULT:
                raise RuntimeError(f"unexpected reply opcode {opcode}")
            columns, rowcount, rows = p.decode_result(b"".join(chunks))
            return rows if columns else rowcount

    def execute(self, sql: str):
        self.send(sql)
        return self.recv()

    @property
    def wire_bytes(self) -> int:
        return self.client.bytes_sent + self.client.bytes_received

    def close(self) -> None:
        self.client.close()

    def abandon(self) -> None:
        """Drop the socket without the goodbye frame (server is dead)."""
        if self.sock is not None:
            self.sock.close()


# -- probe-only database variants --------------------------------------------

def open_metrics_database(path, page_size: int, buffer_capacity: int):
    """``obs.metrics_on_overhead_share`` is the only user of this flag."""
    try:
        return Database(
            path, page_size=page_size, buffer_capacity=buffer_capacity,
            metrics=True,
        )
    except TypeError as exc:
        raise ProbeUnavailable(f"obs.metrics: {exc}") from None


class TailDroppingFaults:
    """Builds a FaultPoint that dies at the Nth armed WAL append and
    remembers the last fsynced log offset, so the harness can cut the
    un-fsynced tail off ``wal.log`` (kill -9 alone leaves it in the OS
    cache and proves nothing about fsync)."""

    def __init__(self):
        base = _resolve("durability", "repro.storage.wal", "FaultPoint")
        self.crash_error = _resolve(
            "durability", "repro.errors", "SimulatedCrash"
        )
        state = self

        class _Faults(base):
            def write(self, site, size):
                if state.armed and site == "wal.append":
                    state.appends += 1
                    if state.appends == state.die_at:
                        return 0
                return size

            def note_durable(self, site, offset):
                if site == "wal.fsync":
                    state.durable = offset

        self.armed = False
        self.appends = 0
        self.die_at = 0
        self.durable = 0
        self.point = _Faults()

    def arm(self, die_at: int) -> None:
        """Call right after a checkpoint, when the log file is empty."""
        self.armed = True
        self.appends = 0
        self.die_at = die_at
        self.durable = 0

    def open_database(self, path, page_size: int, buffer_capacity: int):
        try:
            return Database(
                path, page_size=page_size, buffer_capacity=buffer_capacity,
                faults=self.point,
            )
        except TypeError as exc:
            raise ProbeUnavailable(f"durability: {exc}") from None


# -- sql layer probes --------------------------------------------------------

class StagedSelect:
    """Runs a SELECT one stage at a time: parse, plan, optimize, execute."""

    def __init__(self, db):
        self.db = db
        self.parse = _resolve("sql.parse", "repro.sql.parser",
                              "parse_statement")
        self._plan_select = _resolve("sql.plan", "repro.sql.planner",
                                     "plan_select")
        self._optimize = _resolve("sql.plan", "repro.sql.optimizer",
                                  "optimize")
        self._resolver = _resolve("sql.plan", "repro.sql.executor",
                                  "_QueryUDFResolver")
        self._oracle = _resolve("sql.plan", "repro.sql.executor",
                                "_RegistryOracle")
        self._select_with_plan = _attr("sql.exec", db, "_executor",
                                       "select_with_plan")

    def plan(self, statement):
        db = self.db
        resolver = self._resolver(db.registry, db.broker.bind())
        try:
            return self._plan_select(statement, db.catalog, resolver)
        finally:
            resolver.finish()

    def optimize(self, plan):
        db = self.db
        oracle = self._oracle(
            db.registry, db.observability.adaptive, inlining=db.inlining
        )
        return self._optimize(
            plan, oracle, parallelism=db.parallelism, inlining=db.inlining
        )

    def execute(self, statement, plan):
        return self._select_with_plan(statement, plan=plan)[0]


@contextlib.contextmanager
def udf_call_hook(db, span):
    """While active, the UDF boundary of every query is wrapped in spans:
    ``core.acquire`` (executor construction; an isolated design forks its
    worker here), ``core.invoke_batch`` and ``core.release`` (an isolated
    design joins its worker here).  ``span(name)`` is a context manager.

    Patches instances, not classes: shared in-process executors are
    restored on exit, per-query isolated ones die with their query.
    """
    registry = _attr("core.hook", db, "registry")
    original = _attr("core.hook", registry, "executor_for_query")
    patched = []

    def spanned(name, method):
        def call(*args, **kwargs):
            with span(name):
                return method(*args, **kwargs)
        return call

    def executor_for_query(name, *args, **kwargs):
        with span("core.acquire"):
            executor = original(name, *args, **kwargs)
        if "invoke_batch" not in vars(executor):
            executor.invoke_batch = spanned(
                "core.invoke_batch", executor.invoke_batch)
            executor.end_query = spanned("core.release", executor.end_query)
            patched.append(executor)
        return executor

    registry.executor_for_query = executor_for_query
    try:
        yield
    finally:
        del registry.executor_for_query
        for executor in patched:
            vars(executor).pop("invoke_batch", None)
            vars(executor).pop("end_query", None)


# -- core layer probes -------------------------------------------------------

def direct_invoke(db, udf_name: str, batches):
    """``executor.invoke_batch`` on the given argument batches.

    Returns ``(results, seconds_in_invoke_batch, channel_stats_or_None)``.
    The executor is built outside the timed part (an isolated design forks
    there), so the time is the boundary plus the body and nothing else.
    """
    registry = _attr("core.invoke", db, "registry")
    executor = _attr("core.invoke", registry, "executor_for_query")(udf_name)
    invoke_batch = _attr("core.invoke", executor, "invoke_batch")
    results = []
    executor.begin_query()
    try:
        started = perf_counter()
        for batch in batches:
            results.append(invoke_batch(batch))
        elapsed = perf_counter() - started
        stats = None
        channel_stats = getattr(executor, "channel_stats", None)
        if channel_stats is not None:
            stats = channel_stats()
    finally:
        executor.end_query()
    return results, elapsed, stats


def vm_invoker(db, udf_name: str, use_jit: bool):
    """A closure calling the loaded UDF's VM entry directly (no executor).

    ``LoadedUDF.make_invoker`` is the hoisted per-call closure the sandbox
    executor itself loops over; the per-invocation quota reset rides along
    because the executor pays it per call too.
    """
    registry = _attr("vm.call", db, "registry")
    definition = registry.get(udf_name)
    # An in-process executor loads the UDF into the VM on construction.
    registry.executor_for_query(udf_name)
    loaded = _attr("vm.call", db, "vm", "get_udf")(udf_name.lower())
    make_invoker = _attr("vm.call", loaded, "make_invoker")
    context = loaded.make_context(callbacks=db.broker.bind().as_handlers())
    invoke_one = make_invoker(definition.entry, context, use_jit=use_jit)
    reset = context.account.reset

    def call(args):
        reset()
        return invoke_one(args)

    return call


# -- storage layer probes ----------------------------------------------------

def pool_counters(db) -> dict:
    pool = _attr("storage.pool", db, "pool")
    return {
        "hits": _attr("storage.pool", pool, "hits"),
        "misses": _attr("storage.pool", pool, "misses"),
        "evictions": _attr("storage.pool", pool, "evictions"),
    }


def wal_stats(db) -> dict:
    wal = _attr("storage.wal", db, "wal")
    if wal is None:
        return {}
    return _attr("storage.wal", wal, "stats")()


def mvcc_stats(db) -> dict:
    return _attr("storage.mvcc", db, "snapshots", "stats")()


def plan_cache_stats(db) -> dict:
    return _attr("sql.plancache", db, "plan_cache", "stats")()


def admission_stats(server) -> dict:
    admission = _attr("server.admission", server, "admission")
    return _attr("server.admission", admission, "stats")()
