"""The PREDATOR-analog database facade.

``Database`` wires every substrate together the way Section 4 describes
the real system: a storage manager (disk + buffer pool + LOBs + catalog),
a query processing engine on top of it, one JaguarVM instance "created
when the database server starts up", the callback broker, and the UDF
registry spanning all six execution designs.

Typical embedded use::

    from repro import Database

    with Database() as db:                      # in-memory
        db.execute("CREATE TABLE t (id INT, data BYTEARRAY)")
        db.execute("INSERT INTO t VALUES (1, zerobytes(100))")
        db.execute(
            "CREATE FUNCTION plus1(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def plus1(x: int) -> int: return x + 1'"
        )
        rows = db.execute("SELECT plus1(id) FROM t").rows

``Database(path)`` persists pages under ``path/`` and reloads tables and
registered UDFs on reopen.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, List, Optional, Sequence

from .core.callbacks import CallbackBroker
from .core.designs import Design
from .core.udf import (
    ServerEnvironment,
    UDFDefinition,
    UDFRegistry,
    UDFSignature,
)
from .errors import RecordError, SimulatedCrash, WALError
from .sql import ast_nodes as A
from .sql.executor import QueryResult, StatementExecutor
from .sql.parser import parse_script, parse_statement
from .sql.plancache import PlanCache
from .storage.buffer import BufferPool
from .storage.mvcc import SnapshotManager
from .storage.catalog import Catalog, TableInfo, UDFInfo
from .storage.disk import DiskManager
from .storage.heapfile import HeapFile
from .storage.lob import LOBManager, LOBRef
from .storage.wal import NO_FAULTS, WriteAheadLog
from .sql.operators import DEFAULT_BATCH_SIZE
from .storage.record import ColumnType, serialize_record
from .vm.machine import JaguarVM

#: Byte-array values larger than this are spilled to LOB pages; smaller
#: ones are stored inline in the record.  The paper's Rel100 rows stay
#: inline; Rel10000 rows become LOBs.
DEFAULT_LOB_THRESHOLD = 1024


class Database:
    """An embedded OR-DBMS instance with secure UDF extensibility."""

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = 8192,
        buffer_capacity: int = 512,
        lob_threshold: int = DEFAULT_LOB_THRESHOLD,
        batch_size: int = DEFAULT_BATCH_SIZE,
        parallelism: int = 1,
        metrics: bool = False,
        adaptive: bool = False,
        inlining: bool = False,
        tiering: bool = False,
        tier1_threshold: Optional[int] = None,
        group_commit_window: float = 0.0,
        faults=None,
    ):
        self.path = path
        if path is None:
            data_path = None
            catalog_path = None
            wal_path = None
        else:
            os.makedirs(path, exist_ok=True)
            data_path = os.path.join(path, "data.pages")
            catalog_path = os.path.join(path, "catalog.json")
            wal_path = os.path.join(path, "wal.log")
        #: Durability is "on iff persistent": a path-backed
        #: database gets a write-ahead log (``path/wal.log``) and crash
        #: recovery on open; an in-memory one has nothing to recover.
        use_wal = path is not None
        self.disk = DiskManager(
            data_path, page_size=page_size, wal_mode=use_wal, faults=faults
        )
        self.wal: Optional[WriteAheadLog] = None
        if use_wal:
            self.wal = WriteAheadLog(
                wal_path,
                group_window=group_commit_window,
                faults=faults if faults is not None else NO_FAULTS,
            )
            # Recovery must precede the buffer pool and catalog: it
            # rewrites data pages and the catalog sidecar underneath.
            self.wal.recover(self.disk, catalog_path)
        self.pool = BufferPool(self.disk, capacity=buffer_capacity)
        if self.wal is not None:
            self.pool.attach_wal(self.wal)
        self.lobs = LOBManager(self.pool)
        self.catalog = Catalog(
            catalog_path, deferred=use_wal, on_change=self._catalog_changed
        )
        self.lob_threshold = lob_threshold

        self.broker = CallbackBroker()
        self.vm = JaguarVM(self.broker.signatures())
        from .vm.threadgroups import ThreadGroupRegistry

        self.thread_groups = ThreadGroupRegistry()
        self.environment = ServerEnvironment(
            vm=self.vm,
            broker=self.broker,
            lobs=self.lobs,
            thread_groups=self.thread_groups,
        )
        self.batch_size = batch_size
        self.parallelism = parallelism
        self.tiering = tiering
        if tier1_threshold is not None:
            self.tier1_threshold = tier1_threshold
        #: Froid-style UDF inlining: when True the optimizer replaces
        #: call sites of decompilable pure UDFs with their lifted SQL
        #: expression (no VM entry at all).  Mutable at runtime
        #: (``db.inlining = True``) — the next query plans with it,
        #: which is how the benchmark sweeps inlined vs opaque execution
        #: over one populated database.  Off by default: seed plans and
        #: EXPLAIN output are reproduced exactly.
        self.inlining = bool(inlining)
        from .obs import Observability

        #: Runtime observability switchboard: ``metrics=True`` collects
        #: cumulative counters/histograms (``db.stats()``), and
        #: ``adaptive=True`` feeds observed UDF costs and predicate
        #: selectivities back into the optimizer.  Both default off, in
        #: which case execution takes the uninstrumented code paths.
        self.observability = Observability(metrics=metrics, adaptive=adaptive)
        self.registry = UDFRegistry(self.environment)
        self._executor = StatementExecutor(self)
        #: DDL serialization: schema-shaped statements (CREATE/DROP
        #: TABLE, CREATE INDEX, CREATE/DROP FUNCTION) run under this
        #: lock.  DML takes only its table's write lock
        #: (:meth:`table_write_lock`), so writers on disjoint tables run
        #: concurrently; lock order is always table < write < commit.
        self._write_lock = threading.RLock()
        #: Publish serialization: WAL append + MVCC snapshot install +
        #: catalog capture happen atomically under this lock, giving
        #: commit records a global order even with per-table writers.
        self._commit_lock = threading.RLock()
        if use_wal:
            # Free-list pops (page allocation) must serialize with
            # publishes: the free list and geometry only ever change at
            # commit granularity, so a commit record's geometry never
            # names free-list state another statement hasn't durably
            # logged.  See DiskManager.publish_lock.
            self.disk.publish_lock = self._commit_lock
        self._table_locks: dict = {}
        self._table_locks_guard = threading.Lock()
        #: MVCC-lite snapshot store (disabled by default — see
        #: :mod:`repro.storage.mvcc`).  The server enables it before
        #: accepting connections: ``db.snapshots.enable(db)``.
        self.snapshots = SnapshotManager()
        #: Shared plan cache, consulted by :meth:`execute`; DDL bumps
        #: the catalog epoch and UDF changes the registry's, which
        #: invalidates structurally.
        self.plan_cache = PlanCache()
        self._stats_sources: dict = {}
        if self.wal is not None:
            self._stats_sources["wal"] = self.wal.stats
        self._reload_udfs()

    @property
    def batch_size(self) -> int:
        """Rows per executor batch; 1 is exact tuple-at-a-time.

        Mutable at runtime (``db.batch_size = 256``) — the next query
        picks it up, which is how the benchmark sweeps batch sizes over
        one populated database.
        """
        return self.environment.batch_size

    @batch_size.setter
    def batch_size(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"batch_size must be >= 1, got {value}")
        self.environment.batch_size = int(value)

    @property
    def parallelism(self) -> int:
        """Worker fan-out for UDF execution; 1 is exact serial semantics.

        Mutable at runtime (``db.parallelism = 4``) — the next query
        plans Exchange operators and sizes isolated worker pools at the
        new width.  ``parallelism=1`` reproduces the serial plans and
        row order bit for bit.
        """
        return self.environment.parallelism

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"parallelism must be >= 1, got {value}")
        self.environment.parallelism = int(value)

    @property
    def tiering(self) -> bool:
        """Tiered UDF execution: promote hot UDFs to batch kernels.

        Mutable at runtime (``db.tiering = True``) — the next batch of
        invocations counts toward promotion.  Off by default: every
        executor takes its tier-0 (seed) code paths and plans, results,
        and benchmarks are reproduced exactly.
        """
        return self.environment.tiering

    @tiering.setter
    def tiering(self, value: bool) -> None:
        self.environment.tiering = bool(value)

    @property
    def tier1_threshold(self) -> int:
        """Observed call count at which a UDF is considered hot.

        0 promotes eligible UDFs on their first batch — useful for
        tests and benchmarks that want tier-1 behaviour immediately.
        """
        return self.environment.tier1_threshold

    @tier1_threshold.setter
    def tier1_threshold(self, value: int) -> None:
        if value < 0:
            raise ValueError(
                f"tier1_threshold must be >= 0, got {value}"
            )
        self.environment.tier1_threshold = int(value)

    # -- SQL entry points ------------------------------------------------------

    #: Statement classes that mutate storage or the catalog and so run
    #: through the write pipeline (:meth:`_run_write`).
    _WRITE_STATEMENTS = (
        A.CreateTable, A.DropTable, A.CreateIndex,
        A.Insert, A.Update, A.Delete,
        A.CreateFunction, A.DropFunction,
    )

    def execute(self, sql: str) -> QueryResult:
        """Run one SQL statement: the one way in, embedded or over the wire.

        SELECT-shaped text is looked up in the shared :attr:`plan_cache`
        first; a hit skips parse/plan/optimize.  Only SELECTs
        participate (writes are never cached, and counting them as
        misses would make the hit rate meaningless under mixed
        workloads), and adaptive optimization re-plans per query by
        design, so it bypasses the cache.  Everything else is parsed and
        handed to :meth:`_execute`.
        """
        if (
            self.observability.adaptive is not None
            or sql.lstrip()[:6].lower() != "select"
        ):
            return self._execute(parse_statement(sql))[0]
        # Everything besides the text that decides the plan: anything
        # that changes what plan_select/optimize produce belongs here.
        fingerprint = (
            self.catalog.epoch, self.registry.epoch,
            self.parallelism, self.inlining,
        )
        plan = self.plan_cache.lookup(sql, fingerprint)
        if plan is not None:
            return self._execute(None, plan)[0]
        result, plan = self._execute(parse_statement(sql))
        self.plan_cache.store(sql, fingerprint, plan)
        return result

    def _execute(self, statement: "Optional[A.Statement]", plan=None):
        """Run one parsed statement (or, on a plan-cache hit, its plan).

        Returns ``(result, plan)``; ``plan`` is the optimized logical
        plan of a SELECT and None for anything else.  Writes go through
        :meth:`_run_write`.  A SELECT pins a snapshot iff
        :attr:`snapshots` is enabled (the server enables it), so its
        scans never touch live pages, and gets private UDF executors iff
        a snapshot is pinned, since only then may statements overlap.
        With snapshots disabled (the embedded default) a read takes no
        lock at all.
        """
        if plan is None and not isinstance(statement, A.Select):
            if isinstance(statement, self._WRITE_STATEMENTS):
                return self._run_write(
                    self._write_locks(statement),
                    lambda: self._executor.execute(statement),
                    lambda: self._install_after_write(statement),
                ), None
            return self._executor.execute(statement), None
        snapshot = self.snapshots.pin() if self.snapshots.enabled else None
        try:
            return self._executor.select_with_plan(
                statement, snapshot=snapshot, plan=plan,
                private=snapshot is not None,
            )
        finally:
            if snapshot is not None:
                snapshot.release()

    # -- write pipeline -------------------------------------------------------

    def table_write_lock(self, name: str) -> threading.RLock:
        """The write lock for one table (created on first use, kept for
        the database's lifetime — a dropped-and-recreated table reuses
        its lock, which is harmless and race-free)."""
        key = name.lower()
        with self._table_locks_guard:
            lock = self._table_locks.get(key)
            if lock is None:
                lock = self._table_locks[key] = threading.RLock()
            return lock

    def _write_locks(self, statement: "A.Statement") -> list:
        """The ordered lock set for one mutating statement.

        DML locks only its table.  DDL locks the affected table (if
        any) plus the global :attr:`_write_lock`; taking the table lock
        *first* keeps the global order table < write < commit, so DML
        (table → commit) and DDL (table → write → commit) never deadlock.
        """
        if isinstance(statement, (A.Insert, A.Update, A.Delete)):
            return [self.table_write_lock(statement.table)]
        locks = []
        if isinstance(statement, (A.CreateTable, A.DropTable)):
            locks.append(self.table_write_lock(statement.name))
        elif isinstance(statement, A.CreateIndex):
            locks.append(self.table_write_lock(statement.table))
        locks.append(self._write_lock)
        return locks

    def _run_write(self, locks: list, body, install):
        """Execute one mutating operation with WAL durability.

        The sequence: take the statement's locks, attribute dirty pages
        to this thread, run ``body``, then publish under the commit
        lock (log the statement's page images + catalog blob, install
        the MVCC snapshot), release everything, and only then wait for
        the commit fsync (group commit happens outside all locks, so a
        sleeping leader never blocks other tables' writers).

        A statement that fails *logically* (constraint violation,
        unknown column) still commits its partial page effects — the
        engine is statement-deterministic, so replaying the same
        statement fails identically, and recovery reproduces the exact
        crashed state.  A statement killed by an injected crash commits
        nothing.
        """
        for lock in locks:
            lock.acquire()
        tracker = self.pool.begin_tracking() if self.wal is not None else None
        commit_lsn = None
        error = None
        result = None
        try:
            try:
                result = body()
            except (SimulatedCrash, WALError):
                # Storage died mid-statement: publish nothing.
                raise
            except Exception as exc:
                error = exc
            with self._commit_lock:
                if self.wal is not None:
                    commit_lsn = self._log_statement(tracker)
                install()
        finally:
            if tracker is not None:
                self.pool.end_tracking(tracker)
            for lock in reversed(locks):
                lock.release()
        if commit_lsn is not None:
            self.wal.commit_wait(commit_lsn)
        if error is not None:
            raise error
        return result

    def _log_statement(self, tracker) -> int:
        """Append one statement's redo batch (caller holds the commit
        lock, so the page images + catalog + geometry are a consistent
        cut).

        Buffered frees are applied first: the freed pages join the
        free list only now, as tracked page dirties, so the geometry
        this commit records is backed by chain-pointer images in this
        very batch — never by another statement's unlogged frames.
        """
        self.pool.publish_frees(tracker)
        images = self.pool.collect_images(tracker)
        blob = self.catalog.serialize() if tracker.catalog_dirty else None
        lsn = self.wal.log_statement(images, blob, self.disk.geometry())
        self.pool.note_logged([pid for pid, _ in images], lsn)
        return lsn

    def _catalog_changed(self) -> None:
        """Deferred-catalog notification: the running statement changed
        schema/UDF state, so its commit must log the catalog blob."""
        tracker = self.pool.current_tracker()
        if tracker is not None:
            tracker.catalog_dirty = True

    def _install_after_write(self, statement: "A.Statement") -> None:
        """Freeze the written table's new state for snapshot readers.

        Runs under the commit lock (inside :meth:`_run_write`), even
        when the statement failed — a partially applied DML still
        dirtied pages, and the next snapshot must see what live reads
        would.

        Visibility deliberately precedes durability: the install
        happens after the WAL append but before the commit fsync, so
        with a nonzero :attr:`group_commit_window` other sessions can
        read a statement whose log records a crash would still erase
        (the writer itself is never acknowledged before its fsync).
        This is the classic asynchronous-commit trade — PostgreSQL's
        ``synchronous_commit=off`` has the same window — chosen here
        so snapshot installs keep the commit-lock ordering without
        making every reader wait on the group-commit leader's sleep.
        """
        if not self.snapshots.enabled:
            return
        if isinstance(statement, A.DropTable):
            self.snapshots.forget(statement.name)
            return
        if isinstance(statement, (A.Insert, A.Update, A.Delete)):
            table_name = statement.table
        elif isinstance(statement, A.CreateTable):
            table_name = statement.name
        else:
            return  # indexes / functions don't change heap contents
        if self.catalog.has_table(table_name):
            table = self.catalog.get_table(table_name)
            self.snapshots.install(
                self.pool, table.name, table.first_page
            )

    def execute_script(self, sql: str) -> List[QueryResult]:
        """Run a semicolon-separated script; returns one result each."""
        return [
            self._execute(statement)[0] for statement in parse_script(sql)
        ]

    def query(self, sql: str) -> List[tuple]:
        """Shorthand: execute and return the rows."""
        return self.execute(sql).rows

    def stats(self) -> dict:
        """JSON-able observability dump: metrics plus adaptive feedback.

        ``metrics`` is the cumulative registry snapshot (None unless
        ``Database(metrics=True)``); ``adaptive`` is the feedback
        store's state (None unless ``Database(adaptive=True)``).
        """
        data = self.observability.stats()
        for name, source in self._stats_sources.items():
            data[name] = source()
        return data

    def attach_stats_source(self, name: str, source: Callable[[], object]):
        """Add a section to :meth:`stats` (servers surface theirs here)."""
        self._stats_sources[name] = source

    # -- programmatic data path (used by workload generators) ---------------------

    def insert_rows(
        self, table_name: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Bulk-insert host values, bypassing the SQL parser.

        On a WAL-backed database the batch is chunked into commit
        units bounded by the buffer pool: a statement's dirty pages
        are unevictable until its commit is logged, so one unit must
        fit in the pool (an unchunked million-row batch would exhaust
        the frames mid-flight).  Each chunk is one commit record and
        one fsync; a crash keeps a committed prefix of whole chunks
        (plus the deterministic partial chunk if a row fails
        logically, same as the seed).  Without a WAL the whole batch
        is a single unit, byte-identical to the seed.
        """
        table = self.catalog.get_table(table_name)
        count = 0
        iterator = iter(rows)
        # Leave headroom below capacity for pinned frames and the
        # pages a single row can touch (heap chain + LOB spill).
        budget = max(8, (self.pool.capacity * 3) // 4)
        exhausted = False

        def body():
            nonlocal count, exhausted
            tracker = self.pool.current_tracker()
            while True:
                try:
                    row = next(iterator)
                except StopIteration:
                    exhausted = True
                    return
                self._insert_row_locked(table, list(row))
                count += 1
                if tracker is not None and len(tracker.pages) >= budget:
                    return  # commit this unit; continue in the next

        while not exhausted:
            self._run_write(
                [self.table_write_lock(table.name)],
                body,
                lambda: self.snapshots.install(
                    self.pool, table.name, table.first_page
                ),
            )
        return count

    def insert_row(self, table: TableInfo, values: List[object]) -> None:
        self._run_write(
            [self.table_write_lock(table.name)],
            lambda: self._insert_row_locked(table, values),
            lambda: self.snapshots.install(
                self.pool, table.name, table.first_page
            ),
        )

    def _insert_row_locked(
        self, table: TableInfo, values: List[object]
    ) -> None:
        if len(values) != len(table.columns):
            raise RecordError(
                f"{len(values)} values for {len(table.columns)} columns"
            )
        record, prepared = self.prepare_row(table, values)
        heap = HeapFile(self.pool, table.first_page)
        rid = heap.insert(record)
        self._executor._index_add(table, rid, prepared)

    def encode_row(self, table: TableInfo, values: List[object]) -> bytes:
        """Validate, spill large byte arrays to LOBs, and serialize."""
        return self.prepare_row(table, values)[0]

    def prepare_row(self, table: TableInfo, values: List[object]):
        """As :meth:`encode_row`, also returning the prepared values."""
        prepared: List[object] = []
        for value, column in zip(values, table.columns):
            if value is None:
                if not column.nullable:
                    raise RecordError(
                        f"column {column.name!r} is NOT NULL"
                    )
                prepared.append(None)
                continue
            if column.col_type is ColumnType.FLOAT and isinstance(value, int):
                value = float(value)
            if column.col_type is ColumnType.BYTES and isinstance(
                value, (bytes, bytearray, memoryview)
            ):
                if len(value) > self.lob_threshold:
                    value = self.lobs.write(bytes(value))
            prepared.append(value)
        return serialize_record(prepared, table.column_types()), prepared

    def read_lob(self, ref: LOBRef) -> bytes:
        return self.lobs.read(ref)

    # -- UDF management -------------------------------------------------------------

    def register_udf(
        self, definition: UDFDefinition, persist: bool = True
    ) -> None:
        """Admit a UDF (validating its payload) and persist it.

        Registration is a catalog mutation, so on a WAL-backed database
        a *direct* call (not via CREATE FUNCTION, which is already
        inside the write pipeline) runs through the pipeline itself —
        otherwise the catalog change would never reach the log.  Either
        way it holds the DDL lock, so concurrent sessions' registrations
        serialize.
        """

        def body():
            self.registry.register(definition)
            if persist:
                self.catalog.add_udf(
                    UDFInfo(
                        name=definition.name,
                        language=definition.language,
                        design=definition.design.value,
                        entry=definition.entry,
                        payload=definition.payload,
                        param_types=list(definition.signature.param_types),
                        ret_type=definition.signature.ret_type,
                        callbacks=list(definition.callbacks),
                    )
                )

        if (
            self.wal is not None and persist
            and self.pool.current_tracker() is None
        ):
            self._run_write([self._write_lock], body, lambda: None)
        else:
            with self._write_lock:
                body()

    def unregister_udf(self, name: str) -> None:
        def body():
            self.registry.unregister(name)
            if self.catalog.has_udf(name):
                self.catalog.drop_udf(name)

        if self.wal is not None and self.pool.current_tracker() is None:
            self._run_write([self._write_lock], body, lambda: None)
        else:
            with self._write_lock:
                body()

    def kill_udf(self, name: str) -> None:
        """Revoke a (sandboxed) UDF's running invocations (Section 6.1).

        The UDF's thread group is killed: every in-flight invocation's
        resource account is revoked, so the sandboxed code dies at its
        next fuel check — at most one basic block away — and the query
        fails with :class:`~repro.errors.FuelExhausted` while the server
        thread survives.  Registration is untouched; the next query gets
        a fresh group.
        """
        self.thread_groups.kill(name.lower())

    def _reload_udfs(self) -> None:
        """Re-register persisted UDFs on reopen (each payload loads once, here)."""
        for info in list(self.catalog.udfs.values()):
            definition = UDFDefinition(
                name=info.name,
                signature=UDFSignature(
                    tuple(info.param_types), info.ret_type
                ),
                design=Design(info.design),
                payload=info.payload,
                entry=info.entry,
                callbacks=tuple(info.callbacks),
                # Persisted registrations re-derive hints from bytecode
                # on reload, like any hint-less registration.
                cost=None,
            )
            self.registry.register(definition)

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def group_commit_window(self) -> float:
        """Seconds the group-commit leader waits for followers.

        Mutable at runtime (``db.group_commit_window = 0.002``) — the
        next commit fsync picks it up, which is how the benchmark
        sweeps windows over one populated database.  0.0 syncs every
        statement individually (still correct, just more fsyncs).

        A nonzero window widens the visible-before-durable gap for
        *other* sessions: a commit becomes readable (MVCC install) as
        soon as it publishes, up to a window before its fsync lands
        (see :meth:`_install_after_write`).  The writer itself always
        blocks until its commit LSN is durable.
        """
        return self.wal.group_window if self.wal is not None else 0.0

    @group_commit_window.setter
    def group_commit_window(self, value: float) -> None:
        if self.wal is None:
            raise ValueError(
                "group commit requires a WAL-backed (path) database"
            )
        if value < 0:
            raise ValueError(
                f"group_commit_window must be >= 0, got {value}"
            )
        self.wal.group_window = float(value)

    def checkpoint(self) -> None:
        """Flush everything the WAL describes and truncate the log.

        Order matters: make the log durable to its tail (so every
        handed-out commit LSN retires), write back all logged dirty
        pages, settle the data file to exactly the committed geometry,
        persist the catalog sidecar, and only then truncate the log.
        A crash anywhere in between recovers correctly — redo is
        idempotent over already-flushed pages.  Runs under the commit
        lock, so no statement can publish mid-checkpoint.
        """
        if self.wal is None:
            self.flush()
            return
        with self._commit_lock:
            self.wal.ensure_durable(self.wal.tail_lsn())
            self.pool.flush_all()
            self.disk.settle()
            self.catalog.save(force=True)
            self.wal.truncate()

    def flush(self) -> None:
        if self.wal is not None:
            self.checkpoint()
            return
        self.pool.flush_all()
        self.disk.sync()
        self.catalog.save()

    def close(self) -> None:
        """Shut down cleanly: a WAL-backed database checkpoints, so the
        log is empty, the data file settled, and reopen recovers
        nothing.  (After an injected crash the storage layer is dead;
        close skips the checkpoint and recovery owns the state.)"""
        self.registry.close()
        if self.disk is not None:
            if self.wal is not None:
                clean = False
                try:
                    self.checkpoint()
                    clean = True
                except (SimulatedCrash, WALError):
                    pass  # crashed storage: state belongs to recovery
                finally:
                    self.wal.close()
                # After a crashed checkpoint, close the data file
                # without syncing: the in-memory header may hold
                # geometry from a crashed, uncommitted statement, and
                # in WAL mode only checkpoint/recovery may write the
                # header — a header flushed here would survive reopen
                # whenever the log holds no complete committed
                # statement to restore it from.
                self.disk.close(sync=clean)
            else:
                self.pool.flush_all()
                self.disk.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
