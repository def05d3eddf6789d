"""The database server: one asyncio front end over one :class:`Database`.

"The server is a single multi-threaded process" (Section 4) that every
client's statement reaches the same way.  :class:`DatabaseServer`
multiplexes every connection on one event loop and dispatches statement
*execution* to a bounded worker pool, where each statement goes through
``Database.execute`` like an embedded caller's would:

* **Reads run concurrently.**  On start the server enables the
  database's :class:`~repro.storage.mvcc.SnapshotManager`; each SELECT
  pins a snapshot and scans frozen table images with private UDF
  executors, so any number of readers proceed in parallel with each
  other and with the writer.
* **Writes stay single-writer per table.**  DML takes its table's write
  lock, DDL and CREATE FUNCTION the database write lock; each installs
  fresh table images at commit, and readers admitted before the write
  keep their pinned versions.
* **Plans are shared.**  Repeat statements across sessions hit the
  database's plan cache (keyed on SQL text, validated against the
  schema and UDF epochs and the optimizer settings) and skip
  parse/plan/optimize entirely.
* **Tenants are isolated.**  Statements are admitted through
  :class:`~repro.server.admission.AdmissionController`: bounded
  per-tenant queues, round-robin dequeue, per-tenant thread-group
  budgets, :class:`~repro.errors.AdmissionRefused` over the cap.

The event loop runs on a background thread so ``start()``/``stop()`` are
synchronous.  Per connection, frames are handled strictly in order (a
session's statements never overlap each other); concurrency comes from
having many connections.  ``stop()`` drains: it waits (bounded) for
in-flight statements to send their result or error frame before closing
the remaining connections.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set

from ..core.designs import Design
from ..core.udf import UDFDefinition, UDFSignature
from ..database import Database
from ..errors import ProtocolError
from . import protocol
from .admission import (
    DEFAULT_TENANT_QUEUE_CAP,
    DEFAULT_TENANT_SLOTS,
    AdmissionController,
)
from .session import Session

DEFAULT_CONCURRENCY = 8


def materialize_rows(database: Database, rows):
    """Resolve LOB references into bytes before rows leave the server.

    Embedded callers can keep references and stream ranges; a remote
    client has no access to the server's pages, so projected large
    objects ship by value (this is what makes the data-shipping
    strategy of Section 3.1 expensive — measurably so).
    """
    from ..storage.lob import LOBRef

    materialized = []
    for row in rows:
        if any(isinstance(value, LOBRef) for value in row):
            row = tuple(
                database.lobs.read(value)
                if isinstance(value, LOBRef) else value
                for value in row
            )
        materialized.append(row)
    return materialized


def build_udf_definition(session: Session, payload: bytes) -> UDFDefinition:
    """Decode an ``OP_REGISTER_UDF`` payload, enforcing session policy."""
    name, params, ret, design_name, entry, callbacks, udf_payload = (
        protocol.decode_values(payload, 7)
    )
    design = Design(design_name)
    session.check_design_allowed(design)
    # A session-level QuotaPolicy caps this session's registrations;
    # None inherits the server VM's default policy at load time.
    policy = session.policy
    return UDFDefinition(
        name=name,
        signature=UDFSignature(tuple(params), ret),
        design=design,
        payload=bytes(udf_payload),
        entry=entry,
        callbacks=tuple(callbacks),
        # The wire protocol carries no hints; the analyzer derives
        # them from the (re-verified) payload at registration.
        cost=None,
        fuel=policy.fuel if policy is not None else None,
        memory=policy.memory if policy is not None else None,
    )


class DatabaseServer:
    """Concurrent TCP front end over one embedded :class:`Database`."""

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        trust_all_clients: bool = False,
        concurrency: int = DEFAULT_CONCURRENCY,
        tenant_slots: int = DEFAULT_TENANT_SLOTS,
        tenant_queue_cap: int = DEFAULT_TENANT_QUEUE_CAP,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.database = database
        self.trust_all_clients = trust_all_clients
        self.concurrency = concurrency
        self.tenant_slots = min(tenant_slots, concurrency)
        self.tenant_queue_cap = tenant_queue_cap
        self._requested_host = host
        self._requested_port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.admission: Optional[AdmissionController] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._busy = 0        # statements in flight; loop-thread only
        self._draining = False
        self._state_lock = threading.Lock()
        self.sessions_served = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.database.snapshots.enable(self.database)
        self._executor = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="stmt-worker"
        )
        self.admission = AdmissionController(
            self._executor,
            self.database.thread_groups,
            tenant_slots=self.tenant_slots,
            queue_cap=self.tenant_queue_cap,
        )
        self.database.attach_stats_source("server", self.stats_snapshot)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._run_loop, args=(started,),
            name="server-loop", daemon=True,
        )
        self._loop_thread.start()
        started.wait(timeout=10.0)
        future = asyncio.run_coroutine_threadsafe(
            self._start_listener(), self._loop
        )
        future.result(timeout=10.0)

    def _run_loop(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(started.set)
        self._loop.run_forever()

    async def _start_listener(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._requested_host,
            self._requested_port,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and shut down.

        Stops accepting, waits up to ``timeout`` seconds for in-flight
        statements to deliver their result or error frame, then closes
        the remaining connections and tears the loop down.  Idempotent.
        """
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(timeout), self._loop
        )
        try:
            future.result(timeout=timeout + 10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    async def _shutdown(self, deadline: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_event_loop()
        end = loop.time() + deadline
        while self._busy and loop.time() < end:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        tasks = list(self._conn_tasks)
        if tasks:
            await asyncio.wait(tasks, timeout=1.0)
        for task in list(self._conn_tasks):
            task.cancel()

    def __enter__(self) -> "DatabaseServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        with self._state_lock:
            self.sessions_served += 1
        peername = writer.get_extra_info("peername") or ("?", 0)
        session = Session(
            peer=f"{peername[0]}:{peername[1]}",
            trusted=self.trust_all_clients,
        )
        try:
            while not self._draining:
                try:
                    opcode, payload = await self._recv_frame(reader)
                except (ProtocolError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                if opcode == protocol.OP_CLOSE:
                    return
                self._busy += 1
                try:
                    await self._handle(writer, session, opcode, payload)
                except (ConnectionError, asyncio.CancelledError):
                    return
                finally:
                    self._busy -= 1
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()

    async def _recv_frame(self, reader: asyncio.StreamReader):
        opcode, size = protocol.parse_header(
            await reader.readexactly(protocol.HEADER_SIZE)
        )
        return opcode, await reader.readexactly(size)

    async def _send_frame(
        self, writer: asyncio.StreamWriter, opcode: int,
        payload: bytes = b"",
    ) -> None:
        writer.write(protocol.pack_frame(opcode, payload))
        await writer.drain()

    async def _handle(
        self, writer, session: Session, opcode: int, payload: bytes
    ) -> None:
        try:
            if opcode == protocol.OP_HELLO:
                # Optional payload: (tenant name,).  Absent (the classic
                # handshake) each session is its own tenant.
                if payload:
                    (tenant,) = protocol.decode_values(payload, 1)
                    session.tenant = str(tenant)
                await self._send_frame(
                    writer,
                    protocol.OP_WELCOME,
                    protocol.encode_values(
                        session.session_id, session.trusted
                    ),
                )
            elif opcode == protocol.OP_PING:
                await self._send_frame(writer, protocol.OP_PONG)
            elif opcode == protocol.OP_EXECUTE:
                (sql,) = protocol.decode_values(payload, 1)
                session.note_statement()
                frames = await self._run_admitted(
                    session, self._execute_sql, sql
                )
                for frame_opcode, frame_payload in frames:
                    await self._send_frame(
                        writer, frame_opcode, frame_payload
                    )
            elif opcode == protocol.OP_REGISTER_UDF:
                await self._run_admitted(
                    session, self._register_udf, session, payload
                )
                session.note_udf_registered()
                await self._send_frame(writer, protocol.OP_OK)
            else:
                raise ProtocolError(f"unknown opcode {opcode}")
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # every failure becomes an ERROR frame
            await self._send_frame(
                writer,
                protocol.OP_ERROR,
                protocol.encode_values(type(exc).__name__, str(exc)),
            )

    async def _run_admitted(self, session: Session, fn, *args):
        """Run ``fn`` on the worker pool under tenant admission."""
        future = self.admission.submit(
            session.tenant_name, lambda: fn(*args)
        )
        return await asyncio.wrap_future(future)

    # -- statement execution (worker threads) ------------------------------

    def _execute_sql(self, sql: str):
        """Execute and pre-encode one statement's reply frames.

        Runs on a worker thread.  Encoding (including LOB
        materialization) happens here too, keeping the event loop free
        for multiplexing.
        """
        result = self.database.execute(sql)
        rows = materialize_rows(self.database, result.rows)
        return list(
            protocol.result_frames(result.columns, rows, result.rowcount)
        )

    def _register_udf(self, session: Session, payload: bytes) -> None:
        definition = build_udf_definition(session, payload)
        # Classfile bytes re-verify at registration (never trust the
        # client); registration bumps the registry epoch, so every cached
        # plan from before this UDF existed stops hitting.
        # register_udf serializes itself on the DDL lock.
        self.database.register_udf(definition)

    # -- introspection -----------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Server counters for ``db.stats()`` (see attach_stats_source)."""
        with self._state_lock:
            data = {
                "concurrency": self.concurrency,
                "sessions_served": self.sessions_served,
                "open_connections": len(self._writers),
                "busy_statements": self._busy,
            }
        if self.admission is not None:
            data["admission"] = self.admission.stats()
        data["plan_cache"] = self.database.plan_cache.stats()
        data["snapshots"] = self.database.snapshots.stats()
        if self.database.wal is not None:
            # Group-commit effectiveness next to the admission counters:
            # batched writer wakeups show up as mean/max fsync batch.
            data["wal"] = self.database.wal.stats()
        return data
