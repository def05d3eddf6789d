"""The database server: one thread per connection over one :class:`Database`.

"The server is a single multi-threaded process" (Section 4) that every
client's statement reaches the same way.  :class:`DatabaseServer`
accepts on one thread and hands each connection to a thread of its own.
That thread reads a frame with the blocking :func:`protocol.recv_frame`,
runs the statement itself through ``Database.execute`` like an embedded
caller would, and writes the reply with one ``sendall``.  No statement
changes threads between its request and its reply:

* **Reads run concurrently.**  On start the server enables the
  database's :class:`~repro.storage.mvcc.SnapshotManager`; each SELECT
  pins a snapshot and scans frozen table images with private UDF
  executors, so any number of readers proceed in parallel with each
  other and with the writer.
* **Writes stay single-writer per table.**  DML takes its table's write
  lock, DDL and CREATE FUNCTION the database write lock; each installs
  fresh table images at commit, and readers admitted before the write
  keep their pinned versions.
* **Plans are shared.**  Statements of one shape across sessions, fresh
  literals and DML included, hit the database's plan cache (keyed on
  the literal-stripped token sequence, validated against the schema and
  UDF epochs and the optimizer settings) and skip parse/plan/optimize
  entirely.
* **Tenants are isolated.**  A connection thread runs its statement only
  once :class:`~repro.server.admission.AdmissionController` grants it a
  slot: ``concurrency`` slots in all, bounded per-tenant queues,
  round-robin grants, per-tenant thread-group budgets,
  :class:`~repro.errors.AdmissionRefused` over the cap.

Per connection, frames are handled strictly in order (a session's
statements never overlap each other); concurrency comes from having
many connections.  ``start()``/``stop()`` are synchronous.  ``stop()``
drains: it stops accepting, waits (bounded) for in-flight statements to
send their reply, then shuts the remaining connections down and joins
every thread the server started.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Optional

from .. import adtstream
from ..core.designs import Design
from ..core.udf import UDFDefinition, UDFSignature
from ..database import Database
from ..errors import ProtocolError
from . import protocol
from .admission import (
    DEFAULT_SLOTS,
    DEFAULT_TENANT_QUEUE_CAP,
    DEFAULT_TENANT_SLOTS,
    AdmissionController,
)
from .session import Session


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
    """Thread-per-connection TCP front end over one embedded :class:`Database`."""

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        trust_all_clients: bool = False,
        concurrency: int = DEFAULT_SLOTS,
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
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self.admission: Optional[AdmissionController] = None
        # _connections, _busy, _draining and sessions_served are guarded
        # by _state_lock; _idle is signalled when _busy drops to 0.
        #: Open connection socket -> the thread that owns (and closes) it.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._busy = 0        # statements between frame read and reply
        self._draining = False
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self.sessions_served = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.database.snapshots.enable(self.database)
        self.admission = AdmissionController(
            self.database.thread_groups,
            slots=self.concurrency,
            tenant_slots=self.tenant_slots,
            queue_cap=self.tenant_queue_cap,
        )
        self.database.attach_stats_source("server", self.stats_snapshot)
        self._draining = False
        self._listener = socket.create_server(
            (self._requested_host, self._requested_port), backlog=100
        )
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="server-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and shut down.

        Stops accepting, waits up to ``timeout`` seconds for in-flight
        statements to send their reply, then shuts the remaining
        connections down and joins their threads (a statement still
        running past ``timeout`` finishes first; its reply is dropped).
        Idempotent.
        """
        if self._listener is None:
            return
        with self._state_lock:
            self._draining = True
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._accept_thread.join()
        self._listener.close()
        self._listener = None
        with self._state_lock:
            self._idle.wait_for(lambda: not self._busy, timeout)
            connections = list(self._connections.items())
        for sock, __ in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes recv() with EOF
            except OSError:
                pass
        for __, thread in connections:
            thread.join()

    def __enter__(self) -> "DatabaseServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                if self._draining:
                    return  # stop() shut the listener down
                continue  # this one peer's connect failed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, peer),
                name=f"conn-{peer[0]}:{peer[1]}", daemon=True,
            )
            with self._state_lock:
                if self._draining:
                    sock.close()
                    return
                self._connections[sock] = thread
                self.sessions_served += 1
            thread.start()

    def _serve_connection(self, sock: socket.socket, peer) -> None:
        session = Session(
            peer=f"{peer[0]}:{peer[1]}", trusted=self.trust_all_clients
        )
        try:
            while True:
                try:
                    opcode, payload = protocol.recv_frame(sock)
                except (ProtocolError, OSError):
                    return
                if opcode == protocol.OP_CLOSE:
                    return
                with self._state_lock:
                    if self._draining:
                        return
                    self._busy += 1
                try:
                    sock.sendall(self._reply(session, opcode, payload))
                except OSError:
                    return  # the peer hung up before its reply
                finally:
                    with self._state_lock:
                        self._busy -= 1
                        if not self._busy:
                            self._idle.notify_all()
        finally:
            if session.tenant is None:
                self.admission.forget(session.tenant_name)
            with self._state_lock:
                del self._connections[sock]
            sock.close()

    def _reply(self, session: Session, opcode: int, payload: bytes) -> bytes:
        """The packed reply frames to one request frame."""
        try:
            if opcode == protocol.OP_HELLO:
                # Optional payload: (tenant name,).  Absent (the classic
                # handshake) each session is its own tenant.
                if payload:
                    (tenant,) = protocol.decode_values(payload, 1)
                    session.tenant = str(tenant)
                frames = [(
                    protocol.OP_WELCOME,
                    protocol.encode_values(
                        session.session_id, session.trusted
                    ),
                )]
            elif opcode == protocol.OP_PING:
                frames = [(protocol.OP_PONG, b"")]
            elif opcode == protocol.OP_EXECUTE:
                (sql,) = protocol.decode_values(payload, 1)
                session.note_statement()
                frames = self.admission.run(
                    session.tenant_name, self._execute_sql, sql
                )
            elif opcode == protocol.OP_REGISTER_UDF:
                self.admission.run(
                    session.tenant_name, self._register_udf, session,
                    payload,
                )
                session.note_udf_registered()
                frames = [(protocol.OP_OK, b"")]
            else:
                raise ProtocolError(f"unknown opcode {opcode}")
            return b"".join(protocol.pack_frame(*frame) for frame in frames)
        except Exception as exc:  # every failure becomes an ERROR frame
            return protocol.pack_frame(
                protocol.OP_ERROR, adtstream.dump_error(exc)
            )

    # -- statement execution (connection threads, under admission) ---------

    def _execute_sql(self, sql: str):
        """Execute one statement and encode its reply frames."""
        result = self.database.execute(sql)
        # A remote client has no access to the server's pages, so a
        # projected large object ships by value (what makes the
        # data-shipping strategy of Section 3.1 expensive, measurably);
        # only a column that holds a LOBRef is read.
        return list(protocol.result_frames(
            result.columns, result.rows, result.rowcount,
            self.database.lobs.read,
        ))

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
                "open_connections": len(self._connections),
                "busy_statements": self._busy,
            }
        if self.admission is not None:
            data["admission"] = self.admission.stats()
        data["snapshots"] = self.database.snapshots.stats()
        if self.database.wal is not None:
            # Group-commit effectiveness next to the admission counters:
            # batched writer wakeups show up as mean/max fsync batch.
            data["wal"] = self.database.wal.stats()
        return data
