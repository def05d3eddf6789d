"""Client library and the portable UDF development workflow.

Section 6.4: "Our goal is to be able to allow users to easily define new
Java UDFs, test them at the client, and migrate them to the server."

* :class:`Client` is the database driver (the paper's applet/JDBC-ish
  library): execute SQL, receive rows, register UDFs.
* :class:`LocalUDFHarness` is the client-side development environment:
  compile JagScript locally, verify it with the *same* verifier the
  server runs, invoke it against mock callbacks, and finally hand the
  identical classfile bytes to :meth:`Client.register_udf_classfile` —
  migration without changing a byte, which is the portability claim.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import adtstream
from ..core.callbacks import standard_callback_signatures
from ..errors import ClientError
from ..vm.classfile import ClassFile
from ..vm.compiler import compile_source
from ..vm.machine import JaguarVM
from ..vm.security import Permissions
from . import protocol


#: Exception raised client-side when the server reports an error.
class ServerReportedError(ClientError):
    def __init__(self, error_class: str, message: str):
        super().__init__(f"{error_class}: {message}")
        self.error_class = error_class


@dataclass
class ClientResult:
    columns: List[str]
    rows: List[tuple]
    rowcount: int

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def scalar(self):
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ClientError("scalar() needs a 1x1 result")
        return self.rows[0][0]


class Client:
    """A connection to a :class:`~repro.server.server.DatabaseServer`.

    Connects (and says HELLO) on construction; use it as a context
    manager or call :meth:`close`.  ``tenant`` names the admission-control
    identity this session's statements queue under.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        tenant: Optional[str] = None,
    ):
        try:
            self._sock = socket.create_connection((host, port), timeout)
        except OSError as exc:
            raise ClientError(f"cannot connect to {host}:{port}: {exc}") from None
        #: Wire accounting (drives the Section 3.1 data-shipping study).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.tenant = tenant
        # The empty HELLO makes this session its own tenant.
        hello = protocol.encode_values(tenant) if tenant is not None else b""
        protocol.send_frame(self._sock, protocol.OP_HELLO, hello)
        opcode, payload = self._recv()
        if opcode != protocol.OP_WELCOME:
            raise ClientError("server did not answer HELLO")
        self.session_id, self.trusted = protocol.decode_values(payload, 2)

    def _send(self, opcode: int, payload: bytes = b"") -> None:
        self.bytes_sent += len(payload) + 5
        protocol.send_frame(self._sock, opcode, payload)

    def _recv(self):
        opcode, payload = protocol.recv_frame(self._sock)
        self.bytes_received += len(payload) + 5
        return opcode, payload

    # -- basic operations ---------------------------------------------------

    def execute(self, sql: str) -> ClientResult:
        self._send(protocol.OP_EXECUTE, protocol.encode_values(sql))
        # Large results stream as OP_RESULT_PART chunks closed by the
        # final OP_RESULT; reassembly is plain concatenation.
        chunks = []
        while True:
            opcode, payload = self._recv()
            if opcode == protocol.OP_RESULT_PART:
                chunks.append(payload)
                continue
            if opcode == protocol.OP_ERROR:
                raise ServerReportedError(*adtstream.load_error(payload))
            if opcode != protocol.OP_RESULT:
                raise ClientError(f"unexpected reply opcode {opcode}")
            chunks.append(payload)
            break
        columns, rowcount, rows = protocol.decode_result(b"".join(chunks))
        return ClientResult(columns=columns, rows=rows, rowcount=rowcount)

    def ping(self) -> bool:
        self._send(protocol.OP_PING)
        opcode, __ = self._recv()
        return opcode == protocol.OP_PONG

    def register_udf_classfile(
        self,
        name: str,
        param_types: Sequence[str],
        ret_type: str,
        classfile: bytes,
        design: str = "sandbox_jit",
        entry: Optional[str] = None,
        callbacks: Sequence[str] = (),
    ) -> None:
        """Migrate a compiled UDF to the server (Section 6.4)."""
        payload = protocol.encode_values(
            name,
            tuple(param_types),
            ret_type,
            design,
            entry or name,
            tuple(callbacks),
            bytes(classfile),
        )
        self._send(protocol.OP_REGISTER_UDF, payload)
        opcode, reply = self._recv()
        if opcode == protocol.OP_ERROR:
            raise ServerReportedError(*adtstream.load_error(reply))
        if opcode != protocol.OP_OK:
            raise ClientError(f"unexpected reply opcode {opcode}")

    def close(self) -> None:
        try:
            protocol.send_frame(self._sock, protocol.OP_CLOSE)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalUDFHarness:
    """Client-side UDF development environment.

    Compiles JagScript with the *standard* callback signature table (the
    same one the server's broker advertises), verifies with the same
    verifier, and runs locally with caller-supplied mock callbacks.
    Because verification and execution semantics are identical at both
    sites, a UDF that works here runs unchanged after migration.
    """

    def __init__(
        self, mock_callbacks: Optional[Dict[str, Callable]] = None
    ):
        self.signatures = standard_callback_signatures()
        self.mock_callbacks = mock_callbacks or {"cb_noop": lambda: 0}
        self.vm = JaguarVM(self.signatures)
        self._counter = 0

    def compile(self, source: str, class_name: str = "Main") -> ClassFile:
        """Compile (not yet verified — loading verifies)."""
        return compile_source(source, class_name, callbacks=self.signatures)

    def compile_to_bytes(self, source: str, class_name: str = "Main") -> bytes:
        """Compile and serialize: the exact bytes migration will ship."""
        return self.compile(source, class_name).to_bytes()

    def run(
        self,
        classfile: bytes,
        entry: str,
        args: Sequence[object],
        callbacks: Sequence[str] = (),
    ) -> object:
        """Load (verify) and invoke locally, with mock callbacks."""
        self._counter += 1
        name = f"dev{self._counter}"
        loaded = self.vm.load_udf(
            name=name,
            classfiles=[bytes(classfile)],
            permissions=Permissions(callbacks=frozenset(callbacks)),
            callbacks=self.mock_callbacks,
        )
        try:
            return loaded.invoke(entry, args)
        finally:
            self.vm.unload_udf(name)

    def load(
        self,
        classfile: bytes,
        callbacks: Sequence[str] = (),
    ):
        """Load (verify) once for repeated invocations.

        Returns a :class:`~repro.vm.machine.LoadedUDF`; use this instead
        of :meth:`run` when invoking the UDF many times (e.g. the
        client-side post-filter of the data-shipping strategy).
        """
        self._counter += 1
        return self.vm.load_udf(
            name=f"dev{self._counter}",
            classfiles=[bytes(classfile)],
            permissions=Permissions(callbacks=frozenset(callbacks)),
            callbacks=self.mock_callbacks,
        )

    def develop(
        self,
        source: str,
        entry: str,
        test_vectors: Sequence[Tuple[Sequence[object], object]],
        callbacks: Sequence[str] = (),
    ) -> bytes:
        """The full client-side loop: compile, verify, test, return bytes.

        ``test_vectors`` is a list of (args, expected) pairs; a mismatch
        raises :class:`ClientError` before anything is migrated.
        """
        classfile = self.compile_to_bytes(source, class_name=f"udf_{entry}")
        for args, expected in test_vectors:
            actual = self.run(classfile, entry, args, callbacks)
            if actual != expected:
                raise ClientError(
                    f"local test failed: {entry}{tuple(args)!r} returned "
                    f"{actual!r}, expected {expected!r}"
                )
        return classfile
