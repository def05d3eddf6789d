"""Exception hierarchy for the repro package.

The hierarchy mirrors the trust boundaries of the paper: errors raised by
*untrusted* UDF code (``UDFError`` and subclasses) must never be confused
with errors in the trusted server (``ServerError`` and subclasses), because
the former are expected, recoverable events while the latter indicate bugs
or corruption in the DBMS itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-manager failures."""


class PageError(StorageError):
    """A slotted-page operation failed (bad slot, no space, corruption)."""


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (all frames pinned...)."""


class DiskError(StorageError):
    """The disk manager hit an I/O or file-format problem."""


class RecordError(StorageError):
    """Record (de)serialization failed or a value does not fit the schema."""


class IndexError_(StorageError):
    """A B+-tree operation failed (duplicate key where unique required...)."""


class WALError(StorageError):
    """The write-ahead log hit an I/O problem (e.g. a failed fsync).

    A failed fsync means a commit cannot honestly be acknowledged; the
    log marks itself dead and every subsequent operation raises, so the
    engine stops accepting writes instead of losing them silently.
    """


class SimulatedCrash(StorageError):
    """An injected fault killed the storage layer mid-operation.

    Raised by :class:`~repro.storage.wal.FaultPoint` implementations in
    the fault-injection test harness to model a process death at an
    arbitrary write.  Once raised, the WAL/disk managers refuse all
    further work (a dead process does not keep writing); the harness
    then reopens the database files to exercise crash recovery.
    """


# ---------------------------------------------------------------------------
# SQL layer
# ---------------------------------------------------------------------------

class SQLError(ReproError):
    """Base class for query-processing failures."""


class LexError(SQLError):
    """The tokenizer found an invalid character, an unterminated literal
    or an integer literal outside the 64-bit INT range."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The parser could not build a statement from the token stream."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class PlanError(SQLError):
    """Semantic analysis / planning failed (unknown table, type mismatch)."""


class ExecutionError(SQLError):
    """A query plan failed while executing."""


class CatalogError(SQLError):
    """Catalog lookup or mutation failed (duplicate table, unknown UDF)."""


# ---------------------------------------------------------------------------
# JaguarVM (the sandboxed "Java" analog)
# ---------------------------------------------------------------------------

class VMError(ReproError):
    """Base class for every JaguarVM failure.

    Every error raised on behalf of sandboxed code derives from this class,
    so the server can catch ``VMError`` at the UDF boundary and know the
    fault is confined to the sandbox.
    """


class CompileError(VMError):
    """The restricted-Python front end rejected the UDF source."""

    def __init__(self, message: str, line: int = -1):
        super().__init__(message)
        self.line = line


class ClassFormatError(VMError):
    """A classfile failed structural validation while being decoded."""


class VerifyError(VMError):
    """The bytecode verifier rejected a classfile (Section 6.1)."""


class LinkError(VMError):
    """Class/function resolution through a class loader failed."""


class VMRuntimeError(VMError):
    """Sandboxed code raised a runtime fault (the Java-exception analog)."""


class BoundsError(VMRuntimeError):
    """An array access was out of range (caught by the mandatory check)."""


class ArithmeticFault(VMRuntimeError):
    """Division by zero or a numeric conversion fault in sandboxed code."""


class StackOverflowFault(VMRuntimeError):
    """Sandboxed code exceeded the call-depth limit."""


class SecurityViolation(VMError):
    """The security manager denied an operation (Section 6.1)."""


class ResourceExhausted(VMError):
    """A resource quota was exceeded (Section 6.2 / J-Kernel analog)."""


class FuelExhausted(ResourceExhausted):
    """The instruction (CPU) quota ran out."""


class AccountRevoked(FuelExhausted):
    """The account was revoked (kill-by-owner, not a runaway loop).

    A subclass of :class:`FuelExhausted` so existing handlers keep
    working, but distinguishable: EXPLAIN/audit can tell a thread-group
    kill apart from a UDF that genuinely burned its own budget.
    """


class MemoryQuotaExceeded(ResourceExhausted):
    """The allocation (heap) quota ran out."""


class AdmissionRefused(ResourceExhausted):
    """Admission control refused an invocation before it started.

    Raised when a certified worst-case claim cannot fit the thread
    group's remaining budget — the invocation is rejected (or queued)
    up front instead of being killed mid-flight.
    """


# ---------------------------------------------------------------------------
# UDF subsystem
# ---------------------------------------------------------------------------

class UDFError(ReproError):
    """Base class for UDF-subsystem failures that are the UDF's fault."""


class UDFRegistrationError(UDFError):
    """A UDF definition was malformed or conflicted with an existing one."""


class UDFInvocationError(UDFError):
    """A UDF raised or returned a value that does not match its signature."""


class UDFCrashed(UDFError):
    """An isolated UDF executor process died; the server survived.

    ``worker_index`` is the pool worker that died and ``shard`` the
    half-open ``(start, stop)`` row range of the batch that worker held
    when it went down — so a crash report names exactly which rows were
    in flight.  Both stay ``None`` when the context is unknown (e.g. a
    crash outside any dispatch).
    """

    def __init__(self, message: str, worker_index=None, shard=None):
        super().__init__(message)
        self.worker_index = worker_index
        self.shard = shard


class CallbackError(UDFError):
    """A UDF callback was unknown, denied, or failed."""


class SFIViolation(UDFError):
    """An SFI-instrumented native UDF touched memory outside its region."""


# ---------------------------------------------------------------------------
# Client/server layer
# ---------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for trusted-server failures."""


class ProtocolError(ServerError):
    """A malformed message arrived on the wire."""


class AuthError(ServerError):
    """A session attempted an operation it is not authorized for."""


class ClientError(ReproError):
    """The client library hit a connection or usage problem."""
