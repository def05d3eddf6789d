"""Designs 2 and 4: UDFs in isolated executor processes.

Section 4.1, transliterated:

* "one remote executor process is assigned to each UDF in the query ...
  created once per query (not once per function invocation)" — the
  registry builds a fresh :class:`RemoteExecutor` per query;
* "Communication between the server and the remote executors happens
  through shared memory.  The server copies the function arguments into
  shared memory, and 'sends' a request by releasing a semaphore.  The
  remote executor, which was blocked trying to acquire the semaphore,
  now executes the function and places the results back into shared
  memory.  The hand-off for callback requests and for the final answer
  return also occur through a semaphore in shared memory." — the
  :class:`_ShmChannel` below implements exactly this, with chunking so
  payloads larger than the buffer still flow through it (each chunk is
  one more copy + semaphore hand-off, so the cost grows with data size,
  as the paper expects);
* crashes are contained: if the worker dies, the server raises
  :class:`~repro.errors.UDFCrashed` — naming the worker's exit status —
  and keeps serving.

The executor owns a :class:`WorkerPool` of one or more worker processes
(``env.parallelism`` wide, :func:`pool_width`), each with its own
private shm buffer and channel; this pool is the engine's only
parallelism.  ``invoke_batch`` shards a batch across the pool's workers
and *pipelines* the dispatch: every shard is marshalled and sent
before the first result is awaited, so worker k+1 starts computing while
the server is still feeding (or later draining) worker k.  Results are
reassembled in shard order, which is input order, so parallelism never
reorders a batch.  ``parallelism=1`` degenerates to the exact serial
protocol: one worker, one round trip per batch.  A worker answers one
request type, ``MSG_INVOKE_BATCH``: a one-row ``invoke`` is a one-row
batch, so there is no per-row message pair.

Design 4 (the paper extrapolates it; we build it) runs the sandboxed
program *inside* the worker, so the UDF gets both process isolation and
the sandbox's verification/quotas.  The program is loaded once, at
CREATE FUNCTION, and each query's worker runs that
:class:`~repro.vm.machine.LoadedUDF`, inherited across ``fork``: per
query Design 4 pays Design 2's process start plus Design 3's
invocations, and its callbacks pay the process-boundary price — the
paper's Design 4 ≈ Design 2 + Design 3, measurable.  UDFs that declared
callbacks keep a pool of one: callback dispatch is interactive and
funnels through the query's single broker binding.

The server does not fork workers itself.  It forks one :class:`Zygote`
per registry epoch, at the first isolated statement; the zygote inherits
every loaded program and imported native module and from then on only
forks workers, still one per UDF per query, so the server's own pages
are never write-protected by a per-query fork.  A worker's channel is
made of file descriptors the zygote passes on: an anonymous shared file
for the buffer and a pipe per semaphore (:class:`_PipeToken`).  The
zygote watches each worker through a pidfd and reports its wait status
on a per-worker pipe, the server's death sentinel, so every server-side
wait is one ``poll`` over a token pipe and that sentinel.  This needs
``os.memfd_create`` and ``os.pidfd_open`` (Linux); a host without them
gets a :class:`~repro.errors.UDFInvocationError` at its first isolated
statement.  Before UDF code runs, the zygote and each worker point
stdin at ``/dev/null`` and close every inherited fd but their own (the
zygote its control socket, a worker its channel), so the server's data
file, WAL and sockets never reach UDF code; both leave with
``os._exit`` (no atexit handlers, and no flush that would write the
server's unflushed output a second time).  No zygote or worker outlives
its server: EOF on the zygote's control socket means the server is
gone, and the zygote kills and reaps its workers and exits.

Every message here, and every zygote request, is :mod:`repro.adtstream`
data, the wire's codec, so only SQL values cross (the analog of PREDATOR
copying raw argument bytes into the segment).  An error crosses as its
class name and message and is rebuilt only from :data:`_ERROR_CLASSES`;
a Design 4 worker's error carries the run-time denials its batch logged,
which join the server's audit log.
A worker message the server cannot read fails the statement with a
:class:`~repro.errors.UDFInvocationError` naming the UDF, and the worker
is killed as if it had crashed.
"""

from __future__ import annotations

import builtins
import gc
import mmap
import os
import select
import signal
import socket
import struct
import threading
import traceback
from functools import partial
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from .. import adtstream, errors
from ..errors import (
    CallbackError,
    ProtocolError,
    ServerError,
    StorageError,
    UDFCrashed,
    UDFInvocationError,
)
from ..types import SQLType
from ..vm.security import AuditRecord, SecurityManager
from .designs import Design
from .factory import UDFExecutor
from .sandbox import admission_claim, loaded_program, run_batch
from .udf import (
    NativeUDFContext,
    ServerEnvironment,
    UDFDefinition,
    conform_results,
    native_batch,
    resolve_native_payload,
)

_HEADER = struct.Struct("<BII")  # msg type, total length, chunk length
#: Bytes in each worker's shared buffer.  The buffer is a sparse
#: anonymous file, so a page costs nothing until a message writes it;
#: a batch larger than the buffer chunks through it.
BUFFER_SIZE = 1 * 1024 * 1024
#: Minimum rows per shard before ``invoke_batch`` fans out to another
#: worker: splitting a tiny batch buys nothing and pays extra hand-offs.
_MIN_SHARD_ROWS = 8

MSG_READY = 1
MSG_CALLBACK = 4
MSG_CB_REPLY = 5
MSG_ERROR = 6
MSG_INVOKE_BATCH = 8
MSG_RESULT_BATCH = 9


class _ShmChannel:
    """Half-duplex chunked messaging over one shared-memory buffer.

    Four semaphores (:class:`_PipeToken` pipes): data-ready and
    chunk-ack in each direction.  The protocol strictly alternates
    (request, then response), mirroring the paper's hand-off
    description.
    """

    def __init__(self, buffer, s2w_ready, s2w_ack, w2s_ready, w2s_ack):
        self.buffer = buffer
        self.s2w_ready = s2w_ready
        self.s2w_ack = s2w_ack
        self.w2s_ready = w2s_ready
        self.w2s_ack = w2s_ack
        self.buffer_size = len(buffer)
        self.max_chunk = self.buffer_size - _HEADER.size
        # Local (per-process) traffic counters; each side counts what it
        # sent/received, so the server's view is the IPC tax it paid.
        self.messages_sent = 0
        self.messages_received = 0
        self.chunks_sent = 0
        self.chunks_received = 0

    # -- direction-agnostic primitives ---------------------------------------

    def _send(self, ready, ack, msg_type: int, payload: bytes,
              peer=None) -> None:
        total = len(payload)
        offset = 0
        first = True
        while first or offset < total:
            if not first:
                # Receiver consumed the previous chunk.  Watch for peer
                # death here too: a multi-chunk send to a dead worker
                # must raise, not block on an ack that will never come.
                self._acquire(ack, peer)
            chunk = payload[offset:offset + self.max_chunk]
            _HEADER.pack_into(self.buffer, 0, msg_type, total, len(chunk))
            self.buffer[_HEADER.size:_HEADER.size + len(chunk)] = chunk
            ready.release()
            offset += len(chunk)
            first = False
            self.chunks_sent += 1
        self.messages_sent += 1

    def _recv(self, ready, ack, peer=None) -> Tuple[int, bytes]:
        self._acquire(ready, peer)
        msg_type, total, chunk_len = _HEADER.unpack_from(self.buffer, 0)
        data = bytearray(
            self.buffer[_HEADER.size:_HEADER.size + chunk_len]
        )
        self.chunks_received += 1
        while len(data) < total:
            ack.release()
            self._acquire(ready, peer)
            __, __, chunk_len = _HEADER.unpack_from(self.buffer, 0)
            data += self.buffer[_HEADER.size:_HEADER.size + chunk_len]
            self.chunks_received += 1
        self.messages_received += 1
        return msg_type, bytes(data)

    def stats(self) -> dict:
        return {
            "buffer_size": self.buffer_size,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "chunks_sent": self.chunks_sent,
            "chunks_received": self.chunks_received,
        }

    @staticmethod
    def _acquire(token: "_PipeToken", peer: Optional["_ZygoteChild"]) -> None:
        """Take one token from ``token``.

        On the server's side ``peer`` is the worker, and one untimed
        ``poll`` waits for the token or the worker's end.  A token
        already in the pipe is taken even if the worker has died since
        it was sent.  EOF instead means the worker is gone: wait for its
        exit status and raise :class:`UDFCrashed` naming it.  On the
        worker's side (no ``peer``) EOF means the server closed its end,
        and raises ``EOFError``.
        """
        if peer is not None:
            peer.wait_readable(token.rfd)
        if token.acquire():
            return
        if peer is None:
            raise EOFError("the peer closed the channel")
        peer.join()
        raise UDFCrashed(
            f"remote UDF executor process died ({peer.status()}); "
            f"the server survives"
        )

    # -- server side --------------------------------------------------------------

    def server_send(self, msg_type: int, payload: bytes, peer=None) -> None:
        self._send(self.s2w_ready, self.s2w_ack, msg_type, payload, peer)

    def server_recv(self, peer) -> Tuple[int, bytes]:
        return self._recv(self.w2s_ready, self.w2s_ack, peer)

    # -- worker side ----------------------------------------------------------------

    def worker_send(self, msg_type: int, payload: bytes) -> None:
        self._send(self.w2s_ready, self.w2s_ack, msg_type, payload)

    def worker_recv(self) -> Tuple[int, bytes]:
        return self._recv(self.s2w_ready, self.s2w_ack)

    def close(self) -> None:
        """Unmap the buffer and close this side's pipe ends."""
        mapping = self.buffer.obj
        self.buffer.release()
        mapping.close()
        for token in (self.s2w_ready, self.s2w_ack, self.w2s_ready,
                      self.w2s_ack):
            token.close()


_STATUS = struct.Struct("<i")  # a worker pid, or a raw wait status


class _PipeToken:
    """A semaphore whose tokens are the bytes in a pipe.

    ``release`` writes one byte and ``acquire`` reads one.  Each side
    of a channel holds only the end it uses, and pipe ends are file
    descriptors, so the zygote can hand a worker its ends.  Once the
    peer is gone the pipe reads EOF and ``acquire`` returns ``False``.
    A ``release`` into a pipe nobody reads any more is dropped; the next
    ``acquire`` finds the death.
    """

    __slots__ = ("rfd", "wfd")

    def __init__(self, rfd: int = -1, wfd: int = -1):
        self.rfd = rfd
        self.wfd = wfd

    def acquire(self) -> bool:
        return bool(os.read(self.rfd, 1))

    def release(self) -> None:
        try:
            os.write(self.wfd, b"\0")
        except BrokenPipeError:
            pass

    def close(self) -> None:
        for fd in (self.rfd, self.wfd):
            if fd >= 0:
                os.close(fd)
        self.rfd = self.wfd = -1


def _pipe_channel(size: int) -> Tuple[_ShmChannel, List[int]]:
    """A channel made of file descriptors, and the worker's ends of it.

    The buffer is an anonymous shared file and each of the four
    semaphores a :class:`_PipeToken`, so the zygote can pass the worker
    its ends with ``socket.send_fds``.  The server's mapping is marked
    ``MADV_DONTFORK``: no process the server forks later (a zygote, and
    so any worker of it) maps this worker's buffer.
    """
    fd = os.memfd_create("udf-executor-shm")
    pipes: List[Tuple[int, int]] = []
    try:
        os.ftruncate(fd, size)
        mapping = mmap.mmap(fd, size)
        mapping.madvise(mmap.MADV_DONTFORK)
        for __ in range(4):
            pipes.append(os.pipe())
    except BaseException:
        for end in [fd, *(end for pipe in pipes for end in pipe)]:
            os.close(end)
        raise
    s2w_ready, s2w_ack, w2s_ready, w2s_ack = pipes
    channel = _ShmChannel(
        memoryview(mapping),
        _PipeToken(wfd=s2w_ready[1]), _PipeToken(rfd=s2w_ack[0]),
        _PipeToken(rfd=w2s_ready[0]), _PipeToken(wfd=w2s_ack[1]),
    )
    return channel, [fd, s2w_ready[0], s2w_ack[1], w2s_ready[1], w2s_ack[0]]


class _ZygoteChild:
    """The server's handle on one worker the zygote forked.

    ``pid``, ``sentinel``, ``exitcode`` (negative for a signal),
    ``is_alive``, ``join`` and ``kill``.  The zygote, the
    worker's parent, reaps it and writes its wait status into the pipe
    whose read end is ``sentinel``, so the sentinel turns readable
    exactly when the worker is gone and its pid reaped.  EOF with no
    status means the zygote died first: the worker must not outlive it,
    so it is killed.  Reading the status closes the sentinel; a joined
    worker holds no fd.
    """

    def __init__(self, pid: int, sentinel: int):
        self.pid = pid
        self.sentinel = sentinel
        self.exitcode: Optional[int] = None
        self._reaped = False
        self._lock = threading.Lock()
        #: One poller per channel pipe the server waits on, each also
        #: watching the sentinel (:meth:`wait_readable`).
        self._pollers: Dict[int, select.poll] = {}

    def _reap(self, timeout: Optional[float]) -> bool:
        """``True`` once the worker's end is known, waiting ``timeout``."""
        if self._reaped:
            return True
        poller = select.poll()
        poller.register(self.sentinel, select.POLLIN)
        if not poller.poll(None if timeout is None else timeout * 1000):
            return False
        with self._lock:  # the sentinel must be closed exactly once
            if not self._reaped:
                status = os.read(self.sentinel, _STATUS.size)
                if len(status) == _STATUS.size:
                    self.exitcode = os.waitstatus_to_exitcode(
                        _STATUS.unpack(status)[0]
                    )
                else:
                    self._signal(signal.SIGKILL)
                self._reaped = True
                os.close(self.sentinel)
        return True

    def wait_readable(self, fd: int) -> None:
        """Block until ``fd`` is readable or the worker has ended.

        One untimed ``poll`` over ``fd`` and the sentinel.  A worker
        already reaped returns at once: its pipes can no longer block.
        """
        if self._reaped:
            return
        poller = self._pollers.get(fd)
        if poller is None:
            poller = self._pollers[fd] = select.poll()
            poller.register(fd, select.POLLIN)
            poller.register(self.sentinel, select.POLLIN)
        for ready, __ in poller.poll():
            if ready == self.sentinel:
                self._reap(0)

    def status(self) -> str:
        """How the worker ended, once it has (see :meth:`join`)."""
        code = self.exitcode
        if code is None:
            return "exit status lost: its zygote died"
        if code < 0:
            try:
                return f"killed by {signal.Signals(-code).name}"
            except ValueError:
                return f"killed by signal {-code}"
        return f"exit code {code}"

    def is_alive(self) -> bool:
        return not self._reap(0)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait up to ``timeout`` seconds for the worker's exit status."""
        self._reap(timeout)

    def _signal(self, signum: int) -> None:
        if not self._reaped:
            _signal(self.pid, signum)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


class _ZygoteProcess:
    """The server's handle on one zygote process.

    ``programs`` maps ``id`` to each sandboxed program (``LoadedUDF``)
    the zygote inherited; a request names its program by that ``id``.
    ``control`` is the server's end of the socket pair the zygote reads
    requests from.  Retiring sends :data:`_RETIRE`: the zygote forks
    nothing more and exits once its last worker is reaped, and the
    control socket reads EOF once the zygote is gone.
    """

    live: "set[_ZygoteProcess]" = set()

    def __init__(self, programs: dict):
        self.programs = programs
        control, child_end = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            control.close()
            child_end.close()
            raise
        if pid == 0:
            # The server's objects are never collected here: a file or
            # socket the server dropped must not be finalized in the
            # zygote or a worker, where its fd number may now name a
            # channel end.
            gc.freeze()
            _forked_child((child_end.fileno(),), _zygote_main, child_end,
                          programs)
        child_end.close()
        self.pid = pid
        self.control = control
        _ZygoteProcess.live.add(self)

    def fork_worker(self, request: bytes, fds: List[int]) -> int:
        """Have the zygote fork one worker on ``fds``; its pid."""
        socket.send_fds(self.control, [request], fds)
        reply = self.control.recv(_STATUS.size)
        if len(reply) != _STATUS.size:
            raise EOFError("the executor zygote is gone")
        pid = _STATUS.unpack(reply)[0]
        if pid < 0:
            raise OSError(-pid, os.strerror(-pid))
        return pid

    def retire(self) -> None:
        try:
            self.control.sendall(adtstream.dumps(_RETIRE))
        except OSError:
            pass  # already gone

    def join(self, timeout: Optional[float]) -> bool:
        """Reap the zygote if it is gone within ``timeout`` seconds."""
        poller = select.poll()
        poller.register(self.control, select.POLLIN)
        if not poller.poll(None if timeout is None else timeout * 1000):
            return False
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass
        self.control.close()
        _ZygoteProcess.live.discard(self)
        return True

    def kill(self) -> None:
        _signal(self.pid, signal.SIGKILL)

    def close(self) -> None:
        """Send the zygote EOF, so it kills its workers and exits; reap it."""
        try:
            self.control.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # already gone
        self.join(None)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


class Zygote:
    """One server's template process for Designs 2 and 4.

    The server forks the zygote lazily, the first time an isolated
    statement runs in a registry epoch, so it inherits every loaded
    ``LoadedUDF`` and every imported native module.  It never runs UDF
    code and never serves a query: it only forks workers, one per UDF
    per query as before (§4.1), and reaps them.  Forking from the
    zygote instead of the server leaves the server's heap alone: a fork
    write-protects every page of its parent, and the server would pay a
    page fault on each page it next wrote.

    A zygote serves only programs it inherited.  A registry change
    (:meth:`retire`) or a request for a program it does not hold retires
    it; a retired zygote exits once its last worker is reaped, and the
    next request forks a fresh one.  A zygote found dead is replaced and
    the request retried once.  A lock serializes requests from
    connection threads.  :meth:`close` (``Database.close``) ends every
    zygote of this server and its workers, as the server's exit does.
    A host without ``os.pidfd_open`` or ``os.memfd_create``
    cannot run one, and gets a :class:`UDFInvocationError` naming the
    missing call.
    """

    def __init__(self):
        missing = [
            f"os.{call}" for call in ("pidfd_open", "memfd_create")
            if not hasattr(os, call)
        ]
        if missing:
            raise UDFInvocationError(
                f"isolated UDF designs need {' and '.join(missing)}, "
                f"which this host lacks (Linux has both)"
            )
        self._lock = threading.Lock()
        self._current: Optional[_ZygoteProcess] = None
        self._retired: List[_ZygoteProcess] = []

    @property
    def pid(self) -> Optional[int]:
        """The serving zygote's pid, ``None`` before the first fork."""
        current = self._current
        return None if current is None else current.pid

    def fork_worker(self, vm, worker_payload: tuple,
                    channel: List[int]) -> _ZygoteChild:
        """Fork one worker running ``worker_payload`` on ``channel``.

        ``channel`` is the worker's ends (:func:`_pipe_channel`); ``vm``
        is the server's ``JaguarVM``, whose loaded programs a new zygote
        inherits.
        """
        sentinel, status_end = os.pipe()
        try:
            pid = self._fork(vm, worker_payload, [*channel, status_end])
        except BaseException:
            os.close(sentinel)
            raise
        finally:
            os.close(status_end)
        return _ZygoteChild(pid, sentinel)

    def _fork(self, vm, worker_payload: tuple, fds: List[int]) -> int:
        program = worker_payload[1] if worker_payload[0] == "jaguar" else None
        request = worker_payload
        if program is not None:
            request = (worker_payload[0], id(program), *worker_payload[2:])
        request = adtstream.dumps(request)
        with self._lock:
            self._retired = [z for z in self._retired if not z.join(0)]
            for attempt in range(2):
                zygote = self._current
                if (zygote is not None and program is not None
                        and zygote.programs.get(id(program)) is not program):
                    self._retire_current()
                    zygote = None
                if zygote is None:
                    programs = {
                        id(loaded): loaded
                        for loaded in vm.loaded_udfs.values()
                    }
                    if program is not None:
                        programs[id(program)] = program
                    zygote = self._current = _ZygoteProcess(programs)
                try:
                    return zygote.fork_worker(request, fds)
                except (EOFError, ConnectionError):
                    # Found dead: reap it, then fork a fresh one.
                    self._current = None
                    zygote.kill()
                    zygote.join(None)
                    if attempt:
                        raise UDFCrashed(
                            "the executor zygote died twice in a row; "
                            "the server survives"
                        ) from None

    def retire(self) -> None:
        """The registry changed: the next request forks a fresh zygote."""
        with self._lock:
            self._retire_current()

    def _retire_current(self) -> None:
        zygote, self._current = self._current, None
        if zygote is not None:
            zygote.retire()
            self._retired.append(zygote)

    def close(self) -> None:
        """End and reap every zygote of this server, and their workers."""
        with self._lock:
            self._retire_current()
            for zygote in self._retired:
                zygote.close()
            self._retired = []


def _close_inherited(keep: Sequence[int]) -> None:
    """Point stdin at ``/dev/null`` and close every fd >= 3 not in ``keep``."""
    null = os.open(os.devnull, os.O_RDONLY)
    if null != 0:
        os.dup2(null, 0)
        os.close(null)
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _forked_child(keep: Sequence[int], main, *args) -> None:
    """Run ``main(*args)`` in a forked child; never returns.

    Before ``main`` runs, every fd the parent had open but ``keep`` is
    closed (data file, WAL, sockets, other workers' channels): a zygote
    keeps only its control socket, a worker only its channel.
    """
    code = 1
    try:
        _close_inherited(keep)
        main(*args)
        code = 0
    except BaseException:
        # Every exception, SystemExit included, ends here: unwinding any
        # further would run the parent's own code in the child.  Straight
        # to fd 2, since ``sys.stderr`` may wrap an fd just closed; if
        # that write fails too, ``finally`` still exits.
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


#: The zygote request that retires it.
_RETIRE = ("retire",)


def _zygote_main(control: socket.socket, programs: dict) -> None:
    """The zygote: fork a worker per request, reap each, report its end.

    A request is an adtstream worker payload (a program named by its
    ``id`` in ``programs``) plus six fds: the worker's five channel ends
    and the write end of the server's status pipe for it.  The reply is
    the worker's pid, or ``-errno`` if ``fork`` failed.  The zygote
    watches each worker through a pidfd, which turns readable once the
    worker has exited (nothing the worker does to its own fds can fake
    it), then reaps it and writes its wait status to the server.  After
    :data:`_RETIRE` it exits after its last worker; on EOF, the server's
    death, it kills its workers first.
    """
    poller = select.poll()
    poller.register(control, select.POLLIN)
    workers: Dict[int, Tuple[int, int]] = {}  # pidfd -> (pid, status fd)
    serving = True
    while serving or workers:
        for fd, __ in poller.poll():
            if fd in workers:
                poller.unregister(fd)
                _report_exit(fd, *workers.pop(fd))
                continue
            try:
                request, fds, __, __ = socket.recv_fds(control, 4096, 6)
            except OSError:
                request, fds = b"", []
            if not request:
                for pid, __ in workers.values():
                    _signal(pid, signal.SIGKILL)
                for pidfd, (pid, status_fd) in workers.items():
                    _report_exit(pidfd, pid, status_fd)
                return
            request = adtstream.loads(request)
            if request == _RETIRE:
                serving = False
                continue
            *channel, status_fd = fds
            try:
                pid = os.fork()
            except OSError as exc:
                pid = -exc.errno
            if pid == 0:
                _forked_child(channel, _worker_main, programs, request,
                              channel)
            for end in channel:
                os.close(end)
            if pid > 0:
                exited = os.pidfd_open(pid)
                workers[exited] = (pid, status_fd)
                poller.register(exited, select.POLLIN)
            else:
                os.close(status_fd)
            control.sendall(_STATUS.pack(pid))


def _report_exit(pidfd: int, pid: int, status_fd: int) -> None:
    """Reap an exited (or killed) worker and send the server its status."""
    os.close(pidfd)
    __, status = os.waitpid(pid, 0)
    try:
        os.write(status_fd, _STATUS.pack(status))
    except OSError:
        pass  # the server stopped listening
    os.close(status_fd)


class _Worker:
    """One executor process plus its private shm buffer and channel.

    The zygote forks the process onto a channel of file descriptors
    (:func:`_pipe_channel`); ``process`` is the server's
    :class:`_ZygoteChild` handle on it.
    """

    def __init__(self, env: ServerEnvironment, buffer_size: int,
                 worker_payload: tuple, index: int):
        self.index = index
        zygote = env.zygote  # first, so a host without one is refused
        self.channel, ends = _pipe_channel(buffer_size)
        try:
            self.process = zygote.fork_worker(env.vm, worker_payload, ends)
        except BaseException:
            self.channel.close()
            raise
        finally:
            for end in ends:
                os.close(end)

    def send(self, msg_type: int, payload: bytes) -> None:
        self.channel.server_send(msg_type, payload, self.process)

    def recv(self) -> Tuple[int, bytes]:
        return self.channel.server_recv(self.process)

    def unreadable(self, udf_name: str,
                   exc: ProtocolError) -> UDFInvocationError:
        """The worker sent what the server cannot read: kill it, as if
        it had crashed, and name the UDF in the statement's error."""
        self.process.kill()
        self.process.join()
        return UDFInvocationError(
            f"UDF {udf_name!r} sent a message the server cannot read "
            f"({exc}); its executor process was killed"
        )

    def close(self) -> None:
        """Close the channel: an idle worker reads EOF and exits, and one
        still busy a second later is killed."""
        process = self.process
        if process is None:
            return
        self.process = None
        self.channel.close()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()


class WorkerPool:
    """N worker processes for one UDF, each with its own channel.

    All processes are forked first so their startups overlap; only then
    does the server collect each worker's READY.  One thread drives the
    pool (the statement's), so a batch simply takes the first workers it
    needs.
    """

    def __init__(
        self,
        definition: UDFDefinition,
        env: ServerEnvironment,
        size: int,
        buffer_size: int,
        worker_payload: tuple,
    ):
        self.definition = definition
        self.size = max(1, size)
        self._workers: List[_Worker] = []
        try:
            for index in range(self.size):
                self._workers.append(
                    _Worker(env, buffer_size, worker_payload, index)
                )
            for worker in self._workers:
                msg_type, payload = worker.recv()
                try:
                    if msg_type == MSG_ERROR:
                        raise _remote_error(payload, definition.name)
                    if msg_type != MSG_READY:
                        raise ProtocolError(f"message type {msg_type}")
                except ProtocolError as exc:
                    raise worker.unreadable(definition.name, exc) from None
        except Exception:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        return not self._workers

    @property
    def workers(self) -> List[_Worker]:
        return list(self._workers)

    def stats(self) -> dict:
        """Rollup across workers, keeping the flat single-channel keys.

        ``buffer_size`` is per worker (they are all sized alike); the
        traffic counters are summed; ``per_worker`` holds each channel's
        own dict for attribution.
        """
        per_worker = [worker.channel.stats() for worker in self._workers]
        rollup = {
            "buffer_size": per_worker[0]["buffer_size"] if per_worker else 0,
            "messages_sent": sum(s["messages_sent"] for s in per_worker),
            "messages_received": sum(
                s["messages_received"] for s in per_worker
            ),
            "chunks_sent": sum(s["chunks_sent"] for s in per_worker),
            "chunks_received": sum(
                s["chunks_received"] for s in per_worker
            ),
            "workers": len(per_worker),
            "per_worker": per_worker,
        }
        return rollup

    def close(self) -> None:
        """Join or terminate every worker; drop all IPC references.

        The worker list is swapped out before joining, so the pool reads
        closed at once, and each channel's buffer and pipes lose their
        last server-side references once its worker is gone — nothing
        leaks across queries.
        """
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.close()


def _stamp_shard(exc: BaseException, index: int, start: int,
                 stop: int) -> None:
    """Attach the worker (shard ``index`` goes to pool worker ``index``)
    and the in-flight row range to a worker-crash exception."""
    if isinstance(exc, UDFCrashed) and exc.shard is None:
        exc.worker_index = index
        exc.shard = (start, stop)


def _split_shards(rows: Sequence, count: int) -> List[Sequence]:
    """Contiguous near-even shards; concatenation restores input order."""
    base, extra = divmod(len(rows), count)
    shards = []
    offset = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(rows[offset:offset + size])
        offset += size
    return shards


def pool_width(definition: UDFDefinition, parallelism: int) -> int:
    """Worker processes an isolated executor for ``definition`` starts.

    ``parallelism`` wide, except that a UDF which declared callbacks
    keeps one worker: callbacks are interactive round trips through the
    query's single broker binding, so their traffic stays strictly
    ordered.
    """
    if definition.callbacks:
        return 1
    return max(1, int(parallelism))


class RemoteExecutor(UDFExecutor):
    """Per-query remote executor pool (Design 2 / Design 4)."""

    def __init__(
        self,
        definition: UDFDefinition,
        env: ServerEnvironment,
        buffer_size: int = BUFFER_SIZE,
        parallelism: Optional[int] = None,
    ):
        super().__init__(definition, env)
        if parallelism is None:
            parallelism = env.parallelism
        # Every payload ends with the UDF's name and RETURNS type: the
        # worker conforms its results before it encodes them.
        declared = (definition.name, definition.signature.ret_type.value)
        if definition.design.is_sandboxed:
            # The program the registration compiled, verified, analysed,
            # JIT-compiled and built its tier-1 kernel for; a forked
            # worker inherits it as is.
            self._loaded = loaded_program(definition, env)
            self._security = self._loaded.security
            worker_payload = (
                "jaguar",
                self._loaded,
                definition.entry,
                definition.design is not Design.SANDBOX_INTERP,
                *declared,
            )
        else:
            # Validate importability in the server before shipping the
            # module path to the worker.
            resolve_native_payload(definition.payload)
            self._security = None
            worker_payload = ("native", bytes(definition.payload), *declared)
        self._reservation = None
        self._pool = WorkerPool(
            definition, env, pool_width(definition, parallelism),
            buffer_size, worker_payload,
        )

    @property
    def pool_size(self) -> int:
        return self._pool.size

    def channel_stats(self) -> dict:
        """Server-side IPC traffic counters (for benchmarks/audits).

        Flat keys aggregate every worker channel; ``per_worker`` breaks
        the same counters out per process.  When a profile is attached,
        the pool's shm round-trip latency summary rides along under
        ``round_trip_ns``: the one figure only this design can measure
        (the call site records everything else, for every design).
        """
        stats = self._pool.stats()
        prof = self.profile
        if prof is not None:
            stats["round_trip_ns"] = prof.round_trip_ns.summary()
        return stats

    # -- admission ------------------------------------------------------------

    def begin_query(self, binding=None) -> None:
        super().begin_query(binding)
        registry = self.env.thread_groups
        if (
            self._reservation is not None
            or registry is None
            or self._pool.closed
            or not self.definition.design.is_sandboxed
        ):
            return
        # Per-worker quota attribution: one labelled claim per pool
        # worker, so the group ledger shows which process holds what and
        # admission control sees the pool's true concurrent worst case.
        group = registry.group_for(self.definition.name.lower())
        # Each pool worker runs one invocation at a time under the
        # program's own policy, so N workers are N concurrent worst cases.
        fuel_claim, mem_claim = admission_claim(
            self._loaded, self.definition.entry
        )
        held = []
        try:
            for worker in self._pool.workers:
                holder = (
                    f"{self.definition.name.lower()}/worker{worker.index}"
                )
                group.reserve(fuel_claim, mem_claim, holder=holder)
                held.append(holder)
        except Exception:
            for holder in held:
                group.release(fuel_claim, mem_claim, holder=holder)
            raise
        self._reservation = (group, fuel_claim, mem_claim, held)

    def _release_reservation(self) -> None:
        if self._reservation is None:
            return
        group, fuel_claim, mem_claim, held = self._reservation
        self._reservation = None
        for holder in held:
            group.release(fuel_claim, mem_claim, holder=holder)

    # -- invocation ------------------------------------------------------------

    def _collect(self, worker: _Worker, rows: int) -> list:
        """Drive one worker's channel until its ``rows`` results (or its
        error) land.

        Callback requests are serviced inline — each one is a shared
        memory round trip through the query's broker binding, the per
        callback cost Figure 8 measures.
        """
        name = self.definition.name
        try:
            while True:
                msg_type, payload = worker.recv()
                if msg_type == MSG_RESULT_BATCH:
                    results = adtstream.loads(payload)
                    if not isinstance(results, tuple) or len(results) != rows:
                        raise ProtocolError(f"not a row of {rows} results")
                    return list(results)
                if msg_type == MSG_CALLBACK:
                    self._callback(worker, adtstream.loads(payload))
                elif msg_type == MSG_ERROR:
                    raise _remote_error(payload, name, self._security)
                else:
                    raise ProtocolError(f"message type {msg_type}")
        except ProtocolError as exc:
            raise worker.unreadable(name, exc) from None

    def _callback(self, worker: _Worker, request: object) -> None:
        """Run one ``(name, args)`` callback and send its reply or error."""
        if not (isinstance(request, tuple) and len(request) == 2
                and isinstance(request[0], str)
                and isinstance(request[1], tuple)):
            raise ProtocolError("a callback is a name and an argument row")
        name, args = request
        try:
            reply = adtstream.dumps(self.binding.invoke(name, *args))
        except Exception as exc:  # callback failed: tell the UDF
            worker.send(MSG_ERROR, _error_message(exc))
        else:
            worker.send(MSG_CB_REPLY, reply)

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """Shard one batch across the pool's workers, pipelined, order kept.

        With one worker (or a batch too small to shard) the batch is one
        shard: N argument tuples cross together and N results come back
        together — two hand-offs per *batch* instead of per tuple, and a
        one-row call is just a one-row shard.  With more workers the
        batch splits into contiguous shards; every shard is sent before
        any result is awaited, so all workers compute while the server
        marshals, and results are collected in shard order —
        concatenation restores input order regardless of which worker
        finished first.

        The first failing invocation aborts the batch with its original
        exception: shards are contiguous, so the lowest-shard error is
        the earliest input row's error.  Remaining workers are still
        drained so their channels stay request/response aligned for the
        next batch.
        """
        if not args_list:
            return []
        if self._pool.closed:
            raise UDFInvocationError("remote executor is closed")
        if self.binding is None:
            self.begin_query()
        pool = self._pool
        prof = self.profile
        want = min(pool.size, max(1, len(args_list) // _MIN_SHARD_ROWS))
        workers = pool.workers[:want]
        shards = _split_shards(args_list, len(workers))
        # Cumulative row offsets: shard ``i`` covers the half-open input
        # range ``[offsets[i], offsets[i + 1])`` — the crash report's
        # shard slice.
        offsets = [0]
        for shard in shards:
            offsets.append(offsets[-1] + len(shard))
        results: list = []
        errors: List[Tuple[int, Exception]] = []
        sent: List[_Worker] = []
        sent_at: List[int] = []
        for index, (shard_worker, shard) in enumerate(zip(workers, shards)):
            try:
                if prof is not None:
                    sent_at.append(perf_counter_ns())
                shard_worker.send(MSG_INVOKE_BATCH, self._encode(shard))
            except Exception as exc:
                _stamp_shard(exc, index, offsets[index], offsets[index + 1])
                errors.append((index, exc))
                break  # later shards were never dispatched
            sent.append(shard_worker)
        # Drain every worker that got a request — even after an earlier
        # shard failed — so each channel is back at its request/response
        # boundary for the next batch.
        for index, shard_worker in enumerate(sent):
            try:
                part = self._collect(shard_worker, len(shards[index]))
            except Exception as exc:
                _stamp_shard(exc, index, offsets[index], offsets[index + 1])
                errors.append((index, exc))
                continue
            if prof is not None:
                prof.round_trip_ns.observe(perf_counter_ns() - sent_at[index])
            if not errors:
                results.extend(part)
        if errors:
            # Shards are contiguous, so the lowest shard's failure is
            # the earliest input row's failure — what serial raises.
            raise min(errors, key=lambda pair: pair[0])[1]
        return results

    def _encode(self, shard: Sequence) -> bytes:
        try:
            return adtstream.dumps(shard)
        except ProtocolError as exc:
            raise UDFInvocationError(
                f"UDF {self.definition.name!r} got an argument that cannot "
                f"leave the server: {exc}"
            ) from None

    # -- teardown ----------------------------------------------------------------

    def end_query(self) -> None:
        super().end_query()
        self.close()

    def close(self) -> None:
        self._release_reservation()
        if not self._pool.closed:
            self._pool.close()
        self.binding = None


#: The error classes a channel message may name, each rebuilt from its
#: message alone.  Not storage or server errors (a worker holds no storage
#: and is not the server; a ``WALError`` publishes nothing), nor
#: ``StopIteration``, which would end an iteration instead of failing.
_ERROR_CLASSES = {
    cls.__name__: cls
    for module in (errors, builtins)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and not issubclass(cls, (StorageError, ServerError, StopIteration,
                             StopAsyncIteration))
}


#: The classes of a denial record's ``(timestamp, action, target)``.
_DENIAL = (float, str, str)


def _error_message(exc: BaseException, denials: Sequence = ()) -> bytes:
    """An ``MSG_ERROR`` payload: the sender's new ``(timestamp, action,
    target)`` denial records as a row batch, then the error."""
    return adtstream.dump_rows(denials) + adtstream.dump_error(exc)


def _remote_error(payload: bytes, udf_name: str,
                  security: Optional[SecurityManager] = None) -> Exception:
    """The error the other end reported; a class outside
    :data:`_ERROR_CLASSES`, or one needing more than a message, becomes a
    :class:`UDFInvocationError` naming the UDF.  The denials a Design 4
    worker logged on the way join ``security``'s audit log, attributed
    to its class, so they outlive the worker."""
    denials, pos = adtstream.read_rows(payload, 0)
    name, message = adtstream.load_error(payload, pos)
    if any(tuple(map(type, denial)) != _DENIAL for denial in denials):
        raise ProtocolError("a denial is a time, an action and a target")
    if security is not None:
        security.audit_log.extend(
            AuditRecord(stamp, security.class_name, action, target, False)
            for stamp, action, target in denials
        )
    cls = _ERROR_CLASSES.get(name)
    if cls is not None:
        try:
            return cls(message)
        except TypeError:
            pass
    return UDFInvocationError(
        f"UDF {udf_name!r} failed remotely: {name}: {message}"
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

class _RemoteCallbackPort:
    """Worker-side callback dispatch: every call crosses the boundary.

    This is the per-callback cost Figure 8 measures for IC++: a shared
    memory round trip (two copies, two semaphore hand-offs) per request.
    """

    def __init__(self, channel: _ShmChannel):
        self.channel = channel

    def invoke(self, name: str, *args) -> object:
        self.channel.worker_send(MSG_CALLBACK, adtstream.dumps((name, args)))
        msg_type, payload = self.channel.worker_recv()
        if msg_type == MSG_CB_REPLY:
            return adtstream.loads(payload)
        if msg_type == MSG_ERROR:
            raise _remote_error(payload, "<callback>")
        raise CallbackError(f"unexpected reply type {msg_type} to callback")


def _worker_main(programs: dict, request: tuple,
                 channel_fds: List[int]) -> None:
    """A worker the zygote forked: map its channel, answer until shutdown.

    ``request`` is the decoded worker payload, its program named by its
    ``id`` in ``programs`` and its last two items the UDF's name and
    ``RETURNS`` type, to which every result is conformed before it is
    encoded; ``channel_fds`` are the worker's ends of
    :func:`_pipe_channel`.
    """
    kind, *rest = request
    if kind == "jaguar":
        rest[0] = programs[rest[0]]
    memfd, s2w_ready, s2w_ack, w2s_ready, w2s_ack = channel_fds
    buffer = mmap.mmap(memfd, 0)
    os.close(memfd)
    channel = _ShmChannel(
        memoryview(buffer),
        _PipeToken(rfd=s2w_ready), _PipeToken(wfd=s2w_ack),
        _PipeToken(wfd=w2s_ready), _PipeToken(rfd=w2s_ack),
    )
    *worker_payload, name, ret = (kind, *rest)
    ret = SQLType(ret)
    port = _RemoteCallbackPort(channel)
    try:
        invoke_batch = _build_worker_invoker(worker_payload, port)
    except Exception as exc:
        channel.worker_send(MSG_ERROR, _error_message(exc))
        return
    # A sandboxed program's run-time denials ship back with the batch's
    # error: this copy of its audit log dies with the worker.
    audit_log = rest[0].security.audit_log if kind == "jaguar" else []
    channel.worker_send(MSG_READY, b"")
    while True:
        try:
            msg_type, payload = channel.worker_recv()
        except EOFError:  # the server closed the channel or is gone
            return
        # One request type: one decode, N invocations, one reply.  A
        # failure anywhere, encoding the results included, aborts the
        # batch with that exception.
        logged = len(audit_log)
        try:
            if msg_type != MSG_INVOKE_BATCH:
                raise UDFInvocationError(f"unexpected message {msg_type}")
            results = invoke_batch(adtstream.loads(payload))
            reply = adtstream.dumps(conform_results(name, ret, results))
        except Exception as exc:
            denials = [
                (record.timestamp, record.action, record.target)
                for record in audit_log[logged:] if not record.allowed
            ]
            channel.worker_send(MSG_ERROR, _error_message(exc, denials))
            continue
        channel.worker_send(MSG_RESULT_BATCH, reply)


def _build_worker_invoker(worker_payload: tuple, port: _RemoteCallbackPort):
    """Build this worker's batch callable: a list of argument tuples in,
    their results out, in order."""
    kind = worker_payload[0]
    if kind == "native":
        return native_batch(
            resolve_native_payload(worker_payload[1]),
            NativeUDFContext(port),
        )

    if kind == "jaguar":
        __, loaded, entry, use_jit = worker_payload
        # ``loaded`` is the server's prepared program, inherited across
        # ``os.fork``.  The worker only binds it to this process's
        # callback port; quotas are the program's policy, the same one
        # Design 3 enforces.
        context = loaded.make_context(callbacks={
            name: partial(port.invoke, name)
            for name in loaded.security.permissions.callbacks
        })
        # When the flow certificate proves parameters read-only,
        # ``make_invoker`` skips the defensive copy of byte arrays
        # arriving from shared memory — they were already copied out of
        # the ring buffer by decoding, so the sandbox can use that
        # buffer directly.
        invoke_one = loaded.make_invoker(entry, context, use_jit=use_jit)
        # The in-process executor's batch routine: the kernel the
        # inherited program built at load, else the certified
        # reset-elision loop.
        return lambda rows: run_batch(loaded, entry, context, invoke_one,
                                      rows)

    raise UDFInvocationError(f"unknown worker payload kind {kind!r}")
