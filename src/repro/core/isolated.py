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
(``env.parallelism`` wide), each with its own private shm buffer and
channel.  ``invoke_batch`` shards a batch across the currently idle
workers and *pipelines* the dispatch: every shard is marshalled and sent
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
CREATE FUNCTION, and each query's worker gets that
:class:`~repro.vm.machine.LoadedUDF` as an argument of ``_worker_main``
(inherited across ``os.fork``, pickled into a ``multiprocessing`` child
under ``spawn``): per query Design 4 pays Design 2's process start plus
Design 3's invocations, and its callbacks pay the process-boundary
price — the paper's Design 4 ≈ Design 2 + Design 3, measurable.
UDFs that declared callbacks keep a pool of one: callback dispatch is
interactive and funnels through the query's single broker binding.

Where ``fork`` exists a worker is one bare ``os.fork``: the child points
stdin at ``/dev/null``, closes every inherited file descriptor but its
death sentinel — the server's data file, WAL and sockets never reach UDF
code — runs ``_worker_main`` and leaves with ``os._exit`` (no atexit
handlers, and no flush that would write the server's unflushed output a
second time).  The shm buffer and the semaphores are mappings, so they
survive the purge.

Marshalling uses :mod:`pickle` restricted to primitive SQL values (see
``_dumps``/``_loads``) — the analog of PREDATOR copying raw argument
bytes into the segment.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import select
import signal
import struct
import threading
import traceback
from time import perf_counter_ns
from typing import List, Optional, Sequence, Tuple

from ..errors import CallbackError, UDFCrashed, UDFInvocationError
from .designs import Design
from .factory import UDFExecutor
from .sandbox import admission_claim, loaded_program, run_batch
from .udf import ServerEnvironment, UDFDefinition, resolve_native_payload

_HEADER = struct.Struct("<BII")  # msg type, total length, chunk length
DEFAULT_BUFFER = 256 * 1024
MAX_BUFFER = 8 * 1024 * 1024
#: Ceiling for *hint-driven* buffer pre-sizing.  The shm buffer is
#: allocated once per worker and retained for the whole query, so a
#: giant batch hint (``db.batch_size = 100_000`` against a ``bytes``
#: parameter) must not pin ``MAX_BUFFER`` per worker for the duration —
#: oversized batches chunk through a capped buffer instead.  Callers
#: passing an explicit ``buffer_size`` still get up to ``MAX_BUFFER``.
RETAINED_BUFFER_CAP = 1 * 1024 * 1024
_POLL_INTERVAL = 0.05
#: Minimum rows per shard before ``invoke_batch`` fans out to another
#: worker: splitting a tiny batch buys nothing and pays extra hand-offs.
_MIN_SHARD_ROWS = 8

MSG_READY = 1
MSG_CALLBACK = 4
MSG_CB_REPLY = 5
MSG_ERROR = 6
MSG_SHUTDOWN = 7
MSG_INVOKE_BATCH = 8
MSG_RESULT_BATCH = 9

#: Marshalled-size guesses per SQL parameter type, used to pre-size the
#: shared buffer so a whole batch usually crosses in one chunk.
_PARAM_SIZE_ESTIMATE = {"bytes": 16384, "str": 256}
_PARAM_SIZE_DEFAULT = 64


def _estimate_buffer_size(definition: UDFDefinition, batch_hint: int) -> int:
    """Size the shm buffer for one batched request/response.

    Chunking still works as the fallback (a 100 KB byte array at batch
    64 will always exceed any sane buffer), but the common case — a
    batch of scalar or small-payload argument tuples — should cross in
    a single chunk, i.e. one copy + one semaphore hand-off.
    """
    per_tuple = _PARAM_SIZE_DEFAULT  # pickle framing per tuple
    for param in definition.signature.param_types:
        per_tuple += _PARAM_SIZE_ESTIMATE.get(param, _PARAM_SIZE_DEFAULT)
    need = per_tuple * max(1, batch_hint) + 4096
    # Cap hint-driven growth: the buffer never shrinks once allocated,
    # so a huge batch hint would otherwise retain MAX_BUFFER per worker
    # for the whole query.  Chunking absorbs the overflow.
    return max(DEFAULT_BUFFER, min(need, RETAINED_BUFFER_CAP))


def _dumps(value: object) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(data: bytes) -> object:
    return pickle.loads(data)


class _ShmChannel:
    """Half-duplex chunked messaging over one shared-memory buffer.

    Four semaphores: data-ready and chunk-ack in each direction.  The
    protocol strictly alternates (request, then response), mirroring the
    paper's hand-off description.
    """

    def __init__(self, buffer, s2w_ready, s2w_ack, w2s_ready, w2s_ack):
        self.buffer = buffer
        self.s2w_ready = s2w_ready
        self.s2w_ack = s2w_ack
        self.w2s_ready = w2s_ready
        self.w2s_ack = w2s_ack
        self.max_chunk = len(buffer) - _HEADER.size
        # Local (per-process) traffic counters; each side counts what it
        # sent/received, so the server's view is the IPC tax it paid.
        self.messages_sent = 0
        self.messages_received = 0
        self.chunks_sent = 0
        self.chunks_received = 0

    # -- direction-agnostic primitives ---------------------------------------

    def _send(self, ready, ack, msg_type: int, payload: bytes,
              death_check=None) -> None:
        total = len(payload)
        offset = 0
        first = True
        while first or offset < total:
            if not first:
                # Receiver consumed the previous chunk.  Watch for peer
                # death here too: a multi-chunk send to a dead worker
                # must raise, not block on an ack that will never come.
                self._acquire(ack, death_check)
            chunk = payload[offset:offset + self.max_chunk]
            _HEADER.pack_into(self.buffer, 0, msg_type, total, len(chunk))
            self.buffer[_HEADER.size:_HEADER.size + len(chunk)] = chunk
            ready.release()
            offset += len(chunk)
            first = False
            self.chunks_sent += 1
        self.messages_sent += 1

    def _recv(self, ready, ack, death_check=None) -> Tuple[int, bytes]:
        self._acquire(ready, death_check)
        msg_type, total, chunk_len = _HEADER.unpack_from(self.buffer, 0)
        data = bytearray(
            self.buffer[_HEADER.size:_HEADER.size + chunk_len]
        )
        self.chunks_received += 1
        while len(data) < total:
            ack.release()
            self._acquire(ready, death_check)
            __, __, chunk_len = _HEADER.unpack_from(self.buffer, 0)
            data += self.buffer[_HEADER.size:_HEADER.size + chunk_len]
            self.chunks_received += 1
        self.messages_received += 1
        return msg_type, bytes(data)

    def stats(self) -> dict:
        return {
            "buffer_size": len(self.buffer),
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "chunks_sent": self.chunks_sent,
            "chunks_received": self.chunks_received,
        }

    @staticmethod
    def _acquire(semaphore, death_check) -> None:
        """Block on ``semaphore``; poll ``death_check`` while waiting.

        ``death_check`` (when given) returns ``None`` while the peer is
        alive, else a human-readable status — the dead worker's exit
        code or terminating signal — which the raised
        :class:`UDFCrashed` surfaces instead of a generic liveness
        failure.
        """
        if death_check is None:
            semaphore.acquire()
            return
        while not semaphore.acquire(timeout=_POLL_INTERVAL):
            status = death_check()
            if status is not None:
                raise UDFCrashed(
                    f"remote UDF executor process died ({status}); "
                    f"the server survives"
                )

    # -- server side --------------------------------------------------------------

    def server_send(self, msg_type: int, payload: bytes,
                    death_check=None) -> None:
        self._send(self.s2w_ready, self.s2w_ack, msg_type, payload,
                   death_check)

    def server_recv(self, death_check) -> Tuple[int, bytes]:
        return self._recv(self.w2s_ready, self.w2s_ack, death_check)

    # -- worker side ----------------------------------------------------------------

    def worker_send(self, msg_type: int, payload: bytes) -> None:
        self._send(self.w2s_ready, self.w2s_ack, msg_type, payload)

    def worker_recv(self) -> Tuple[int, bytes]:
        return self._recv(self.s2w_ready, self.s2w_ack)


class _ForkedProcess:
    """The parent's handle on one bare-forked worker.

    The slice of ``multiprocessing.Process`` that :class:`_Worker` and
    its callers use: ``pid``, ``sentinel`` (the read end of a pipe whose
    only writer is the child, so it reads EOF once the child is gone),
    ``exitcode`` (negative for a signal), ``is_alive``, ``join``,
    ``terminate`` and ``kill``.  Reaping closes the sentinel, so a
    reaped worker holds no fd and leaves no zombie.  A worker still
    running at interpreter exit is killed, as ``multiprocessing`` does
    for daemonic children.
    """

    live: "set[_ForkedProcess]" = set()

    def __init__(self, args: tuple):
        sentinel, child_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(sentinel)
            os.close(child_end)
            raise
        if pid == 0:
            _forked_child(child_end, args)  # never returns
        os.close(child_end)
        self.pid = pid
        self.sentinel = sentinel
        self.exitcode: Optional[int] = None
        self._reaped = False
        self._lock = threading.Lock()
        _ForkedProcess.live.add(self)

    def _reap(self, flags: int = os.WNOHANG) -> bool:
        """``waitpid`` with ``flags``; ``True`` once the child is reaped."""
        with self._lock:  # the sentinel must be closed exactly once
            if self._reaped:
                return True
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:  # reaped elsewhere: status unknown
                pid, status = self.pid, None
            if pid == 0:
                return False
            if status is not None:
                self.exitcode = os.waitstatus_to_exitcode(status)
            self._reaped = True
            os.close(self.sentinel)
            _ForkedProcess.live.discard(self)
            return True

    def is_alive(self) -> bool:
        return not self._reap()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait up to ``timeout`` seconds for the child to exit, reap it."""
        if self._reaped:
            return
        poller = select.poll()
        poller.register(self.sentinel, select.POLLIN)
        ready = poller.poll(None if timeout is None else timeout * 1000)
        # EOF on the sentinel: the child closed its fds on its way out
        # and is a moment from being a zombie, so a blocking wait is
        # short (polling here would sleep past it).
        self._reap(0 if ready else os.WNOHANG)

    def _signal(self, signum: int) -> None:
        if not self._reaped:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


@atexit.register
def _kill_live_workers() -> None:
    for process in list(_ForkedProcess.live):
        process.kill()
        process.join(timeout=1.0)


def _forked_child(sentinel: int, args: tuple) -> None:
    """The worker side of :class:`_ForkedProcess`; never returns.

    Before any UDF code runs, stdin becomes ``/dev/null`` and every fd
    the server had open (data file, WAL, sockets, the shm arena's file)
    is closed; only stdin, stdout, stderr and the death sentinel stay.
    """
    code = 1
    try:
        null = os.open(os.devnull, os.O_RDONLY)
        if null != 0:
            os.dup2(null, 0)
            os.close(null)
        os.closerange(3, sentinel)
        os.closerange(sentinel + 1, os.sysconf("SC_OPEN_MAX"))
        _worker_main(*args)
        code = 0
    except BaseException:
        # Every exception, SystemExit included, ends here: unwinding any
        # further would run the server's own code in the child.  Straight
        # to fd 2, since ``sys.stderr`` may wrap an fd just closed; if
        # that write fails too, ``finally`` still exits.
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


class _Worker:
    """One executor process plus its private shm buffer and channel."""

    def __init__(self, mp_ctx, definition: UDFDefinition,
                 buffer_size: int, worker_payload: tuple, index: int):
        self.index = index
        self.array = mp_ctx.Array("B", buffer_size, lock=False)
        self.channel = _ShmChannel(
            memoryview(self.array).cast("B"),
            mp_ctx.Semaphore(0), mp_ctx.Semaphore(0),
            mp_ctx.Semaphore(0), mp_ctx.Semaphore(0),
        )
        args = (
            self.array,
            self.channel.s2w_ready, self.channel.s2w_ack,
            self.channel.w2s_ready, self.channel.w2s_ack,
            worker_payload,
        )
        if mp_ctx.get_start_method() == "fork":
            self.process = _ForkedProcess(args)
        else:
            self.process = mp_ctx.Process(
                target=_worker_main, args=args, daemon=True,
                name=f"udf-executor-{definition.name}-{index}",
            )
            self.process.start()

    def death(self) -> Optional[str]:
        """``None`` while alive, else how the process ended."""
        process = self.process
        if process is None:
            return "already closed"
        if process.is_alive():
            return None
        code = process.exitcode
        if code is None:
            return "unknown exit status"
        if code < 0:
            try:
                return f"killed by {signal.Signals(-code).name}"
            except ValueError:
                return f"killed by signal {-code}"
        return f"exit code {code}"

    def send(self, msg_type: int, payload: bytes) -> None:
        try:
            self.channel.server_send(msg_type, payload, self.death)
        except UDFCrashed as exc:
            if exc.worker_index is None:
                exc.worker_index = self.index
            raise

    def recv(self) -> Tuple[int, bytes]:
        try:
            return self.channel.server_recv(self.death)
        except UDFCrashed as exc:
            if exc.worker_index is None:
                exc.worker_index = self.index
            raise

    def close(self) -> None:
        process = self.process
        if process is None:
            return
        self.process = None
        try:
            if process.is_alive():
                self.channel.server_send(MSG_SHUTDOWN, b"")
                process.join(timeout=1.0)
        except Exception:
            pass
        for stop in (process.terminate, process.kill):
            if not process.is_alive():
                return
            stop()
            process.join(timeout=1.0)


class WorkerPool:
    """N worker processes for one UDF, each with its own channel.

    All processes are forked first so their startups overlap; only then
    does the server collect each worker's READY.  Idle workers sit
    in a LIFO queue — the most recently used worker is the cache-warm
    one — and ``checkout``/``checkin`` make the pool safe to drive from
    several Exchange threads at once.
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
        mp_ctx = multiprocessing.get_context(_start_method())
        self._workers: List[_Worker] = []
        self._idle: "queue.LifoQueue[_Worker]" = queue.LifoQueue()
        try:
            for index in range(self.size):
                self._workers.append(
                    _Worker(mp_ctx, definition, buffer_size, worker_payload,
                            index)
                )
            for worker in self._workers:
                msg_type, payload = worker.recv()
                if msg_type == MSG_ERROR:
                    raise _reraise(payload, definition.name)
                if msg_type != MSG_READY:
                    raise UDFInvocationError(
                        f"remote executor for {definition.name!r} failed "
                        f"to start"
                    )
        except Exception:
            self.close()
            raise
        for worker in self._workers:
            self._idle.put(worker)

    @property
    def closed(self) -> bool:
        return not self._workers

    @property
    def workers(self) -> List[_Worker]:
        return list(self._workers)

    def checkout(self) -> _Worker:
        """Block until a worker is idle and take it."""
        return self._idle.get()

    def checkout_nowait(self) -> Optional[_Worker]:
        """Take an idle worker if one is free right now, else ``None``.

        Extra shard workers are acquired non-blockingly on purpose: two
        concurrent ``invoke_batch`` calls each blocking for *several*
        workers could deadlock holding partial sets.  Each call blocks
        for exactly one worker and only opportunistically adds more.
        """
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            return None

    def checkin(self, worker: _Worker) -> None:
        self._idle.put(worker)

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

        Swapping out the worker list and idle queue before joining means
        no checkout can hand back a dying worker, and the shm arrays and
        semaphores lose their last server-side references once the
        workers are gone — nothing leaks across queries.
        """
        workers, self._workers = self._workers, []
        self._idle = queue.LifoQueue()
        for worker in workers:
            worker.close()


def _stamp_shard(exc: BaseException, start: int, stop: int) -> None:
    """Attach the in-flight row range to a worker-crash exception."""
    if isinstance(exc, UDFCrashed) and exc.shard is None:
        exc.shard = (start, stop)


def _split_shards(tuples: tuple, count: int) -> List[tuple]:
    """Contiguous near-even shards; concatenation restores input order."""
    base, extra = divmod(len(tuples), count)
    shards = []
    offset = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(tuples[offset:offset + size])
        offset += size
    return shards


class RemoteExecutor(UDFExecutor):
    """Per-query remote executor pool (Design 2 / Design 4)."""

    def __init__(
        self,
        definition: UDFDefinition,
        env: ServerEnvironment,
        buffer_size: Optional[int] = None,
        parallelism: Optional[int] = None,
    ):
        super().__init__(definition, env)
        if parallelism is None:
            parallelism = getattr(env, "parallelism", 1) or 1
        if definition.callbacks:
            # Callbacks are interactive round trips through the query's
            # single broker binding; a UDF that declared any keeps one
            # worker so callback traffic stays strictly ordered.
            parallelism = 1
        parallelism = max(1, int(parallelism))
        if buffer_size is None:
            # Pre-size from the expected batch payload so a whole batch
            # usually crosses in one chunk instead of chunking at a
            # fixed maximum regardless of workload.
            buffer_size = _estimate_buffer_size(
                definition, getattr(env, "batch_size", 1)
            )
        if definition.design.is_sandboxed:
            # The program the registration compiled, verified, analysed,
            # JIT-compiled and built its tier-1 kernel for; a forked
            # worker inherits it as is.
            self._loaded = loaded_program(definition, env)
            worker_payload = (
                "jaguar",
                self._loaded,
                definition.entry,
                definition.design is not Design.SANDBOX_INTERP,
                # Copy elision, the arena and the kernel follow the
                # server-side gate (definition.flows), so stripping the
                # certificate restores the defensive tier-0 baseline end
                # to end.
                definition.flows is not None,
            )
        else:
            # Validate importability in the server before shipping the
            # module path to the worker.
            resolve_native_payload(definition.payload)
            worker_payload = ("native", bytes(definition.payload))
        self._reservation = None
        self._pool = WorkerPool(
            definition, env, parallelism, buffer_size, worker_payload
        )

    @property
    def pool_size(self) -> int:
        return self._pool.size

    def channel_stats(self) -> dict:
        """Server-side IPC traffic counters (for benchmarks/audits).

        Flat keys aggregate every worker channel; ``per_worker`` breaks
        the same counters out per process.  When a profile is attached,
        the pool's queue-wait and shm round-trip latency summaries ride
        along under ``queue_wait_ns``/``round_trip_ns``.
        """
        stats = self._pool.stats()
        prof = self.profile
        if prof is not None:
            stats["queue_wait_ns"] = prof.queue_wait_ns.summary()
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

    def _collect(self, worker: _Worker) -> list:
        """Drive one worker's channel until its results (or error) land.

        Callback requests are serviced inline — each one is a shared
        memory round trip through the query's broker binding, the per
        callback cost Figure 8 measures.
        """
        while True:
            msg_type, payload = worker.recv()
            if msg_type == MSG_RESULT_BATCH:
                return list(_loads(payload))
            if msg_type == MSG_CALLBACK:
                name, cb_args = _loads(payload)
                try:
                    reply = self.binding.invoke(name, *cb_args)
                    worker.send(MSG_CB_REPLY, _dumps(reply))
                except Exception as exc:  # callback failed: tell the UDF
                    worker.send(MSG_ERROR, _dumps(_shippable(exc)))
            elif msg_type == MSG_ERROR:
                raise _reraise(payload, self.definition.name)
            else:
                raise UDFInvocationError(
                    f"unexpected message type {msg_type} from executor"
                )

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """Shard one batch across idle workers, pipelined, order kept.

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
        tuples = tuple(tuple(args) for args in args_list)
        want = min(pool.size, max(1, len(tuples) // _MIN_SHARD_ROWS))
        started = perf_counter_ns() if prof is not None else 0
        workers = [pool.checkout()]
        while len(workers) < want:
            extra = pool.checkout_nowait()
            if extra is None:
                break
            workers.append(extra)
        shards = _split_shards(tuples, len(workers))
        # Cumulative row offsets: shard ``i`` covers the half-open input
        # range ``[offsets[i], offsets[i + 1])`` — the crash report's
        # shard slice.
        offsets = [0]
        for shard in shards:
            offsets.append(offsets[-1] + len(shard))
        if prof is not None:
            prof.queue_wait_ns.observe(perf_counter_ns() - started)
        results: list = []
        errors: List[Tuple[int, Exception]] = []
        sent: List[_Worker] = []
        sent_at: List[int] = []
        try:
            for index, (shard_worker, shard) in enumerate(
                zip(workers, shards)
            ):
                try:
                    if prof is not None:
                        sent_at.append(perf_counter_ns())
                    shard_worker.send(MSG_INVOKE_BATCH, _dumps(shard))
                except Exception as exc:
                    _stamp_shard(exc, offsets[index], offsets[index + 1])
                    errors.append((index, exc))
                    break  # later shards were never dispatched
                sent.append(shard_worker)
            # Drain every worker that got a request — even after an
            # earlier shard failed — so each channel is back at its
            # request/response boundary before re-entering the pool.
            for index, shard_worker in enumerate(sent):
                try:
                    part = self._collect(shard_worker)
                except Exception as exc:
                    _stamp_shard(exc, offsets[index], offsets[index + 1])
                    errors.append((index, exc))
                    continue
                if prof is not None:
                    prof.round_trip_ns.observe(
                        perf_counter_ns() - sent_at[index]
                    )
                if not errors:
                    results.extend(part)
        finally:
            for shard_worker in workers:
                pool.checkin(shard_worker)
        if errors:
            # Shards are contiguous, so the lowest shard's failure is
            # the earliest input row's failure — what serial raises.
            first = min(errors, key=lambda pair: pair[0])[1]
            if prof is not None:
                prof.record_error(first)
            raise first
        if prof is not None:
            prof.record_invocations(len(tuples), perf_counter_ns() - started)
        return results

    # -- teardown ----------------------------------------------------------------

    def end_query(self) -> None:
        super().end_query()
        self.close()

    def close(self) -> None:
        self._release_reservation()
        if not self._pool.closed:
            self._pool.close()
        self.binding = None


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _shippable(exc: Exception) -> Exception:
    """Ensure an exception survives pickling across the boundary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return UDFInvocationError(f"{type(exc).__name__}: {exc}")


def _reraise(payload: bytes, udf_name: str) -> Exception:
    try:
        exc = _loads(payload)
    except Exception:
        return UDFInvocationError(
            f"UDF {udf_name!r} failed remotely (unreadable error)"
        )
    if isinstance(exc, Exception):
        return exc
    return UDFInvocationError(f"UDF {udf_name!r} failed remotely: {exc}")


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

    def invoke(self, name: str, args: tuple) -> object:
        self.channel.worker_send(MSG_CALLBACK, _dumps((name, args)))
        msg_type, payload = self.channel.worker_recv()
        if msg_type == MSG_CB_REPLY:
            return _loads(payload)
        if msg_type == MSG_ERROR:
            raise _reraise(payload, "<callback>")
        raise CallbackError(f"unexpected reply type {msg_type} to callback")


class _WorkerNativeContext:
    """The ``ctx`` argument given to native UDFs running remotely."""

    __slots__ = ("_port",)

    def __init__(self, port: _RemoteCallbackPort):
        self._port = port

    def callback(self, name: str, *args):
        return self._port.invoke(name, args)


def _worker_main(array, s2w_ready, s2w_ack, w2s_ready, w2s_ack,
                 worker_payload: tuple) -> None:
    channel = _ShmChannel(
        memoryview(array).cast("B"), s2w_ready, s2w_ack, w2s_ready, w2s_ack
    )
    port = _RemoteCallbackPort(channel)
    try:
        invoke_batch = _build_worker_invoker(worker_payload, port)
    except Exception as exc:
        channel.worker_send(MSG_ERROR, _dumps(_shippable(exc)))
        return
    channel.worker_send(MSG_READY, b"")
    while True:
        msg_type, payload = channel.worker_recv()
        if msg_type == MSG_SHUTDOWN:
            return
        # One request type: one unmarshal, N invocations, one reply.  A
        # failure anywhere aborts the batch with that row's exception.
        try:
            if msg_type != MSG_INVOKE_BATCH:
                raise UDFInvocationError(f"unexpected message {msg_type}")
            results = invoke_batch(_loads(payload))
        except Exception as exc:
            channel.worker_send(MSG_ERROR, _dumps(_shippable(exc)))
            continue
        channel.worker_send(MSG_RESULT_BATCH, _dumps(results))


def _build_worker_invoker(worker_payload: tuple, port: _RemoteCallbackPort):
    """Build this worker's batch callable: a list of argument tuples in,
    their results out, in order."""
    kind = worker_payload[0]
    if kind == "native":
        func = resolve_native_payload(worker_payload[1])
        code = getattr(func, "__code__", None)
        takes_ctx = bool(
            code is not None
            and code.co_argcount > 0
            and code.co_varnames[0] == "ctx"
        )
        if takes_ctx:
            ctx = _WorkerNativeContext(port)
            return lambda rows: [func(ctx, *args) for args in rows]
        return lambda rows: [func(*args) for args in rows]

    if kind == "jaguar":
        __, loaded, entry, use_jit, use_flows = worker_payload
        # ``loaded`` is the server's prepared program: inherited across
        # ``os.fork``, reloaded from its pickled form under ``spawn``.  The
        # worker only binds it to this process's callback port; quotas
        # are the program's policy, the same one Design 3 enforces.
        context = loaded.make_context(callbacks={
            name: _make_remote_handler(port, name)
            for name in loaded.security.permissions.callbacks
        })
        # When the flow certificate proves parameters read-only,
        # ``make_invoker`` skips the defensive copy of byte arrays
        # arriving from shared memory — they were already copied out of
        # the ring buffer by unpickling, so the sandbox can use that
        # buffer directly.
        invoke_one = loaded.make_invoker(
            entry, context, use_jit=use_jit, elide_copies=use_flows
        )

        def invoke_batch(rows):
            # The in-process executor's batch routine: the kernel the
            # inherited (or reloaded) program built at load, else the
            # certified reset-elision loop.
            return run_batch(loaded, entry, context, invoke_one, rows,
                             use_flows)

        return invoke_batch

    raise UDFInvocationError(f"unknown worker payload kind {kind!r}")


def _make_remote_handler(port: _RemoteCallbackPort, name: str):
    def handler(*args):
        return port.invoke(name, args)

    return handler
