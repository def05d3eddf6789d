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
protocol: one worker, one round trip per batch.

Design 4 (the paper extrapolates it; we build it) runs the sandboxed
program *inside* the worker, so the UDF gets both process isolation and
the sandbox's verification/quotas.  The program is loaded once, at
CREATE FUNCTION, and each query's worker is handed that
:class:`~repro.vm.machine.LoadedUDF` as a ``Process`` argument (plain
inheritance under ``fork``, its pickled form under ``spawn``): per query
Design 4 pays Design 2's process start plus Design 3's invocations, and
its callbacks pay the process-boundary price — the paper's
Design 4 ≈ Design 2 + Design 3, measurable.
UDFs that declared callbacks keep a pool of one: callback dispatch is
interactive and funnels through the query's single broker binding.

Marshalling uses :mod:`pickle` restricted to primitive SQL values (see
``_dumps``/``_loads``) — the analog of PREDATOR copying raw argument
bytes into the segment.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import signal
import struct
from time import perf_counter_ns
from typing import List, Optional, Sequence, Tuple

from ..errors import CallbackError, UDFCrashed, UDFInvocationError, VMError
from .designs import Design
from .factory import UDFExecutor
from .sandbox import admission_claim, loaded_program
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
_STARTUP_TIMEOUT = 30.0
#: Minimum rows per shard before ``invoke_batch`` fans out to another
#: worker: splitting a tiny batch buys nothing and pays extra hand-offs.
_MIN_SHARD_ROWS = 8

MSG_READY = 1
MSG_INVOKE = 2
MSG_RESULT = 3
MSG_CALLBACK = 4
MSG_CB_REPLY = 5
MSG_ERROR = 6
MSG_SHUTDOWN = 7
MSG_INVOKE_BATCH = 8
MSG_RESULT_BATCH = 9
#: Batch result carrying a worker tier snapshot: payload is
#: ``(results, tier_info)``.  Workers only emit it when the query runs
#: with tiering enabled, so the seed protocol is byte-identical
#: otherwise.
MSG_RESULT_BATCH2 = 10

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
        self.process = mp_ctx.Process(
            target=_worker_main,
            args=(
                self.array,
                self.channel.s2w_ready, self.channel.s2w_ack,
                self.channel.w2s_ready, self.channel.w2s_ack,
                worker_payload,
            ),
            daemon=True,
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
        if process.is_alive():
            process.terminate()
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


class _RemoteTierMirror:
    """Aggregated worker tier snapshots, shaped like a ``TierState``.

    The profile's ``tier_summary`` reads ``tier``/``promotions``/
    ``deopts``/``tier1_batches`` off whatever the executor bound; for
    isolated designs that is this rollup of the per-worker reports.
    """

    __slots__ = ("tier", "calls", "promotions", "deopts", "tier1_batches",
                 "refusal", "demoted")

    def __init__(self, reports):
        reports = list(reports)
        self.tier = max((r.get("tier", 0) for r in reports), default=0)
        self.calls = sum(r.get("calls", 0) for r in reports)
        self.promotions = sum(r.get("promotions", 0) for r in reports)
        self.deopts = sum(r.get("deopts", 0) for r in reports)
        self.tier1_batches = sum(
            r.get("tier1_batches", 0) for r in reports
        )
        self.refusal = next(
            (r["refusal"] for r in reports if r.get("refusal")), None
        )
        self.demoted = any(r.get("demoted") for r in reports)


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
            # The program the registration compiled, verified, analysed
            # and JIT-compiled; a forked worker inherits it as is.
            self._loaded = loaded_program(definition, env)
            worker_payload = (
                "jaguar",
                self._loaded,
                definition.entry,
                definition.design is not Design.SANDBOX_INTERP,
                # Copy elision for flow-certified read-only parameters
                # follows the server-side gate (definition.flows), so
                # stripping the certificate restores the defensive-copy
                # baseline end to end.
                definition.flows is not None,
                # Tiering rides the same gate: each worker promotes
                # independently (its own call counts and kernel) and
                # reports its tier state back with batch results.
                bool(getattr(env, "tiering", False)),
                int(getattr(env, "tier1_threshold", 128)),
            )
        else:
            # Validate importability in the server before shipping the
            # module path to the worker.
            resolve_native_payload(definition.payload)
            worker_payload = ("native", bytes(definition.payload))
        self._reservation = None
        #: Latest tier snapshot per worker index (tiering only).  Each
        #: worker is drained by the thread that dispatched to it, so
        #: per-index access never races.
        self._tier_reports: dict = {}
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
        if self._tier_reports:
            reports = dict(sorted(self._tier_reports.items()))
            stats["tier"] = {
                # Workers promote independently; the rollup reports the
                # best tier reached and the summed event counters.
                "tier": max(r.get("tier", 0) for r in reports.values()),
                "promotions": sum(
                    r.get("promotions", 0) for r in reports.values()
                ),
                "deopts": sum(r.get("deopts", 0) for r in reports.values()),
                "tier1_batches": sum(
                    r.get("tier1_batches", 0) for r in reports.values()
                ),
                "per_worker": reports,
            }
        return stats

    def _note_tier_info(self, index: int, info: Optional[dict]) -> None:
        """Fold one worker's tier snapshot into server-side accounting.

        Snapshots carry worker-lifetime totals; the profile counters get
        the *delta* against that worker's previous report, so server
        counts match worker events exactly however batches interleave.
        """
        if not info:
            return
        previous = self._tier_reports.get(index) or {}
        self._tier_reports[index] = info
        prof = self.profile
        if prof is None:
            return
        for key, counter in (
            ("promotions", prof.promotions),
            ("deopts", prof.deopts),
            ("tier1_batches", prof.tier1_batches),
        ):
            delta = info.get(key, 0) - previous.get(key, 0)
            if delta > 0:
                counter.inc(delta)
        prof.bind_tier(_RemoteTierMirror(self._tier_reports.values()))

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

    def _collect(self, worker: _Worker, expected: int):
        """Drive one worker's channel until its result (or error) lands.

        Callback requests are serviced inline — each one is a shared
        memory round trip through the query's broker binding, the per
        callback cost Figure 8 measures.
        """
        while True:
            msg_type, payload = worker.recv()
            if msg_type == expected:
                result = _loads(payload)
                return (
                    list(result) if expected == MSG_RESULT_BATCH else result
                )
            if (msg_type == MSG_RESULT_BATCH2
                    and expected == MSG_RESULT_BATCH):
                # Tiering-enabled worker: results plus its tier snapshot.
                results, tier_info = _loads(payload)
                self._note_tier_info(worker.index, tier_info)
                return list(results)
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

    def invoke(self, args: Sequence[object]) -> object:
        if self._pool.closed:
            raise UDFInvocationError("remote executor is closed")
        if self.binding is None:
            self.begin_query()
        prof = self.profile
        if prof is None:
            worker = self._pool.checkout()
            try:
                worker.send(MSG_INVOKE, _dumps(tuple(args)))
                return self._collect(worker, MSG_RESULT)
            finally:
                self._pool.checkin(worker)
        started = perf_counter_ns()
        worker = self._pool.checkout()
        dispatched = perf_counter_ns()
        prof.queue_wait_ns.observe(dispatched - started)
        try:
            worker.send(MSG_INVOKE, _dumps(tuple(args)))
            result = self._collect(worker, MSG_RESULT)
        except BaseException as exc:
            prof.record_error(exc)
            raise
        finally:
            self._pool.checkin(worker)
        ended = perf_counter_ns()
        prof.round_trip_ns.observe(ended - dispatched)
        prof.record_invocations(1, ended - started)
        return result

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """Shard one batch across idle workers, pipelined, order kept.

        With one worker (or a batch too small to shard) this is the
        serial protocol: N argument tuples cross together and N results
        come back together — two hand-offs per *batch* instead of per
        tuple.  With more workers the batch splits into contiguous
        shards; every shard is sent before any result is awaited, so all
        workers compute while the server marshals, and results are
        collected in shard order — concatenation restores input order
        regardless of which worker finished first.

        The first failing invocation aborts the batch with its original
        exception, exactly as the per-tuple loop would have raised it:
        shards are contiguous, so the lowest-shard error is the earliest
        input row's error.  Remaining workers are still drained so their
        channels stay request/response aligned for the next batch.
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
        worker = pool.checkout()
        if want == 1:
            dispatched = perf_counter_ns() if prof is not None else 0
            if prof is not None:
                prof.queue_wait_ns.observe(dispatched - started)
            try:
                worker.send(MSG_INVOKE_BATCH, _dumps(tuples))
                results = self._collect(worker, MSG_RESULT_BATCH)
            except BaseException as exc:
                _stamp_shard(exc, 0, len(tuples))
                if prof is not None:
                    prof.record_error(exc)
                raise
            finally:
                pool.checkin(worker)
            if prof is not None:
                ended = perf_counter_ns()
                prof.round_trip_ns.observe(ended - dispatched)
                prof.record_invocations(len(tuples), ended - started)
            return results
        workers = [worker]
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
                    part = self._collect(shard_worker, MSG_RESULT_BATCH)
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
        invoke, invoke_batch = _build_worker_invoker(worker_payload, port)
    except Exception as exc:
        channel.worker_send(MSG_ERROR, _dumps(_shippable(exc)))
        return
    channel.worker_send(MSG_READY, b"")
    while True:
        msg_type, payload = channel.worker_recv()
        if msg_type == MSG_SHUTDOWN:
            return
        if msg_type == MSG_INVOKE_BATCH:
            # Batched request: one unmarshal, N invocations, one reply.
            # A failure anywhere aborts the batch with that exception —
            # the same exception the per-tuple loop would have raised
            # first, so error semantics do not drift.  A tiering-enabled
            # worker runs its tiered batch path instead and replies with
            # results plus its tier snapshot.
            try:
                if invoke_batch is not None:
                    results, tier_info = invoke_batch(_loads(payload))
                else:
                    results = [invoke(args) for args in _loads(payload)]
                    tier_info = None
            except Exception as exc:
                channel.worker_send(MSG_ERROR, _dumps(_shippable(exc)))
                continue
            if tier_info is not None:
                channel.worker_send(
                    MSG_RESULT_BATCH2, _dumps((results, tier_info))
                )
            else:
                channel.worker_send(MSG_RESULT_BATCH, _dumps(results))
            continue
        if msg_type != MSG_INVOKE:
            channel.worker_send(
                MSG_ERROR,
                _dumps(UDFInvocationError(f"unexpected message {msg_type}")),
            )
            continue
        try:
            args = _loads(payload)
            result = invoke(args)
        except Exception as exc:
            channel.worker_send(MSG_ERROR, _dumps(_shippable(exc)))
            continue
        channel.worker_send(MSG_RESULT, _dumps(result))


def _build_worker_invoker(worker_payload: tuple, port: _RemoteCallbackPort):
    """Build ``(invoke, invoke_batch)`` for this worker's payload.

    ``invoke`` runs one invocation.  ``invoke_batch`` is ``None`` unless
    the payload enables tiering, in which case it runs a whole batch
    through the worker's own tier state machine and returns
    ``(results, tier_snapshot)``.
    """
    kind = worker_payload[0]
    if kind == "native":
        func = resolve_native_payload(worker_payload[1])
        code = getattr(func, "__code__", None)
        takes_ctx = bool(
            code is not None
            and code.co_argcount > 0
            and code.co_varnames[0] == "ctx"
        )
        ctx = _WorkerNativeContext(port)
        if takes_ctx:
            return (lambda args: func(ctx, *args)), None
        return (lambda args: func(*args)), None

    if kind == "jaguar":
        (__, loaded, entry, use_jit, elide_copies, tiering,
         tier1_threshold) = worker_payload
        # ``loaded`` is the server's prepared program: inherited under
        # ``fork``, reloaded from its pickled form under ``spawn``.  The
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
            entry, context, use_jit=use_jit, elide_copies=elide_copies
        )
        account = context.account

        def invoke(args):
            account.reset()
            return invoke_one(args)

        if not tiering:
            return invoke, None

        # Worker-side tiering: this process owns its own promotion state
        # machine — call counts, kernel, deopt tally — and snapshots it
        # into every batch reply so the server can aggregate.  The deopt
        # tail uses the raw invoker (``run_tiered_batch`` resets the
        # account per re-executed row itself).
        from ..vm.tier import TierState, maybe_promote, run_tiered_batch

        state = TierState(tier1_threshold)

        def invoke_batch(rows):
            rows = list(rows)
            state.calls += len(rows)
            if maybe_promote(
                state, loaded, entry, context, use_flows=elide_copies
            ):
                results, __ = run_tiered_batch(
                    state, context, rows, invoke_one
                )
            else:
                results = [invoke(args) for args in rows]
            return results, state.snapshot()

        return invoke, invoke_batch

    raise UDFInvocationError(f"unknown worker payload kind {kind!r}")


def _make_remote_handler(port: _RemoteCallbackPort, name: str):
    def handler(*args):
        return port.invoke(name, args)

    return handler
