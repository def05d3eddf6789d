"""Write-ahead log: physical redo, statement commits, group commit.

The durability contract the paper's security story needs but the seed
engine lacked: a misbehaving UDF (or a plain ``kill -9``) may take the
process down mid-statement, and *committed* statements must survive
while the half-applied one vanishes.  The mechanism is a classic
redo-only WAL specialized to this engine's statement-granular writes:

* **Records** are length-prefixed and CRC-checked::

      [length u32][crc32 u32][type u8][payload ...]

  ``length`` counts type+payload; ``crc32`` covers the same bytes, so a
  torn append (partial OS write, partial simulated write) is detected
  and the tail discarded.  Three record types:

  - ``PAGE`` — full physical image of one data page (``page_id u32`` +
    ``page_size`` bytes).  Full images keep redo idempotent and byte-
    deterministic: replaying a committed prefix reproduces the exact
    page bytes the crashed run had.
  - ``CATALOG`` — the complete catalog JSON blob, logged whenever a
    statement changed schema or UDF registrations (DDL, CREATE
    FUNCTION, index root splits).
  - ``COMMIT`` — the statement's commit marker: a monotonically
    increasing statement sequence number plus the disk header state
    (``npages``, ``free_head``) as of commit.

* **Protocol.**  Every database, with a log or without, runs the same
  write protocol: a mutating statement's dirty pages and frees are
  attributed to its tracker, its frees reach the free list only when it
  publishes, and the disk header is written only at checkpoints (see
  :class:`~repro.storage.buffer.BufferPool` and
  :mod:`~repro.storage.disk`).  The log adds durability on top: a
  statement executes against the buffer pool only (no data-file writes
  — the pool refuses to flush a page whose latest image is not yet
  durable in the log), and at statement end the writer appends one PAGE
  record per dirtied page, a CATALOG record if the schema moved, then
  the COMMIT marker, and finally waits for an ``fsync`` covering its
  commit LSN before acknowledging the client.  LSNs are logical stream
  offsets into the log.

* **Group commit.**  The fsync wait is a leader/follower gate: the
  first committer becomes the leader, optionally sleeps
  ``group_window`` seconds so writers arriving in the window get their
  records into the same ``fsync``, then syncs once and wakes every
  waiter whose LSN the sync covered.  With per-table write locks above
  (disjoint-table writers no longer serialize), one fsync regularly
  retires several statements; ``stats()`` records the batch sizes.

* **Recovery** (:meth:`WriteAheadLog.recover`) scans the log from the
  start, discards the torn tail at the first short or CRC-failing
  record, and redoes every *complete* committed batch in order: page
  images are written back, the header is restored from the last commit
  marker, the data file is truncated to exactly the committed page
  count, and the last committed catalog blob (if any) is reinstated.
  Records after the last COMMIT belong to the in-flight statement and
  are ignored — no committed statement lost, no uncommitted one
  visible.  Recovery ends with a checkpoint (flush + truncate), so it
  is idempotent and the log never grows across restarts.

* **Checkpoints** (clean shutdown, ``Database.flush()``): everything
  the log describes is flushed to the data file and the log truncated
  to empty.

Fault injection: every file write and fsync in this module (and the
data-file writes in :mod:`~repro.storage.disk`) funnels through a
:class:`FaultPoint`, whose default implementation is a no-op.  The test
harness (``tests/storage/faults.py``) substitutes deterministic
implementations that kill the process mid-write, tear an append short,
or fail an fsync — after which the log (like a dead process) refuses
all further work.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

from ..errors import SimulatedCrash, WALError

#: Record types.
REC_PAGE = 1
REC_CATALOG = 2
REC_COMMIT = 3

_RECORD_HEADER = struct.Struct("<IIB")  # length (type+payload), crc, type
_PAGE_PREFIX = struct.Struct("<I")      # page_id
_COMMIT_BODY = struct.Struct("<QII")    # statement seq, npages, free_head


class FaultPoint:
    """Deterministic fault-injection hook for storage write paths.

    The storage layer calls :meth:`write` before every file write and
    :meth:`fsync` before every ``os.fsync``.  The default instance
    (``NO_FAULTS``) permits everything; the test harness substitutes
    subclasses that raise :class:`~repro.errors.SimulatedCrash` at a
    chosen operation (kill), return a short byte count (torn write), or
    return ``False`` from :meth:`fsync` (failed fsync — the engine must
    refuse to acknowledge the commit).
    """

    def write(self, site: str, size: int) -> int:
        """About to write ``size`` bytes at ``site``; return how many
        bytes may actually reach the file (crash follows if short)."""
        return size

    def fsync(self, site: str) -> bool:
        """About to fsync at ``site``; False simulates a failed fsync."""
        return True

    def note_durable(self, site: str, offset: int) -> None:
        """An fsync at ``site`` succeeded with ``offset`` bytes durable
        (the harness records this to simulate lost page-cache tails)."""


#: Shared no-op instance used when no faults are injected.
NO_FAULTS = FaultPoint()


def _encode_record(rec_type: int, payload: bytes) -> bytes:
    body = bytes([rec_type]) + payload
    return _RECORD_HEADER.pack(
        len(body), zlib.crc32(body) & 0xFFFFFFFF, rec_type
    ) + payload


class RecoveryResult:
    """What :meth:`WriteAheadLog.recover` found and redid."""

    __slots__ = ("statements", "pages_redone", "catalog_blob",
                 "torn_bytes", "scanned_bytes")

    def __init__(self) -> None:
        self.statements = 0      # committed statements redone
        self.pages_redone = 0    # PAGE records applied
        self.catalog_blob: Optional[bytes] = None
        self.torn_bytes = 0      # discarded tail length
        self.scanned_bytes = 0


class WriteAheadLog:
    """A single-file, statement-granular physical redo log."""

    def __init__(
        self,
        path: str,
        group_window: float = 0.0,
        faults: FaultPoint = NO_FAULTS,
    ):
        self.path = path
        self.group_window = group_window
        self.faults = faults
        self._file = None
        self._lock = threading.Lock()       # append / fsync / truncate
        self._gate = threading.Condition()  # group-commit leader gate
        self._syncing = False
        self._dead = False
        #: LSNs are *monotonic*: byte offset into the logical log stream,
        #: which survives truncation (``_base`` is the stream offset of
        #: the current file's byte 0).  A checkpoint truncates the file
        #: and marks everything up to ``_tail`` durable — true, since the
        #: checkpoint flushed it all to the data file — so a commit LSN
        #: handed out just before a checkpoint still retires.
        self._base = 0
        self._tail = 0          # logical append offset (next LSN)
        self._durable = 0       # logical offset covered by the last fsync
        self._next_seq = 1
        #: commit LSNs appended but not yet covered by an fsync — the
        #: group-commit batch accounting reads (and drains) this.
        self._pending_commits: List[int] = []
        # -- counters (db.stats()["wal"]) --
        self.appends = 0            # records appended
        self.statements_logged = 0  # commit markers appended
        self.fsyncs = 0
        self.bytes_appended = 0
        self.commit_batches: List[int] = []   # statements per fsync
        self.recovered_statements = 0
        self.checkpoints = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Open (creating if needed) the log file for appending.

        Called after :meth:`recover`, which reads and truncates the file
        through its own descriptor.
        """
        # Unbuffered: a torn simulated write must land exactly as many
        # bytes in the file as the fault permitted, and fsync must cover
        # precisely what was written — Python-level buffering would blur
        # both.
        self._file = open(self.path, "ab", buffering=0)
        self._tail = self._base + self._file.tell()
        self._durable = self._tail

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None

    def _require_alive(self) -> None:
        if self._dead:
            raise SimulatedCrash("write-ahead log is dead (injected fault)")
        if self._file is None:
            raise WALError("write-ahead log is not open")

    # -- append side -------------------------------------------------------

    def log_statement(
        self,
        pages: List[Tuple[int, bytes]],
        catalog_blob: Optional[bytes],
        header: Tuple[int, int],
    ) -> int:
        """Append one statement's redo batch; returns its commit LSN.

        ``pages`` is ``[(page_id, full image), ...]``; ``header`` is the
        disk geometry ``(npages, free_head)`` as of commit.  Appends are
        serialized and atomic with respect to other appenders, but NOT
        yet durable — callers follow up with :meth:`commit_wait`.
        """
        with self._lock:
            self._require_alive()
            for page_id, image in pages:
                self._append(
                    _encode_record(
                        REC_PAGE, _PAGE_PREFIX.pack(page_id) + bytes(image)
                    )
                )
            if catalog_blob is not None:
                self._append(_encode_record(REC_CATALOG, catalog_blob))
            seq = self._next_seq
            self._next_seq += 1
            npages, free_head = header
            self._append(
                _encode_record(
                    REC_COMMIT, _COMMIT_BODY.pack(seq, npages, free_head)
                )
            )
            self.statements_logged += 1
            lsn = self._tail
            with self._gate:
                self._pending_commits.append(lsn)
            return lsn

    def _append(self, record: bytes) -> None:
        """One record write, fault-checked.  Caller holds ``_lock``."""
        allowed = self.faults.write("wal.append", len(record))
        if allowed >= len(record):
            self._file.write(record)
            self._tail += len(record)
            self.appends += 1
            self.bytes_appended += len(record)
        else:
            # Torn append: the permitted prefix reaches the file (the
            # recovery scan must see it), then the process "dies".
            if allowed > 0:
                self._file.write(record[:allowed])
                self._tail += allowed
            self._dead = True
            with self._gate:
                self._gate.notify_all()
            raise SimulatedCrash(
                f"torn WAL append ({allowed}/{len(record)} bytes)"
            )

    # -- durability --------------------------------------------------------

    def commit_wait(self, lsn: int, window: Optional[float] = None) -> None:
        """Block until an fsync covers ``lsn`` (group commit).

        The first waiter becomes the fsync leader; with a group window
        it sleeps briefly so concurrent writers can append their own
        commit records first, then one fsync retires every waiter whose
        LSN it covered.  Followers just wait on the gate.
        """
        window = self.group_window if window is None else window
        while True:
            with self._gate:
                if self._dead:
                    raise SimulatedCrash("write-ahead log is dead")
                if self._durable >= lsn:
                    return
                if not self._syncing:
                    self._syncing = True
                    break
                self._gate.wait(timeout=1.0)
        try:
            if window > 0:
                time.sleep(window)
            self._sync()
        finally:
            with self._gate:
                self._syncing = False
                self._gate.notify_all()

    def ensure_durable(self, lsn: int) -> None:
        """Synchronous no-window variant (buffer-pool flush gate)."""
        self.commit_wait(lsn, window=0.0)

    def _sync(self) -> None:
        """One fsync covering everything appended so far."""
        with self._lock:
            self._require_alive()
            target = self._tail
            if not self.faults.fsync("wal.fsync"):
                # A failed fsync means the commit cannot be acknowledged;
                # a real engine PANICs here rather than lie about
                # durability.  Mark the log dead so every later operation
                # fails too.
                self._dead = True
                with self._gate:
                    self._gate.notify_all()
                raise WALError(
                    "WAL fsync failed; refusing to acknowledge commits"
                )
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            # The harness tracks *file* offsets (to truncate a simulated
            # lost page-cache tail), so subtract the stream base.
            self.faults.note_durable("wal.fsync", target - self._base)
        with self._gate:
            self._durable = max(self._durable, target)
            retired = [
                c for c in self._pending_commits if c <= self._durable
            ]
            if retired:
                self._pending_commits = [
                    c for c in self._pending_commits if c > self._durable
                ]
                self.commit_batches.append(len(retired))

    # -- recovery ----------------------------------------------------------

    def recover(self, disk, catalog_path: Optional[str]) -> RecoveryResult:
        """Scan the log, redo committed statements, reset the log.

        Must run before any :class:`~repro.storage.buffer.BufferPool`
        caches pages (pages are rewritten underneath).  ``disk`` is the
        freshly opened :class:`~repro.storage.disk.DiskManager`.
        """
        result = RecoveryResult()
        if not os.path.exists(self.path):
            self.open()
            return result
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        batch_pages: List[Tuple[int, bytes]] = []
        batch_catalog: Optional[bytes] = None
        last_header: Optional[Tuple[int, int]] = None
        last_catalog: Optional[bytes] = None
        last_seq = 0
        while True:
            if offset + _RECORD_HEADER.size > len(raw):
                break
            length, crc, rec_type = _RECORD_HEADER.unpack_from(raw, offset)
            body_start = offset + _RECORD_HEADER.size
            body_end = body_start + length - 1
            if length < 1 or body_end > len(raw):
                break  # torn length or torn body
            body = bytes([rec_type]) + raw[body_start:body_end]
            if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                break  # torn/corrupt record
            payload = raw[body_start:body_end]
            if rec_type == REC_PAGE:
                if len(payload) <= _PAGE_PREFIX.size:
                    break  # malformed despite CRC: treat as corruption
                (page_id,) = _PAGE_PREFIX.unpack_from(payload, 0)
                batch_pages.append(
                    (page_id, payload[_PAGE_PREFIX.size:])
                )
            elif rec_type == REC_CATALOG:
                batch_catalog = payload
            elif rec_type == REC_COMMIT:
                if len(payload) != _COMMIT_BODY.size:
                    break  # malformed despite CRC: treat as corruption
                seq, npages, free_head = _COMMIT_BODY.unpack(payload)
                if seq <= last_seq:
                    break  # out-of-order marker: treat as corruption
                for page_id, image in batch_pages:
                    disk.write_page_raw(page_id, image)
                    result.pages_redone += 1
                if batch_catalog is not None:
                    last_catalog = batch_catalog
                last_header = (npages, free_head)
                last_seq = seq
                result.statements += 1
                batch_pages = []
                batch_catalog = None
            else:
                break  # unknown type: treat as corruption
            offset = body_end
        result.scanned_bytes = offset
        result.torn_bytes = len(raw) - offset
        if last_header is not None:
            npages, free_head = last_header
            disk.set_geometry(npages, free_head)
        if result.statements:
            # Make the redone state the checkpoint: sized exactly to the
            # committed page count, header flushed, everything fsynced.
            disk.settle()
        if last_catalog is not None and catalog_path is not None:
            tmp = catalog_path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(last_catalog)
            os.replace(tmp, catalog_path)
        result.catalog_blob = last_catalog
        # The log's contents now live in the data file + catalog; start
        # a fresh log so recovery is idempotent and the file is bounded.
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self.recovered_statements = result.statements
        self.open()
        return result

    # -- checkpointing -----------------------------------------------------

    def truncate(self) -> None:
        """Reset the log file to empty (after a checkpoint flushed its
        state to the data file).  LSNs stay monotonic: everything logged
        so far becomes durable by definition (it now lives in the data
        file), so stragglers waiting in :meth:`commit_wait` retire."""
        with self._lock:
            self._require_alive()
            self._file.truncate(0)
            self._file.seek(0)
            os.fsync(self._file.fileno())
            self._base = self._tail
            self.checkpoints += 1
            with self._gate:
                self._durable = self._tail
                if self._pending_commits:
                    self.commit_batches.append(len(self._pending_commits))
                    self._pending_commits.clear()
                self._gate.notify_all()

    def tail_lsn(self) -> int:
        with self._lock:
            return self._tail

    def size(self) -> int:
        """Current log *file* length in bytes."""
        with self._lock:
            return self._tail - self._base

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._gate:
            batches = list(self.commit_batches)
            durable = self._durable
        grouped = [b for b in batches if b > 1]
        return {
            "appends": self.appends,
            "statements_logged": self.statements_logged,
            "fsyncs": self.fsyncs,
            "bytes_appended": self.bytes_appended,
            "durable_lsn": durable,
            "group_window": self.group_window,
            "commit_batches": len(batches),
            "grouped_commits": sum(grouped),
            "max_batch": max(batches) if batches else 0,
            "mean_batch": (
                sum(batches) / len(batches) if batches else 0.0
            ),
            "recovered_statements": self.recovered_statements,
            "checkpoints": self.checkpoints,
        }
