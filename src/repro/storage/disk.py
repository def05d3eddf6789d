"""Page-granular disk manager.

The bottom of the storage stack: a single file of fixed-size pages with a
free list threaded through freed pages.  Everything above (buffer pool,
heap files, LOBs, B+-trees) deals only in page ids.

File layout::

    page 0   header: magic, page size, page count, free-list head
    page 1+  data pages

Freed pages store the id of the next free page in their first 8 bytes.

**WAL mode** (``wal_mode=True``, set by a :class:`~repro.database.Database`
with a write-ahead log): the manager stops writing metadata eagerly.
The header is kept in memory and flushed only at checkpoints (its
durable copy lives in the WAL's commit records), page allocation no
longer zero-extends the file (pages reach the file only through the
buffer pool's WAL-gated flushes), and the free list is maintained by
the buffer pool (:meth:`~repro.storage.buffer.BufferPool.free_page`)
so that free-list writes are ordinary logged page dirties instead of
in-place file writes that crash recovery could not undo.  Without WAL
mode every code path is byte-identical to the seed behaviour.

Free-list mutations are **commit-granular** in WAL mode: a statement
that frees pages only buffers them in its
:class:`~repro.storage.buffer.DirtyTracker`; the buffer pool applies
them (:meth:`note_freed` + the chain-pointer page dirties) at publish
time, under the database's commit lock and in the same WAL batch as
the commit record that captures the resulting :meth:`geometry`.  Pops
from the free list (:meth:`allocate_page`) take the same lock
(:attr:`publish_lock`).  The invariant this buys: whenever a commit
record names a ``free_head``, every chain pointer reachable from it
was logged by that or an earlier committed statement — recovery can
never restore a free list that threads through unlogged page bytes,
and a page freed by a still-uncommitted statement can never be handed
back out by :meth:`allocate_page`.

All mutating entry points are serialized by an internal lock: with
per-table write locks above, two writers on disjoint tables may
allocate or free pages concurrently (allocations briefly rendezvous on
:attr:`publish_lock` in WAL mode).

Every file write funnels through the :class:`~repro.storage.wal.FaultPoint`
hook (site ``"disk.write"``), so the fault-injection harness can kill
the process at data-file writes too.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Callable, Optional

from ..errors import DiskError, SimulatedCrash

PAGE_SIZE = 8192
MAGIC = b"JAGD"
#: Sentinel for "no page" in chains and the free list.
NO_PAGE = 0xFFFFFFFF

_HEADER = struct.Struct("<4sIII")  # magic, page_size, npages, free_head


class DiskManager:
    """Allocates, reads, and writes fixed-size pages in one file.

    Pass ``path=None`` for a purely in-memory database (used heavily by
    tests and by benchmark workloads that should not measure the host
    filesystem).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = PAGE_SIZE,
        wal_mode: bool = False,
        faults=None,
    ):
        from .wal import NO_FAULTS

        if page_size < 64:
            raise DiskError(f"page size {page_size} is too small")
        self.path = path
        self.page_size = page_size
        self.wal_mode = wal_mode
        self.faults = faults if faults is not None else NO_FAULTS
        self._dead = False
        self._lock = threading.RLock()
        #: WAL mode: serializes free-list pops and commit publishes.
        #: A :class:`~repro.database.Database` replaces this with its
        #: commit lock so allocate-from-free-list cannot interleave
        #: with another statement's publish-time frees — the free list
        #: only ever changes at commit granularity.  Lock order:
        #: publish_lock < _lock < (buffer pool lock).
        self.publish_lock = threading.RLock()
        self._mem: Optional[list] = None
        self._file = None
        self._free_head = NO_PAGE
        self._npages = 1  # page 0 is the header
        #: WAL mode only: reads a freed page's next-pointer *through the
        #: buffer pool* (its latest bytes may be an unflushed frame).
        #: Installed by the pool; the legacy path never needs it.
        self.free_list_reader: Optional[Callable[[int], int]] = None
        # Unbuffered file: page writes must reach the OS when issued
        # (Python-level buffering would make a "kill -9" lose writes the
        # WAL already counts on, and would blur torn-write simulation).
        if path is None:
            self._mem = [bytes(page_size)]  # placeholder header page
        elif os.path.exists(path) and os.path.getsize(path) > 0:
            self._file = open(path, "r+b", buffering=0)
            self._load_header()
        else:
            self._file = open(path, "w+b", buffering=0)
            self._file.write(bytes(page_size))
            self._flush_header(force=True)
            # A fresh file's header must be durable before the first
            # commit is acknowledged — recovery cannot replay into a
            # file without a valid header.
            os.fsync(self._file.fileno())

    # -- header ------------------------------------------------------------

    def _read_exact(self, size: int) -> bytes:
        """Read exactly ``size`` bytes from the current position (raw
        unbuffered files may return short reads); the header only —
        pages are read with :meth:`read_into`."""
        chunks = []
        remaining = size
        while remaining:
            chunk = self._file.read(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _load_header(self) -> None:
        self._file.seek(0)
        raw = self._read_exact(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise DiskError(f"file {self.path!r} is not a database")
        magic, page_size, npages, free_head = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise DiskError(f"file {self.path!r} has bad magic")
        if page_size != self.page_size:
            raise DiskError(
                f"file {self.path!r} uses page size {page_size}, "
                f"opened with {self.page_size}"
            )
        self._npages = npages
        self._free_head = free_head

    def _flush_header(self, force: bool = False) -> None:
        """Write the header page.  In WAL mode the in-memory header is
        authoritative between checkpoints (the WAL logs it with every
        commit), so only forced (checkpoint/recovery) writes happen."""
        if self._file is None:
            return
        if self.wal_mode and not force:
            return
        self._write_at(
            0,
            _HEADER.pack(MAGIC, self.page_size, self._npages,
                         self._free_head),
        )

    # -- fault-checked file primitives --------------------------------------

    def _write_at(self, offset: int, data: bytes) -> None:
        if self._dead:
            raise SimulatedCrash("disk manager is dead (injected fault)")
        allowed = self.faults.write("disk.write", len(data))
        self._file.seek(offset)
        if allowed >= len(data):
            self._file.write(data)
        else:
            if allowed > 0:
                self._file.write(data[:allowed])
            self._dead = True
            raise SimulatedCrash(
                f"torn data-file write ({allowed}/{len(data)} bytes)"
            )

    # -- page API -------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self._npages

    def geometry(self) -> tuple:
        """Header state ``(npages, free_head)`` for WAL commit records."""
        with self._lock:
            return (self._npages, self._free_head)

    def set_geometry(self, npages: int, free_head: int) -> None:
        """Restore header state during recovery (replayed commit record)."""
        with self._lock:
            self._npages = npages
            self._free_head = free_head

    def allocate_page(self) -> int:
        """Return a zeroed page id, reusing the free list when possible.

        WAL mode: the free-list pop runs under :attr:`publish_lock`, so
        it serializes with commit publishes — a page freed by a
        statement becomes allocatable only once that statement's commit
        (which logs the chain-pointer image and the new geometry) has
        published.
        """
        if self.wal_mode:
            with self.publish_lock:
                return self._allocate_page_locked()
        return self._allocate_page_locked()

    def _allocate_page_locked(self) -> int:
        with self._lock:
            if self._free_head != NO_PAGE:
                page_id = self._free_head
                if self.wal_mode:
                    # The freed page's latest bytes may live in the
                    # buffer pool; read the chain pointer through it.
                    # Zeroing happens in the pool frame, not the file.
                    self._free_head = self.free_list_reader(page_id)
                else:
                    raw = self.read_page(page_id)
                    (self._free_head,) = struct.unpack_from("<I", raw, 0)
                    self.write_page(page_id, bytes(self.page_size))
                    self._flush_header()
                return page_id
            page_id = self._npages
            self._npages += 1
            if self._mem is not None:
                self._mem.append(bytes(self.page_size))
            elif not self.wal_mode:
                self._write_at(page_id * self.page_size,
                               bytes(self.page_size))
                self._flush_header()
            # WAL mode: no eager extension — the page exists only in the
            # pool until a WAL-gated flush writes it (extending the file
            # then); recovery recreates it from its logged image.
            return page_id

    def free_page(self, page_id: int) -> None:
        """Return a page to the free list (legacy direct-write path).

        In WAL mode the buffer pool owns freeing (the free-list pointer
        write must be a logged page dirty, not an in-place file write) —
        see :meth:`~repro.storage.buffer.BufferPool.free_page`, which
        calls :meth:`note_freed` instead.
        """
        with self._lock:
            if self.wal_mode:
                raise DiskError(
                    "free_page bypasses the WAL; use BufferPool.free_page"
                )
            self._check(page_id)
            head = bytearray(self.page_size)
            struct.pack_into("<I", head, 0, self._free_head)
            self.write_page(page_id, bytes(head))
            self._free_head = page_id
            self._flush_header()

    def note_freed(self, page_id: int) -> int:
        """WAL mode: record ``page_id`` as the new free-list head;
        returns the previous head (what the page's chain pointer must
        name).  Called only at publish time
        (:meth:`~repro.storage.buffer.BufferPool.publish_frees`), with
        :attr:`publish_lock` held, so the head moves at commit
        granularity and the commit record that captures it also logs
        the chain-pointer page image."""
        with self._lock:
            self._check(page_id)
            previous = self._free_head
            self._free_head = page_id
            return previous

    def read_page(self, page_id: int) -> bytes:
        data = bytearray(self.page_size)
        self.read_into(page_id, data)
        return bytes(data)

    def read_into(self, page_id: int, buf: bytearray) -> None:
        """Fill ``buf`` (one page long, e.g. a buffer-pool frame) with
        the page's bytes: one positional read straight into it, no seek
        and no intermediate ``bytes``."""
        with self._lock:
            self._check(page_id)
            if self._mem is not None:
                buf[:] = self._mem[page_id]
                return
            if self._dead:
                raise SimulatedCrash("disk manager is dead (injected fault)")
            got = os.preadv(self._file.fileno(), [buf],
                            page_id * self.page_size)
            if got != self.page_size:
                raise DiskError(f"short read of page {page_id}")

    def write_page(self, page_id: int, data: bytes) -> None:
        with self._lock:
            self._check(page_id)
            if len(data) != self.page_size:
                raise DiskError(
                    f"page write of {len(data)} bytes (page size "
                    f"{self.page_size})"
                )
            if self._mem is not None:
                self._mem[page_id] = bytes(data)
            else:
                self._write_at(page_id * self.page_size, data)

    def write_page_raw(self, page_id: int, data: bytes) -> None:
        """Recovery-only write: no range check (replay may write pages
        beyond the stale header's count), no fault hook (recovery runs
        before any faults are armed)."""
        if len(data) != self.page_size:
            raise DiskError("raw page write of wrong size")
        if self._mem is not None:
            while len(self._mem) <= page_id:
                self._mem.append(bytes(self.page_size))
            self._mem[page_id] = bytes(data)
            return
        self._file.seek(page_id * self.page_size)
        self._file.write(data)

    def settle(self) -> None:
        """Checkpoint the file shape: sized to exactly ``npages`` pages,
        header out, everything fsynced.

        ``truncate(size)`` both shrinks (dropping pages an uncommitted
        statement allocated before a crash) and zero-extends (pages
        allocated but never flushed read as zeros, exactly like a
        flushed never-written page) — so the post-checkpoint file shape
        is a deterministic function of the committed state.
        """
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            self._file.truncate(self._npages * self.page_size)
            self._flush_header(force=True)
            self._file.flush()
            os.fsync(self._file.fileno())

    def sync(self) -> None:
        with self._lock:
            if self._file is not None:
                if self._dead:
                    raise SimulatedCrash(
                        "disk manager is dead (injected fault)"
                    )
                if not self.faults.fsync("disk.sync"):
                    self._dead = True
                    raise SimulatedCrash("data-file fsync failed")
                self._flush_header(force=self.wal_mode)
                self._file.flush()
                os.fsync(self._file.fileno())

    def close(self, sync: bool = True) -> None:
        """Close the data file.

        ``sync=False`` drops the descriptor without flushing anything —
        in particular without writing the in-memory header.  A
        WAL-backed database closes this way after a crashed checkpoint
        (dead WAL): the header may hold geometry mutated by the crashed,
        uncommitted statement, and in WAL mode only a checkpoint or
        recovery may write the header to the data file.
        """
        with self._lock:
            if self._file is not None:
                if sync and not self._dead:
                    self.sync()
                self._file.close()
                self._file = None

    def _check(self, page_id: int) -> None:
        if not 1 <= page_id < self._npages:
            raise DiskError(
                f"page id {page_id} out of range [1, {self._npages})"
            )

    def __enter__(self) -> "DiskManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
