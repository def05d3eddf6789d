"""Page-granular disk manager.

The bottom of the storage stack: a single file of fixed-size pages with a
free list threaded through freed pages.  Everything above (buffer pool,
heap files, LOBs, B+-trees) deals only in page ids.  ``path=None`` keeps
the pages in a list instead of a file; nothing else differs.

File layout::

    page 0   header: magic, page size, page count, free-list head
    page 1+  data pages

Freed pages store the id of the next free page in their first 4 bytes.

The manager writes no metadata eagerly.  The header is kept in memory
and reaches the file only at creation, :meth:`settle`, :meth:`sync` and
WAL recovery (between checkpoints a write-ahead log carries it in every
commit record).  Allocation does not zero-extend the file: a new page
exists only in the buffer pool until the pool writes it back (the WAL
gates that write when there is a log), and :meth:`settle` sizes the file
to the page count.

The free list is **commit-granular** and owned by the buffer pool: a
statement that frees pages only buffers them in its
:class:`~repro.storage.buffer.DirtyTracker`, and the pool threads them
onto the list (:meth:`note_freed` plus the chain-pointer page dirties)
when the statement publishes, under the database's commit lock
(:attr:`publish_lock`).  :meth:`allocate_page` pops under the same lock
and reads the chain pointer through the pool (:attr:`free_list_reader`),
whose frame may hold the page's latest bytes.  So a page freed by a
still-running statement is never handed out, and with a WAL every chain
pointer reachable from a logged ``free_head`` was logged by that or an
earlier committed statement: recovery never restores a free list that
threads through unlogged page bytes.

All mutating entry points are serialized by an internal lock: with
per-table write locks above, two writers on disjoint tables may
allocate or free pages concurrently (allocations briefly rendezvous on
:attr:`publish_lock`).

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
        faults=None,
    ):
        from .wal import NO_FAULTS

        if page_size < 64:
            raise DiskError(f"page size {page_size} is too small")
        self.path = path
        self.page_size = page_size
        self.faults = faults if faults is not None else NO_FAULTS
        self._dead = False
        self._lock = threading.RLock()
        #: Serializes free-list pops and commit publishes.
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
        #: Reads a freed page's next-pointer *through the buffer pool*
        #: (its latest bytes may be an unflushed frame).  Installed by
        #: the pool, which owns every free.
        self.free_list_reader: Optional[Callable[[int], int]] = None
        if path is None:
            self._mem = [bytes(page_size)]  # placeholder header page
            return
        # Unbuffered file: page writes must reach the OS when issued
        # (Python-level buffering would make a "kill -9" lose writes the
        # WAL already counts on, and would blur torn-write simulation).
        existing = os.path.exists(path) and os.path.getsize(path) > 0
        self._file = open(path, "r+b" if existing else "w+b", buffering=0)
        try:
            if existing:
                self._load_header()
            else:
                self._file.write(bytes(page_size))
                self._flush_header()
                # A fresh file's header must be durable before the first
                # commit is acknowledged — recovery cannot replay into a
                # file without a valid header.
                os.fsync(self._file.fileno())
        except BaseException:
            self._file.close()
            self._file = None
            raise

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

    def _flush_header(self) -> None:
        """Write the header page: at creation, :meth:`settle` and
        :meth:`sync` only, since between them the in-memory header is
        authoritative (a WAL logs it with every commit)."""
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
        """Return a page id for the buffer pool to zero, popping the
        free list when it is non-empty.

        The pop runs under :attr:`publish_lock`, so it serializes with
        commit publishes: a page freed by a statement becomes
        allocatable only once that statement has published.  A file is
        not extended here: the page exists only in the pool until the
        pool writes it back.
        """
        with self.publish_lock, self._lock:
            page_id = self._free_head
            if page_id != NO_PAGE:
                self._free_head = self.free_list_reader(page_id)
                return page_id
            page_id = self._npages
            self._npages += 1
            if self._mem is not None:
                self._mem.append(bytes(self.page_size))
            return page_id

    def note_freed(self, page_id: int) -> int:
        """Record ``page_id`` as the new free-list head;
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
            self._flush_header()
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
                self._flush_header()
                self._file.flush()
                os.fsync(self._file.fileno())

    def close(self, sync: bool = True) -> None:
        """Close the data file.

        ``sync=False`` drops the descriptor without flushing anything —
        in particular without writing the in-memory header.  A
        WAL-backed database closes this way after a crashed checkpoint
        (dead WAL): the header may hold geometry mutated by the crashed,
        uncommitted statement, and only a checkpoint or recovery may
        write that to the data file.
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
