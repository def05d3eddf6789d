"""Buffer pool with clock (second-chance) replacement.

The storage layer's working set lives here: fixed number of frames, a
page table, pin counts, dirty tracking, and write-back on eviction.  The
pool hands out the frame's ``bytearray`` directly (zero-copy for readers
and writers); callers pin while using it and unpin with a dirty flag.

``hits`` / ``misses`` / ``evictions`` counters feed the benchmark
harness — the paper's calibration experiment (Figure 4) is dominated by
exactly these table-access costs.

Concurrency: every public method takes the pool's reentrant lock, so
frame bookkeeping (page table, pin counts, clock hand) stays consistent
when the server's read statements and per-table writers share
one pool.  The lock covers the *bookkeeping*, not the returned frame
bytes — writers on the same table are serialized above this layer (the
database's per-table write locks), writers on disjoint tables touch
disjoint frames, and snapshot readers never touch live frames at all
(they read frozen page images, see :mod:`repro.storage.mvcc`).

``page_version(page_id)`` exposes a monotonic per-page mutation counter
(bumped on every dirty unpin and page allocation).  The MVCC installer
diffs against it to copy only the pages a write statement actually
touched into the next frozen table image.

**Write-ahead logging** (``attach_wal``): each frame carries the LSN of
the last WAL record describing its contents, and the pool enforces the
WAL rule — a dirty page may reach the data file only once its latest
image is durable in the log:

* While a write statement executes, its dirtied frames are *pending*
  (``rec_lsn is PENDING``): not yet logged, therefore unevictable and
  unflushable.  Dirty pages are attributed to the statement through a
  per-thread :class:`DirtyTracker` (write statements are single-threaded
  below the operator tree, so thread identity is statement identity).
* Page frees are buffered in the tracker too (:meth:`free_page` only
  records them): the shared free list moves at *commit* granularity.
  At publish time :meth:`publish_frees` threads the freed pages onto
  the list as ordinary tracked dirties, so their chain-pointer images
  land in the same WAL batch as the commit record naming the new head.
* At commit the database logs full images of the tracker's pages and
  stamps the frames with the record LSN (:meth:`note_logged`); from then
  on eviction/flush first ensures the log is durable up to that LSN
  (one ``fsync``, shared via group commit) and only then writes the
  page.

Without an attached WAL every code path is byte-identical to the seed
behaviour.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

from ..errors import BufferPoolError
from .disk import DiskManager

DEFAULT_CAPACITY = 256

#: Sentinel LSN for "dirtied by an in-flight statement, not yet logged".
PENDING = object()


class DirtyTracker:
    """One write statement's dirty-page attribution.

    ``pages`` collects every page the statement dirtied (in first-touch
    order — the WAL replays images in logged order, so determinism
    matters); ``freed`` collects the pages it returned to the free list
    (in free order — applied to the disk manager only at publish time,
    see :meth:`BufferPool.publish_frees`, so the shared free list never
    reflects an uncommitted statement); ``catalog_dirty`` is set by the
    deferred catalog when the statement changed schema or UDF
    registrations.
    """

    __slots__ = ("pages", "freed", "catalog_dirty")

    def __init__(self) -> None:
        self.pages: List[int] = []
        self.freed: List[int] = []
        self.catalog_dirty = False

    def note(self, page_id: int) -> None:
        if page_id not in self.pages:
            self.pages.append(page_id)


class _Frame:
    __slots__ = ("index", "page_id", "data", "pin_count", "dirty",
                 "referenced", "rec_lsn")

    def __init__(self, index: int, page_size: int):
        self.index = index
        self.page_id: Optional[int] = None
        self.data = bytearray(page_size)
        self.pin_count = 0
        self.dirty = False
        self.referenced = False
        #: None (clean / no WAL), PENDING (in-flight statement), or the
        #: LSN of the WAL record holding this frame's latest image.
        self.rec_lsn = None


class BufferPool:
    """Caches ``capacity`` pages of a :class:`DiskManager`."""

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self._frames: List[_Frame] = [
            _Frame(i, disk.page_size) for i in range(capacity)
        ]
        self._table: Dict[int, int] = {}  # page_id -> frame index
        #: Indices of frames holding no page, popped before any eviction.
        self._free_frames: List[int] = list(range(capacity - 1, -1, -1))
        self._hand = 0
        self._lock = threading.RLock()
        #: page_id -> monotonic mutation counter (see module docstring).
        self._page_versions: Dict[int, int] = {}
        self.wal = None
        #: thread ident -> that thread's active DirtyTracker.
        self._trackers: Dict[int, DirtyTracker] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- WAL wiring --------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Enforce the WAL-before-flush rule for every dirty write-back."""
        self.wal = wal
        self.disk.free_list_reader = self._read_free_pointer

    def begin_tracking(self) -> DirtyTracker:
        """Start attributing this thread's dirty pages to a statement."""
        tracker = DirtyTracker()
        with self._lock:
            self._trackers[threading.get_ident()] = tracker
        return tracker

    def end_tracking(self, tracker: DirtyTracker) -> None:
        with self._lock:
            ident = threading.get_ident()
            if self._trackers.get(ident) is tracker:
                del self._trackers[ident]

    def current_tracker(self) -> Optional[DirtyTracker]:
        with self._lock:
            return self._trackers.get(threading.get_ident())

    def _note_dirty(self, frame: _Frame) -> None:
        """WAL bookkeeping for a freshly dirtied frame (lock held)."""
        if self.wal is None:
            return
        frame.rec_lsn = PENDING
        tracker = self._trackers.get(threading.get_ident())
        if tracker is not None:
            tracker.note(frame.page_id)

    def collect_images(self, tracker: DirtyTracker) -> List[tuple]:
        """Snapshot ``(page_id, bytes)`` for the tracker's pages.

        Pending frames are unevictable, so every tracked page is still
        resident; runs under the pool lock for a consistent copy.
        """
        with self._lock:
            images = []
            for page_id in tracker.pages:
                index = self._table.get(page_id)
                if index is None:
                    raise BufferPoolError(
                        f"tracked page {page_id} left the pool before "
                        f"it was logged"
                    )
                images.append((page_id, bytes(self._frames[index].data)))
            return images

    def note_logged(self, page_ids, lsn: int) -> None:
        """Stamp frames with the WAL record LSN covering their images."""
        with self._lock:
            for page_id in page_ids:
                index = self._table.get(page_id)
                if index is not None:
                    self._frames[index].rec_lsn = lsn

    def _writable(self, frame: _Frame) -> bool:
        """May this dirty frame be written to the data file right now?
        (Makes the log durable up to the frame's LSN first.)"""
        if self.wal is None:
            return True
        if frame.rec_lsn is PENDING:
            return False
        if frame.rec_lsn is not None:
            self.wal.ensure_durable(frame.rec_lsn)
        return True

    # -- pinning -------------------------------------------------------------

    def fetch(self, page_id: int) -> bytearray:
        """Pin a page and return its frame bytes."""
        with self._lock:
            index = self._table.get(page_id)
            if index is not None:
                self.hits += 1
                frame = self._frames[index]
            else:
                self.misses += 1
                frame = self._grab_frame()
                frame.page_id = page_id
                frame.data[:] = self.disk.read_page(page_id)
                frame.dirty = False
                frame.rec_lsn = None
                self._table[page_id] = frame.index
            frame.pin_count += 1
            frame.referenced = True
            return frame.data

    def new_page(self) -> tuple:
        """Allocate a fresh page, pinned; returns (page_id, bytes)."""
        # Allocate before taking the pool lock: in WAL mode the disk
        # manager rendezvouses with commit publishes on its publish
        # lock, and a publisher already holds it while touching pool
        # state — taking it under the pool lock would deadlock.  The
        # returned id is exclusively ours either way (popped off the
        # free list or beyond every other statement's reach), so the
        # frame installation below needs no allocation atomicity.
        page_id = self.disk.allocate_page()
        with self._lock:
            index = self._table.get(page_id)
            if index is not None:
                # WAL mode reuses free-list pages without the legacy
                # direct-to-disk zeroing, so the freed page's frame may
                # still be resident — reuse it in place.
                frame = self._frames[index]
            else:
                frame = self._grab_frame()
                frame.page_id = page_id
                self._table[page_id] = frame.index
            frame.data[:] = bytes(self.disk.page_size)
            frame.dirty = True
            frame.pin_count += 1
            frame.referenced = True
            self._bump_version(page_id)
            self._note_dirty(frame)
            return page_id, frame.data

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._lock:
            frame = self._frame_of(page_id)
            if frame.pin_count <= 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True
                self._bump_version(page_id)
                self._note_dirty(frame)

    def _bump_version(self, page_id: int) -> None:
        self._page_versions[page_id] = (
            self._page_versions.get(page_id, 0) + 1
        )

    def page_version(self, page_id: int) -> int:
        """Mutation counter for a page (0 = never dirtied via this pool)."""
        with self._lock:
            return self._page_versions.get(page_id, 0)

    @contextmanager
    def pinned(self, page_id: int, dirty: bool = False) -> Iterator[bytearray]:
        """``with pool.pinned(pid) as data: ...`` convenience wrapper."""
        data = self.fetch(page_id)
        try:
            yield data
        finally:
            self.unpin(page_id, dirty)

    # -- freeing -----------------------------------------------------------

    def free_page(self, page_id: int) -> None:
        """Return a page to the free list.

        Legacy path: forget the frame, then the disk manager writes the
        free-list pointer in place (seed behaviour, byte-identical).
        WAL path: only *buffer* the free in the statement's tracker —
        the shared free list must not reflect an uncommitted statement
        (a concurrent committer captures ``disk.geometry()`` in its
        commit record, and a concurrent allocator must never be handed
        a page whose free is not yet durable).  The chain-pointer
        writes happen at publish time (:meth:`publish_frees`), under
        the commit lock, in the same WAL batch as the commit record.
        """
        with self._lock:
            if self.wal is None:
                self.drop_page(page_id)
                self.disk.free_page(page_id)
                return
            tracker = self._trackers.get(threading.get_ident())
            if tracker is None:
                raise BufferPoolError(
                    f"WAL-mode free of page {page_id} outside a tracked "
                    f"write statement (the free could never be logged)"
                )
            tracker.freed.append(page_id)

    def publish_frees(self, tracker: DirtyTracker) -> None:
        """Apply a committing statement's buffered frees.

        Runs at publish time on the statement's own thread, with the
        database's commit lock held and *before*
        :meth:`collect_images`: each freed page is threaded onto the
        free list (zeroed, chain pointer to the previous head) as an
        ordinary tracked page dirty, so the commit batch logs the
        pointer images alongside the geometry that names the new head.
        """
        with self._lock:
            for page_id in tracker.freed:
                data = self.fetch(page_id)
                try:
                    previous = self.disk.note_freed(page_id)
                    data[:] = bytes(self.disk.page_size)
                    struct.pack_into("<I", data, 0, previous)
                finally:
                    self.unpin(page_id, dirty=True)
            tracker.freed.clear()

    def _read_free_pointer(self, page_id: int) -> int:
        """Free-list traversal for the disk manager (WAL mode): the
        freed page's latest bytes may be an unflushed frame."""
        with self.pinned(page_id) as data:
            (next_free,) = struct.unpack_from("<I", data, 0)
            return next_free

    # -- write-back -------------------------------------------------------------

    def flush_page(self, page_id: int) -> None:
        with self._lock:
            index = self._table.get(page_id)
            if index is None:
                return
            frame = self._frames[index]
            if frame.dirty and self._writable(frame):
                self.disk.write_page(page_id, bytes(frame.data))
                frame.dirty = False

    def flush_all(self) -> None:
        with self._lock:
            for frame in self._frames:
                if (frame.page_id is not None and frame.dirty
                        and self._writable(frame)):
                    self.disk.write_page(frame.page_id, bytes(frame.data))
                    frame.dirty = False

    def drop_page(self, page_id: int) -> None:
        """Forget a page (after it was freed on disk)."""
        with self._lock:
            index = self._table.pop(page_id, None)
            if index is not None:
                frame = self._frames[index]
                if frame.pin_count:
                    raise BufferPoolError(
                        f"cannot drop pinned page {page_id}"
                    )
                frame.page_id = None
                frame.dirty = False
                frame.referenced = False
                frame.rec_lsn = None
                self._free_frames.append(index)
            self._page_versions.pop(page_id, None)

    # -- replacement --------------------------------------------------------------

    def _frame_of(self, page_id: int) -> _Frame:
        index = self._table.get(page_id)
        if index is None:
            raise BufferPoolError(f"page {page_id} is not resident")
        return self._frames[index]

    def _grab_frame(self) -> _Frame:
        """Find a free frame or evict with the clock algorithm."""
        if self._free_frames:
            return self._frames[self._free_frames.pop()]
        # Clock sweep: at most two full passes (first clears ref bits).
        for __ in range(2 * self.capacity):
            frame = self._frames[self._hand]
            self._hand = (self._hand + 1) % self.capacity
            if frame.pin_count > 0:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            if frame.dirty:
                # WAL rule: an unlogged (pending) page must stay in
                # memory; a logged one forces the log durable first.
                if not self._writable(frame):
                    continue
                self.disk.write_page(frame.page_id, bytes(frame.data))
            self._table.pop(frame.page_id, None)
            self.evictions += 1
            frame.page_id = None
            frame.dirty = False
            frame.rec_lsn = None
            return frame
        pending = sum(
            1 for frame in self._frames if frame.rec_lsn is PENDING
        )
        if pending:
            raise BufferPoolError(
                f"statement working set exceeds the buffer pool: "
                f"{pending} of {self.capacity} frames hold unlogged "
                f"(pending) pages that cannot be evicted before their "
                f"statement commits; raise buffer_capacity or split "
                f"the statement into smaller commit units"
            )
        raise BufferPoolError(
            "all buffer frames are pinned; cannot evict"
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
