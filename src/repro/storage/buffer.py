"""Buffer pool with clock (second-chance) replacement.

The storage layer's working set lives here: fixed number of frames, a
page table, pin counts, dirty tracking, and write-back on eviction.  The
pool hands out the frame's ``bytearray`` directly (zero-copy for readers
and writers); callers pin while using it and unpin with a dirty flag.

**Decoded pages.**  Heap reads go through :meth:`BufferPool.read_decoded`
(a whole page) and :meth:`BufferPool.read_slots` (some of its records),
which take a record decoder and return decoded rows, not bytes.  A
resident frame keeps the rows of its last whole-page decode, keyed on
the decoder and stored only if the page's mutation stamp did not move
while it was decoded; they are dropped wherever the frame's bytes change
or leave it (a miss load, :meth:`new_page`, a dirty :meth:`unpin`, an
eviction, :meth:`close`).  A decoded hit takes no pin but counts as one
fetch and one hit, so fetch counts mean the same with or without it.
Kept rows are never handed out: every caller gets its own copies of the
rows (and of any mutable value in them, such as a FLOATARR ``array``),
so a caller that appends a RID or a UDF that writes into its argument
cannot change what the next reader sees.

**Scan resistance.**  A heap scan passes the number of pages it has
read so far and a page buffer of its own.  Past ``capacity //
BULK_READ_SHARE`` of them, a page the scan *misses* takes no frame: it
is read under the pool lock into the scan's buffer and decoded there,
outside the lock, so a table larger than the pool evicts nothing past
its first pages (a ring of none, where PostgreSQL's bulk-read strategy
keeps a small ring of frames).  It still counts as one miss, one decode
and one ``bulk_released``.  Pages the scan finds resident stay where
they are and are read as any other.

``hits`` / ``misses`` / ``evictions`` counters feed the benchmark
harness — the paper's calibration experiment (Figure 4) is dominated by
exactly these table-access costs; :meth:`BufferPool.stats` adds the
decode and ring counters (``db.stats()["storage"]``).

Concurrency: every public method takes the pool's reentrant lock, so
frame bookkeeping (page table, pin counts, clock hand) stays consistent
when the server's read statements and per-table writers share
one pool.  The lock covers the *bookkeeping*, not the returned frame
bytes — writers on the same table are serialized above this layer (the
database's per-table write locks), writers on disjoint tables touch
disjoint frames, and snapshot readers never touch live frames at all
(they read frozen page images, see :mod:`repro.storage.mvcc`).

``page_version(page_id)`` exposes a per-page mutation stamp, restamped
on every dirty unpin and page allocation from one pool-wide counter, so
a freed and reallocated page never repeats a stamp it carried before.
The MVCC installer diffs against it to copy only the pages a write
statement actually touched into the next frozen table image.

**Write statements.**  Every write statement runs under a per-thread
:class:`DirtyTracker` (:meth:`begin_tracking`; write statements are
single-threaded below the operator tree, so thread identity is statement
identity), with or without a log:

* Every page the statement dirties is noted in the tracker.
* Page frees are buffered in the tracker (:meth:`free_page` only
  records them): the shared free list moves at *commit* granularity.
  At publish time :meth:`publish_frees` threads the freed pages onto
  the list as ordinary tracked dirties, so a page is never reused by
  the statement that freed it, and with a log their chain-pointer
  images land in the same WAL batch as the commit record naming the
  new head.

**Write-ahead logging** (``attach_wal``) adds only the WAL rule: each
frame carries the LSN of the last WAL record describing its contents,
and a dirty page may reach the data file only once its latest image is
durable in the log.  While a write statement executes, its dirtied
frames are *pending* (``rec_lsn is PENDING``): not yet logged, therefore
unevictable and unflushable.  At commit the database logs full images
of the tracker's pages and stamps the frames with the record LSN
(:meth:`note_logged`); from then on eviction/flush first ensures the log
is durable up to that LSN (one ``fsync``, shared via group commit) and
only then writes the page.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import BufferPoolError, PageError
from .disk import DiskManager
from .page import Decoder, decode_records, decode_slots

DEFAULT_CAPACITY = 256

#: A scan that has read more than ``capacity // BULK_READ_SHARE`` pages
#: reads each page it misses around the pool (see the module docstring).
BULK_READ_SHARE = 4

#: Sentinel LSN for "dirtied by an in-flight statement, not yet logged".
PENDING = object()


class DirtyTracker:
    """One write statement's dirty-page attribution.

    ``pages`` collects every page the statement dirtied (an ordered set,
    in first-touch order — the WAL replays images in logged order, so
    determinism matters); ``freed`` collects the pages it returned to
    the free list (in free order — applied to the disk manager only at
    publish time, see :meth:`BufferPool.publish_frees`, so the shared
    free list never reflects an uncommitted statement);
    ``catalog_dirty`` is set by the catalog when the statement changed
    schema or UDF registrations.
    """

    __slots__ = ("pages", "freed", "catalog_dirty")

    def __init__(self) -> None:
        self.pages: Dict[int, None] = {}
        self.freed: List[int] = []
        self.catalog_dirty = False


def _copy_rows(rows: List[object]) -> List[object]:
    return [row[:] for row in rows]


def row_copier(decode: Decoder) -> Callable[[List[object]], List[object]]:
    """How to copy rows ``decode`` made so that a caller owns them: the
    ``copy_rows`` of the object a bound decoder belongs to (a
    :class:`~repro.storage.record.RecordCodec` copies its FLOATARR
    arrays too), else one shallow copy per row."""
    return getattr(getattr(decode, "__self__", None), "copy_rows",
                   _copy_rows)


class _Decoded:
    """A frame's kept whole-page decode: ``(next_page, offsets, rows)``
    as :func:`~repro.storage.page.decode_records` returns it, the
    decoder that made it, and that decoder's row copier."""

    __slots__ = ("decode", "copy", "next_page", "offsets", "rows")

    def __init__(self, decode: Decoder, copy, page: tuple):
        self.decode = decode
        self.copy = copy
        self.next_page, self.offsets, self.rows = page

    def hand_out(self) -> Tuple[int, Tuple[int, ...], List[object]]:
        return self.next_page, self.offsets, self.copy(self.rows)

    def pick(self, slots: List[int]) -> List[object]:
        """Copies of the rows in ``slots``, refused as
        :func:`~repro.storage.page.decode_slots` refuses them."""
        offsets, rows = self.offsets, self.rows
        nslots = len(offsets)
        if len(rows) != nslots:  # tombstones: map slots to row indices
            live = [slot for slot, offset in enumerate(offsets) if offset]
            rows = dict(zip(live, rows))
        picked = []
        for slot in slots:
            if not 0 <= slot < nslots:
                raise PageError(f"slot {slot} out of range [0, {nslots})")
            if offsets[slot] == 0:
                raise PageError(f"slot {slot} is deleted")
            picked.append(rows[slot])
        return self.copy(picked)


class _Frame:
    __slots__ = ("index", "page_id", "data", "pin_count", "dirty",
                 "referenced", "rec_lsn", "decoded")

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
        #: The rows of the frame's bytes as last decoded whole, or None.
        self.decoded: Optional[_Decoded] = None


class BufferPool:
    """Caches ``capacity`` pages of a :class:`DiskManager`."""

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.page_size = disk.page_size
        self.capacity = capacity
        self._frames: List[_Frame] = [
            _Frame(i, disk.page_size) for i in range(capacity)
        ]
        self._table: Dict[int, int] = {}  # page_id -> frame index
        #: Indices of frames holding no page, popped before any eviction.
        self._free_frames: List[int] = list(range(capacity - 1, -1, -1))
        self._hand = 0
        self._lock = threading.RLock()
        #: page_id -> mutation stamp (see module docstring).
        self._page_versions: Dict[int, int] = {}
        self._version_clock = 0
        self.wal = None
        #: thread ident -> that thread's active DirtyTracker.
        self._trackers: Dict[int, DirtyTracker] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Whole-page decodes run, and reads served by a kept decode.
        self.pages_decoded = 0
        self.decoded_hits = 0
        #: Pages a bulk scan read around the pool, into its own buffer.
        self.bulk_released = 0
        #: Pages one scan reads before its misses take no frame.
        self.bulk_after = capacity // BULK_READ_SHARE
        disk.free_list_reader = self._read_free_pointer

    # -- statement tracking and WAL wiring -----------------------------------

    def attach_wal(self, wal) -> None:
        """Enforce the WAL-before-flush rule for every dirty write-back."""
        self.wal = wal

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
        """Attribute a freshly dirtied frame to its statement (lock
        held); with a WAL, the frame stays unevictable until logged."""
        tracker = self._trackers.get(threading.get_ident())
        if tracker is not None:
            tracker.pages[frame.page_id] = None
        if self.wal is not None:
            frame.rec_lsn = PENDING

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
                frame.decoded = None
                try:
                    self.disk.read_into(page_id, frame.data)
                except BaseException:
                    # The frame holds no page yet: hand it back rather
                    # than leave it unmapped and owned by nobody.
                    self._free_frames.append(frame.index)
                    raise
                frame.page_id = page_id
                self._table[page_id] = frame.index
            frame.pin_count += 1
            frame.referenced = True
            return frame.data

    def new_page(self) -> tuple:
        """Allocate a fresh page, pinned; returns (page_id, bytes)."""
        # Allocate before taking the pool lock: the disk manager
        # rendezvouses with commit publishes on its publish lock, and
        # a publisher already holds it while touching pool state —
        # taking it under the pool lock would deadlock.  The
        # returned id is exclusively ours either way (popped off the
        # free list or beyond every other statement's reach), so the
        # frame installation below needs no allocation atomicity.
        page_id = self.disk.allocate_page()
        with self._lock:
            index = self._table.get(page_id)
            if index is not None:
                # A page popped off the free list was just read through
                # the pool for its chain pointer: reuse its frame.
                frame = self._frames[index]
            else:
                frame = self._grab_frame()
                frame.page_id = page_id
                self._table[page_id] = frame.index
            frame.data[:] = bytes(self.disk.page_size)
            frame.decoded = None
            frame.dirty = True
            frame.pin_count += 1
            frame.referenced = True
            self._bump_version(page_id)
            self._note_dirty(frame)
            return page_id, frame.data

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._lock:
            index = self._table.get(page_id)
            if index is None:
                raise BufferPoolError(f"page {page_id} is not resident")
            frame = self._frames[index]
            if frame.pin_count <= 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.decoded = None
                frame.dirty = True
                self._bump_version(page_id)
                self._note_dirty(frame)

    def _bump_version(self, page_id: int) -> None:
        self._version_clock += 1
        self._page_versions[page_id] = self._version_clock

    def page_version(self, page_id: int) -> int:
        """Mutation stamp for a page (0 = never dirtied via this pool)."""
        with self._lock:
            return self._page_versions.get(page_id, 0)

    # -- decoded reads -------------------------------------------------------

    def _kept(self, page_id: int, decode: Decoder) -> Optional[_Decoded]:
        """The page's kept decode by ``decode``, counted as a fetch and a
        hit, or None (lock held)."""
        index = self._table.get(page_id)
        if index is None:
            return None
        frame = self._frames[index]
        kept = frame.decoded
        if kept is None or kept.decode != decode:
            return None
        self.hits += 1
        self.decoded_hits += 1
        frame.referenced = True
        return kept

    def read_decoded(
        self, page_id: int, decode: Decoder, scanned: int,
        buffer: bytearray,
    ) -> Tuple[int, Tuple[int, ...], List[object]]:
        """``(next_page, offsets, rows)`` of one heap page, as
        :func:`~repro.storage.page.decode_records` gives them, with rows
        the caller owns.  ``scanned`` is how many pages the calling scan
        has read before this one and ``buffer`` its own page buffer:
        past :attr:`bulk_after`, a page it misses is read into
        ``buffer`` and decoded there, taking no frame and keeping no
        rows."""
        with self._lock:
            kept = self._kept(page_id, decode)
            if kept is not None:
                return kept.hand_out()
            bulk = scanned >= self.bulk_after and page_id not in self._table
            if bulk:
                self.disk.read_into(page_id, buffer)
                self.misses += 1
                self.pages_decoded += 1
                self.bulk_released += 1
            else:
                data = self.fetch(page_id)
                frame = self._frames[self._table[page_id]]
                version = self._page_versions.get(page_id, 0)
        if bulk:
            return decode_records(buffer, decode, page_id)
        try:
            page = decode_records(data, decode, page_id)
        except BaseException:
            self.unpin(page_id)
            raise
        with self._lock:
            self.unpin(page_id)
            self.pages_decoded += 1
            if self._page_versions.get(page_id, 0) != version:
                return page  # written while decoding: keep nothing
            kept = frame.decoded = _Decoded(decode, row_copier(decode), page)
        return kept.hand_out()

    def read_slots(
        self, page_id: int, slots: List[int], decode: Decoder
    ) -> List[object]:
        """The rows of ``slots`` on one heap page, in the order given, as
        :func:`~repro.storage.page.decode_slots` gives them: copied from
        a kept decode when there is one, else decoded from the frame
        (only those records, and nothing is kept)."""
        with self._lock:
            kept = self._kept(page_id, decode)
            if kept is not None:
                return kept.pick(slots)
            data = self.fetch(page_id)
        try:
            return decode_slots(data, slots, decode, page_id)
        finally:
            self.unpin(page_id)

    def stats(self) -> Dict[str, int]:
        """The pool's counters (``db.stats()["storage"]``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pages_decoded": self.pages_decoded,
                "decoded_hits": self.decoded_hits,
                "bulk_released": self.bulk_released,
            }

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
        """Return a page to the free list when the statement publishes.

        Only *buffers* the free in the statement's tracker — the shared
        free list must not reflect an unpublished statement (a
        concurrent committer captures ``disk.geometry()`` in its commit
        record, and a concurrent allocator must never be handed a page
        whose free is not yet durable).  The chain-pointer writes happen
        at publish time (:meth:`publish_frees`), under the commit lock,
        in the same WAL batch as the commit record when there is a log.
        """
        tracker = self.current_tracker()
        if tracker is None:
            raise BufferPoolError(
                f"free of page {page_id} outside a tracked write "
                f"statement (the free could never be published)"
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
        """Free-list traversal for the disk manager: the freed page's
        latest bytes may be an unflushed frame."""
        with self.pinned(page_id) as data:
            (next_free,) = struct.unpack_from("<I", data, 0)
            return next_free

    # -- write-back -------------------------------------------------------------

    def flush_all(self) -> None:
        with self._lock:
            for frame in self._frames:
                if (frame.page_id is not None and frame.dirty
                        and self._writable(frame)):
                    self.disk.write_page(frame.page_id, bytes(frame.data))
                    frame.dirty = False

    def close(self) -> None:
        """Free every frame now; a closed pool refuses to fetch or
        allocate.  The owner has flushed or abandoned the pages first.
        The disk's reference back to the pool goes too, so the pair is
        freed with its owner, not at the next full garbage collection."""
        with self._lock:
            for frame in self._frames:
                frame.decoded = None
            self._frames = []
            self._free_frames = []
            self._table.clear()
        self.disk.free_list_reader = None

    # -- replacement --------------------------------------------------------------

    def _grab_frame(self) -> _Frame:
        """Find a free frame or evict with the clock algorithm; either
        way the frame returned holds no page and is clean."""
        if self._free_frames:
            return self._frames[self._free_frames.pop()]
        if not self._frames:
            raise BufferPoolError("the buffer pool is closed")
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
            frame.decoded = None
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
