"""Heap files: unordered record storage over chained slotted pages.

A heap file is a linked list of slotted pages.  Records are addressed by
RID ``(page_id, slot)``; RIDs are stable across in-place updates and
page compaction.  Inserts go to a cached tail page and append a new
page to the chain when full — the right trade-off for the append-heavy
relations the paper's experiments build.

A table has exactly one handle, owned by its catalog entry
(:class:`~repro.storage.catalog.TableInfo`), so the tail is found at
most once per table per process: opening a handle does no I/O, the
first insert walks the chain once, and every insert after that keeps
the cached tail current.  The tail is read and written only by
``insert``, which callers run under the table's write lock.

Reads take a ``decode(page_bytes, start, end)`` callable (a table's
:meth:`~repro.storage.record.RecordCodec.decode`) and get rows back
from the page source, never bytes: :meth:`HeapFile.scan_rows` hands
back a page's rows at a time and builds no :class:`RID` unless asked to
end each row with one (``with_rids``, for UPDATE and DELETE);
:meth:`HeapFile.scan` pairs each row with its RID;
:meth:`HeapFile.read_runs` reads the records of RIDs in key order, one
pool read per run of RIDs on the same page (an index range).  The one
read path is the source's ``read_decoded`` (a whole page, for scans) and
``read_slots`` (some records of a page): the buffer pool keeps each
resident page's decoded rows and hands out copies, and a scan past a
quarter of the pool reads the pages it misses into a page buffer of its
own, taking no frame, so it does not evict the hot pages (see
:mod:`repro.storage.buffer`).  Every row a read returns belongs to its
caller.  No read holds a pin across a ``yield``, so a snapshot's frozen
:class:`~repro.storage.mvcc.TableImage`, which decodes its frozen bytes
on every read, serves as the source of a read-only handle
(``TableImage.heap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import StorageError
from .buffer import BufferPool
from .disk import NO_PAGE
from .page import (
    HEADER_SIZE,
    SLOT_SIZE,
    Decoder,
    SlottedPage,
    copy_record,
    next_page_of,
)


@dataclass(frozen=True, order=True)
class RID:
    """Record identifier: page id + slot within the page."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_id}:{self.slot})"


class HeapFile:
    """An unordered file of records."""

    def __init__(self, pool: BufferPool, first_page: int):
        self.pool = pool
        self.first_page = first_page
        #: Cached tail page; None until the first insert finds it.
        self._last_page: Optional[int] = None

    @classmethod
    def create(cls, pool: BufferPool) -> "HeapFile":
        page_id, data = pool.new_page()
        SlottedPage.format(data)
        pool.unpin(page_id, dirty=True)
        heap = cls(pool, page_id)
        heap._last_page = page_id
        return heap

    def max_record_size(self) -> int:
        return self.pool.disk.page_size - HEADER_SIZE - SLOT_SIZE

    def _find_last_page(self) -> int:
        for page_id in self.pages():
            pass
        return page_id

    # -- mutation -------------------------------------------------------------

    def insert(self, record: bytes) -> RID:
        """Append a record; returns its RID."""
        if len(record) > self.max_record_size():
            raise StorageError(
                f"record of {len(record)} bytes exceeds page capacity "
                f"({self.max_record_size()}); store large values as LOBs"
            )
        if self._last_page is None:
            self._last_page = self._find_last_page()
        data = self.pool.fetch(self._last_page)
        try:
            page = SlottedPage(data)
            slot = page.insert(record)
            if slot is not None:
                return RID(self._last_page, slot)
            if page.next_page != NO_PAGE:
                # Chaining here would cut off the pages behind it.
                raise StorageError(
                    f"heap tail {self._last_page} is stale: another "
                    f"handle extended the chain of page {self.first_page}"
                )
        finally:
            self.pool.unpin(self._last_page, dirty=True)
        # Tail page full: chain a new one.
        new_id, new_data = self.pool.new_page()
        try:
            SlottedPage.format(new_data)
            slot = SlottedPage(new_data).insert(record)
            assert slot is not None, "fresh page rejected a fitting record"
        finally:
            self.pool.unpin(new_id, dirty=True)
        with self.pool.pinned(self._last_page, dirty=True) as data:
            SlottedPage(data).next_page = new_id
        self._last_page = new_id
        return RID(new_id, slot)

    def get(self, rid: RID, decode: Decoder = copy_record):
        return self._read_slots(rid.page_id, [rid.slot], decode)[0]

    def _read_slots(
        self, page_id: int, slots: List[int], decode: Decoder,
        with_rids: bool = False,
    ) -> List[object]:
        rows = self.pool.read_slots(page_id, slots, decode)
        if with_rids:
            for row, slot in zip(rows, slots):
                row.append(RID(page_id, slot))
        return rows

    def delete(self, rid: RID) -> None:
        with self.pool.pinned(rid.page_id, dirty=True) as data:
            SlottedPage(data).delete(rid.slot)

    def update(self, rid: RID, record: bytes) -> RID:
        """Update in place when possible; otherwise move the record.

        Returns the (possibly new) RID.
        """
        if len(record) > self.max_record_size():
            raise StorageError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        with self.pool.pinned(rid.page_id, dirty=True) as data:
            if SlottedPage(data).update(rid.slot, record):
                return rid
            SlottedPage(data).delete(rid.slot)
        return self.insert(record)

    # -- scanning ----------------------------------------------------------------

    def pages(self) -> Iterator[int]:
        pool = self.pool
        page_id = self.first_page
        while page_id != NO_PAGE:
            data = pool.fetch(page_id)
            try:
                next_page = next_page_of(data)
            finally:
                pool.unpin(page_id)
            yield page_id
            page_id = next_page

    def _decoded_pages(
        self, decode: Decoder
    ) -> Iterator[Tuple[int, Tuple[int, ...], List[object]]]:
        read_decoded = self.pool.read_decoded
        page_id, scanned = self.first_page, 0
        buffer = bytearray(self.pool.page_size)  # this scan's own page
        while page_id != NO_PAGE:
            next_page, offsets, rows = read_decoded(
                page_id, decode, scanned, buffer)
            scanned += 1
            yield page_id, offsets, rows
            page_id = next_page

    def scan_rows(
        self, decode: Decoder, with_rids: bool = False
    ) -> Iterator[List[object]]:
        """Every live record, decoded, one page's rows at a time in
        storage order (one pool read per page); ``with_rids`` ends each
        row (a list) with its RID, else no RID is built."""
        for page_id, offsets, rows in self._decoded_pages(decode):
            if with_rids:
                live = (slot for slot, offset in enumerate(offsets) if offset)
                for row, slot in zip(rows, live):
                    row.append(RID(page_id, slot))
            yield rows

    def scan(
        self, decode: Decoder = copy_record
    ) -> Iterator[Tuple[RID, object]]:
        """Yield ``(rid, decoded record)`` for every live record in
        storage order (one pool read per page)."""
        for page_id, offsets, rows in self._decoded_pages(decode):
            live = [slot for slot, offset in enumerate(offsets) if offset]
            for slot, row in zip(live, rows):
                yield RID(page_id, slot), row

    def read_runs(
        self, rids: Iterable[RID], decode: Decoder = copy_record,
        with_rids: bool = False,
    ) -> Iterator[List[object]]:
        """The records of ``rids`` in the order given, one list of rows
        per run of consecutive RIDs on the same page: each run is one
        pool read (the page's kept rows, or one slot-directory unpack and
        a decode of the run's records).  A page that recurs later in
        ``rids`` starts a new run, so the order is kept.  ``with_rids``
        is as for :meth:`scan_rows`."""
        run_page, slots = NO_PAGE, []
        for rid in rids:
            if rid.page_id != run_page:
                if slots:
                    yield self._read_slots(run_page, slots, decode, with_rids)
                run_page, slots = rid.page_id, []
            slots.append(rid.slot)
        if slots:
            yield self._read_slots(run_page, slots, decode, with_rids)

    def count(self) -> int:
        return sum(1 for __ in self.scan())

    def drop(self) -> None:
        """Free every page of the file."""
        page_ids = list(self.pages())
        for page_id in page_ids:
            self.pool.free_page(page_id)
