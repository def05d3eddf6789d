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
:meth:`~repro.storage.record.RecordCodec.decode`) and run it on each
record in place, under the page's pin: :meth:`HeapFile.scan_rows` hands
back a page's rows at a time and builds no :class:`RID`;
:meth:`HeapFile.scan` pairs each row with its RID for the statements
that write back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import StorageError
from .buffer import BufferPool
from .disk import NO_PAGE
from .page import (
    HEADER_SIZE,
    SLOT_SIZE,
    Decoder,
    SlottedPage,
    copy_record,
    decode_records,
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
        with self.pool.pinned(rid.page_id) as data:
            return SlottedPage(data).get(rid.slot, decode)

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
        page_id = self.first_page
        while page_id != NO_PAGE:
            with self.pool.pinned(page_id) as data:
                next_page = SlottedPage(data).next_page
            yield page_id
            page_id = next_page

    def _decoded_pages(
        self, decode: Decoder
    ) -> Iterator[Tuple[int, Tuple[int, ...], List[object]]]:
        page_id = self.first_page
        while page_id != NO_PAGE:
            with self.pool.pinned(page_id) as data:
                next_page, offsets, rows = decode_records(data, decode)
            yield page_id, offsets, rows
            page_id = next_page

    def scan_rows(self, decode: Decoder) -> Iterator[List[object]]:
        """Every live record, decoded in place, one page's rows at a
        time in storage order (one pin per page, no RIDs)."""
        for __, __, rows in self._decoded_pages(decode):
            yield rows

    def scan(
        self, decode: Decoder = copy_record
    ) -> Iterator[Tuple[RID, object]]:
        """Yield ``(rid, decoded record)`` for every live record in
        storage order (one pin per page)."""
        for page_id, offsets, rows in self._decoded_pages(decode):
            live = [slot for slot, offset in enumerate(offsets) if offset]
            for slot, row in zip(live, rows):
                yield RID(page_id, slot), row

    def count(self) -> int:
        return sum(1 for __ in self.scan())

    def drop(self) -> None:
        """Free every page of the file."""
        page_ids = list(self.pages())
        for page_id in page_ids:
            self.pool.free_page(page_id)
