"""Slotted pages.

The classic layout: a small header, a slot directory growing forward,
and record bytes growing backward from the end of the page.  Deleting a
record tombstones its slot (so RIDs stay stable) and the space is
reclaimed by :meth:`SlottedPage.compact` when an insert would otherwise
fail on a fragmented page.

Layout::

    [next_page u32][nslots u16][free_end u16]   header (8 bytes)
    [offset u16, length u16] * nslots           slot directory
    ... free space ...
    record bytes (allocated high-to-low)

``offset == 0`` marks a tombstone (no live record starts inside the
header, so 0 is never a valid offset).

Note there is deliberately **no on-page LSN field**: the write-ahead log
(:mod:`repro.storage.wal`) logs *full page images*, so redo never needs
to compare a page's progress against a log record — replaying a
committed prefix overwrites pages wholesale and is idempotent.  The
"page LSN" the WAL rule needs (no dirty page reaches the data file
before its image is durable in the log) is therefore *frame* metadata,
tracked per buffer-pool frame (``rec_lsn`` in
:class:`~repro.storage.buffer.BufferPool`), and the seed's on-page
layout is preserved bit for bit.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, List, Optional, Tuple

from ..errors import PageError
from .disk import NO_PAGE

HEADER_SIZE = 8
SLOT_SIZE = 4
_HEADER = struct.Struct("<IHH")
_SLOT = struct.Struct("<HH")

#: ``decode(page_bytes, start, end)``: reads one record in place.
Decoder = Callable[[bytearray, int, int], object]


def copy_record(data: bytearray, start: int, end: int) -> bytes:
    """The decoder that copies a record's bytes out of the page."""
    return bytes(data[start:end])


@functools.lru_cache(maxsize=256)
def _directory(nslots: int) -> struct.Struct:
    return struct.Struct(f"<{2 * nslots}H")


def decode_records(
    data: bytearray, decode: Decoder
) -> Tuple[int, Tuple[int, ...], List[object]]:
    """Decode every live record of a page, in slot order, in place.

    One unpack reads the header and one the whole slot directory; each
    live record is handed to ``decode`` as its extent in ``data``, so
    nothing is copied unless ``decode`` copies.  Returns ``(next_page,
    offsets, rows)``: ``offsets`` is the directory's offset per slot
    (0 marks a tombstone), so ``rows`` lines up with its nonzero
    entries.
    """
    next_page, nslots, __ = _HEADER.unpack_from(data, 0)
    directory = _directory(nslots).unpack_from(data, HEADER_SIZE)
    offsets = directory[0::2]
    rows = [
        decode(data, offset, offset + length)
        for offset, length in zip(offsets, directory[1::2])
        if offset
    ]
    return next_page, offsets, rows


class SlottedPage:
    """A mutable view over one page's bytes.

    The page object wraps (and mutates) a ``bytearray`` owned by a
    buffer-pool frame, so changes are visible to the pool immediately;
    callers still must mark the frame dirty.
    """

    def __init__(self, data: bytearray):
        if not isinstance(data, bytearray):
            raise PageError("SlottedPage needs a mutable bytearray")
        self.data = data
        self.page_size = len(data)

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialize a fresh page in-place."""
        page = cls(data)
        _HEADER.pack_into(data, 0, NO_PAGE, 0, len(data))
        return page

    # -- header fields ------------------------------------------------------

    @property
    def next_page(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @next_page.setter
    def next_page(self, page_id: int) -> None:
        struct.pack_into("<I", self.data, 0, page_id)

    @property
    def num_slots(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[1]

    def _set_num_slots(self, n: int) -> None:
        struct.pack_into("<H", self.data, 4, n)

    @property
    def _free_end(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[2]

    def _set_free_end(self, offset: int) -> None:
        struct.pack_into("<H", self.data, 6, offset)

    # -- slots ---------------------------------------------------------------

    def _slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.num_slots:
            raise PageError(f"slot {slot} out of range [0, {self.num_slots})")
        return _SLOT.unpack_from(self.data, HEADER_SIZE + slot * SLOT_SIZE)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, HEADER_SIZE + slot * SLOT_SIZE, offset, length)

    @property
    def free_space(self) -> int:
        """Bytes available for a new record *including* its slot entry."""
        directory_end = HEADER_SIZE + self.num_slots * SLOT_SIZE
        return self._free_end - directory_end

    def _find_tombstone(self) -> Optional[int]:
        for slot in range(self.num_slots):
            offset, __ = self._slot(slot)
            if offset == 0:
                return slot
        return None

    # -- record operations ---------------------------------------------------------

    def insert(self, record: bytes) -> Optional[int]:
        """Insert a record; returns its slot, or None if it cannot fit.

        Tries compaction before giving up, so fragmentation from deletes
        does not permanently waste the page.
        """
        if len(record) > self.page_size - HEADER_SIZE - SLOT_SIZE:
            raise PageError(
                f"record of {len(record)} bytes cannot fit in any page"
            )
        reuse = self._find_tombstone()
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if self.free_space < needed:
            self.compact()
            if self.free_space < needed:
                return None
        offset = self._free_end - len(record)
        self.data[offset:offset + len(record)] = record
        self._set_free_end(offset)
        if reuse is not None:
            slot = reuse
        else:
            slot = self.num_slots
            self._set_num_slots(slot + 1)
        self._set_slot(slot, offset, len(record))
        return slot

    def get(self, slot: int, decode: Decoder = copy_record):
        """``decode`` of the record in ``slot`` (by default its bytes)."""
        offset, length = self._slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is deleted")
        return decode(self.data, offset, offset + length)

    def delete(self, slot: int) -> None:
        offset, __ = self._slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is already deleted")
        self._set_slot(slot, 0, 0)

    def update(self, slot: int, record: bytes) -> bool:
        """Replace a record in place; False if the new bytes do not fit.

        A shrinking update always succeeds; a growing one succeeds when
        the page (possibly after compaction) has room.  RIDs are stable
        either way.
        """
        offset, length = self._slot(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is deleted")
        if len(record) <= length:
            new_offset = offset + (length - len(record))
            self.data[new_offset:new_offset + len(record)] = record
            self._set_slot(slot, new_offset, len(record))
            return True
        # Grow: tombstone temporarily, try to place the longer record.
        self._set_slot(slot, 0, 0)
        if self.free_space < len(record):
            self.compact()
        if self.free_space < len(record):
            self._set_slot(slot, offset, length)  # restore
            return False
        new_offset = self._free_end - len(record)
        self.data[new_offset:new_offset + len(record)] = record
        self._set_free_end(new_offset)
        self._set_slot(slot, new_offset, len(record))
        return True

    def compact(self) -> None:
        """Slide live records to the end of the page, squeezing out the
        holes left by deletes and shrinking updates."""
        live = []
        for slot in range(self.num_slots):
            offset, length = self._slot(slot)
            if offset != 0:
                live.append((slot, bytes(self.data[offset:offset + length])))
        end = self.page_size
        for slot, record in live:
            end -= len(record)
            self.data[end:end + len(record)] = record
            self._set_slot(slot, end, len(record))
        self._set_free_end(end)
