"""Large-object (LOB) storage.

The paper's workloads revolve around big attribute values — 10,000-byte
benchmark bytearrays, images for ``REDNESS``, time series for
``InvestVal`` — which do not fit a slotted page.  Values above the SQL
layer's inline threshold are stored here as a chain of dedicated pages,
and the record holds only a small :class:`LOBRef`.

Crucially for the paper's callback experiments, :meth:`LOBManager.read_range`
serves *partial* reads: a UDF holding a handle can ask for pixel ranges
through ``cb_lob_read`` without the server materializing the whole
object (the Clip()/Lookup() pattern of Section 5.5).

Page layout::

    [next_page u32][used u16]  header (6 bytes)
    payload bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Tuple

from ..errors import StorageError
from .buffer import BufferPool
from .disk import NO_PAGE

_LOB_HEADER = struct.Struct("<IH")
LOB_HEADER_SIZE = _LOB_HEADER.size


@dataclass(frozen=True)
class LOBRef:
    """Pointer to a stored large object (what the record actually holds)."""

    first_page: int
    length: int


class LOBManager:
    """Reads and writes page-chained large objects."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.payload = pool.disk.page_size - LOB_HEADER_SIZE

    # -- write ------------------------------------------------------------

    def write(self, data: bytes) -> LOBRef:
        """Store ``data``; returns its reference.

        Zero-length objects still get one page so the reference always
        points at something readable.
        """
        first_page = NO_PAGE
        prev_page = NO_PAGE
        offset = 0
        total = len(data)
        while True:
            chunk = data[offset:offset + self.payload]
            page_id, page = self.pool.new_page()
            _LOB_HEADER.pack_into(page, 0, NO_PAGE, len(chunk))
            page[LOB_HEADER_SIZE:LOB_HEADER_SIZE + len(chunk)] = chunk
            self.pool.unpin(page_id, dirty=True)
            if first_page == NO_PAGE:
                first_page = page_id
            if prev_page != NO_PAGE:
                with self.pool.pinned(prev_page, dirty=True) as prev:
                    struct.pack_into("<I", prev, 0, page_id)
            prev_page = page_id
            offset += len(chunk)
            if offset >= total:
                break
        return LOBRef(first_page=first_page, length=total)

    # -- read ----------------------------------------------------------------

    def _chunks(self, ref: LOBRef) -> Iterator[Tuple[int, bytes]]:
        """Yield (object_offset, chunk bytes) for each page of the chain."""
        pool = self.pool
        page_id = ref.first_page
        offset = 0
        while page_id != NO_PAGE:
            page = pool.fetch(page_id)
            try:
                next_page, used = _LOB_HEADER.unpack_from(page, 0)
                chunk = bytes(page[LOB_HEADER_SIZE:LOB_HEADER_SIZE + used])
            finally:
                pool.unpin(page_id)
            yield offset, chunk
            offset += len(chunk)
            page_id = next_page

    def read(self, ref: LOBRef) -> bytes:
        parts = [chunk for __, chunk in self._chunks(ref)]
        data = b"".join(parts)
        if len(data) != ref.length:
            raise StorageError(
                f"LOB at page {ref.first_page} has {len(data)} bytes, "
                f"reference says {ref.length}"
            )
        return data

    def read_range(self, ref: LOBRef, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (clamped to end)."""
        if offset < 0 or length < 0:
            raise StorageError("negative offset/length in LOB range read")
        end = min(offset + length, ref.length)
        if offset >= end:
            return b""
        parts = []
        for chunk_offset, chunk in self._chunks(ref):
            chunk_end = chunk_offset + len(chunk)
            if chunk_end <= offset:
                continue
            if chunk_offset >= end:
                break
            lo = max(offset - chunk_offset, 0)
            hi = min(end - chunk_offset, len(chunk))
            parts.append(chunk[lo:hi])
        return b"".join(parts)

    def free(self, ref: LOBRef) -> None:
        page_id = ref.first_page
        while page_id != NO_PAGE:
            with self.pool.pinned(page_id) as page:
                (next_page,) = struct.unpack_from("<I", page, 0)
            self.pool.free_page(page_id)
            page_id = next_page

    # -- handle view -------------------------------------------------------------

    def handle(self, ref: LOBRef) -> "LOBHandle":
        return LOBHandle(self, ref)


class LOBHandle:
    """Callback-friendly view of one LOB (duck-typed for the broker)."""

    def __init__(self, manager: LOBManager, ref: LOBRef):
        self._manager = manager
        self.ref = ref

    def length(self) -> int:
        return self.ref.length

    def read_range(self, offset: int, length: int) -> bytes:
        return self._manager.read_range(self.ref, offset, length)

    def read_all(self) -> bytes:
        return self._manager.read(self.ref)
