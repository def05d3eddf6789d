"""Disk-backed B+-tree index (int64 keys -> RIDs).

PREDATOR sat on Shore, which supplied B-tree access methods; the SQL
layer here uses this index for equality and range predicates on integer
keys.  Duplicate keys are allowed (entries are unique on (key, rid)).

Node layout (one page per node)::

    [u8 is_leaf][u8 pad][u16 nkeys][u32 next]   header (8 bytes)
    leaf:      (key i64, page u32, slot u16) * nkeys    -- 14 bytes each
    internal:  child u32 * (nkeys + 1), then key i64 * nkeys

Internal node semantics: ``child[i]`` holds keys < ``key[i]``;
``child[nkeys]`` holds keys >= ``key[nkeys-1]`` (right-biased split).

Deletion is by tombstone-free removal from the leaf without rebalancing
(underflow is tolerated); this trades some space for a lot of
simplicity, and is documented behaviour.
"""

from __future__ import annotations

import bisect
import functools
import struct
from typing import Iterator, List, Optional, Tuple

from ..errors import IndexError_
from .buffer import BufferPool
from .disk import NO_PAGE
from .heapfile import RID

_NODE_HEADER = struct.Struct("<BBHI")
NODE_HEADER_SIZE = _NODE_HEADER.size
LEAF_ENTRY_SIZE = struct.calcsize("<qIH")


@functools.lru_cache(maxsize=8)
def _leaf_entries(count: int) -> struct.Struct:
    """All of a leaf's entries as one unpack.  Only a few leaf sizes are
    hot at a time, and a full leaf's struct costs ~27 KB at 4 KiB pages,
    so few are kept."""
    return struct.Struct("<" + "qIH" * count)


@functools.lru_cache(maxsize=64)
def _internal_fields(count: int) -> struct.Struct:
    return struct.Struct(f"<{count + 1}I{count}q")


class _Node:
    """Decoded node contents (encoded back after mutation).

    A leaf keeps its entries as three parallel lists; a :class:`RID` is
    built only for an entry a scan returns or a mutation compares.
    """

    __slots__ = ("is_leaf", "next_leaf", "keys", "pages", "slots",
                 "children")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.next_leaf = NO_PAGE
        self.keys: List[int] = []
        self.pages: List[int] = []      # leaves only: RID page ids
        self.slots: List[int] = []      # leaves only: RID slots
        self.children: List[int] = []   # internal only

    @classmethod
    def decode(cls, data: bytes) -> "_Node":
        is_leaf, __, nkeys, next_ = _NODE_HEADER.unpack_from(data, 0)
        node = cls(is_leaf=bool(is_leaf))
        node.next_leaf = next_
        if node.is_leaf:
            entries = _leaf_entries(nkeys).unpack_from(data, NODE_HEADER_SIZE)
            node.keys = list(entries[0::3])
            node.pages = list(entries[1::3])
            node.slots = list(entries[2::3])
        else:
            fields = _internal_fields(nkeys).unpack_from(
                data, NODE_HEADER_SIZE
            )
            node.children = list(fields[:nkeys + 1])
            node.keys = list(fields[nkeys + 1:])
        return node

    def encode(self, page_size: int) -> bytes:
        out = bytearray(page_size)
        nkeys = len(self.keys)
        _NODE_HEADER.pack_into(
            out, 0, int(self.is_leaf), 0, nkeys, self.next_leaf
        )
        if self.is_leaf:
            entries: List[int] = [0] * (3 * nkeys)
            entries[0::3] = self.keys
            entries[1::3] = self.pages
            entries[2::3] = self.slots
            _leaf_entries(nkeys).pack_into(out, NODE_HEADER_SIZE, *entries)
        else:
            _internal_fields(nkeys).pack_into(
                out, NODE_HEADER_SIZE, *self.children, *self.keys
            )
        return bytes(out)


class BPlusTree:
    """The index object; ``root_page`` may change on root splits."""

    def __init__(self, pool: BufferPool, root_page: int):
        self.pool = pool
        self.root_page = root_page
        page_size = pool.disk.page_size
        self.leaf_capacity = (page_size - NODE_HEADER_SIZE) // LEAF_ENTRY_SIZE
        self.internal_capacity = (page_size - NODE_HEADER_SIZE - 4) // 12
        if self.leaf_capacity < 3 or self.internal_capacity < 3:
            raise IndexError_("page size too small for a B+-tree node")

    @classmethod
    def create(cls, pool: BufferPool) -> "BPlusTree":
        page_id, data = pool.new_page()
        data[:] = _Node(is_leaf=True).encode(pool.disk.page_size)
        pool.unpin(page_id, dirty=True)
        return cls(pool, page_id)

    # -- node I/O ------------------------------------------------------------

    def _read(self, page_id: int) -> _Node:
        with self.pool.pinned(page_id) as data:
            return _Node.decode(data)

    def _write(self, page_id: int, node: _Node) -> None:
        with self.pool.pinned(page_id, dirty=True) as data:
            data[:] = node.encode(self.pool.disk.page_size)

    def _new_node(self, node: _Node) -> int:
        page_id, data = self.pool.new_page()
        data[:] = node.encode(self.pool.disk.page_size)
        self.pool.unpin(page_id, dirty=True)
        return page_id

    # -- search ------------------------------------------------------------------

    def _find_leaf(self, key: int) -> Tuple[int, _Node]:
        """Leftmost leaf that may contain ``key``.

        Descends with ``bisect_left`` because duplicates of a split key
        can remain in the left sibling; scans then walk right through
        the leaf chain.
        """
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            page_id = node.children[index]
            node = self._read(page_id)
        return page_id, node

    def search(self, key: int) -> List[RID]:
        """All RIDs stored under ``key``."""
        return [rid for __, rid in self.range_scan(key, key)]

    def range_scan(
        self, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> Iterator[Tuple[int, RID]]:
        """Yield (key, rid) with lo <= key <= hi, in key order."""
        if lo is not None and hi is not None and lo > hi:
            return
        if lo is None:
            page_id, node = self._leftmost_leaf()
        else:
            page_id, node = self._find_leaf(lo)
        index = 0 if lo is None else bisect.bisect_left(node.keys, lo)
        while True:
            keys, pages, slots = node.keys, node.pages, node.slots
            for index in range(index, len(keys)):
                key = keys[index]
                if hi is not None and key > hi:
                    return
                yield key, RID(pages[index], slots[index])
            index = 0
            if node.next_leaf == NO_PAGE:
                return
            page_id = node.next_leaf
            node = self._read(page_id)

    def _leftmost_leaf(self) -> Tuple[int, _Node]:
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            page_id = node.children[0]
            node = self._read(page_id)
        return page_id, node

    def items(self) -> Iterator[Tuple[int, RID]]:
        return self.range_scan(None, None)

    # -- insert --------------------------------------------------------------------

    def insert(self, key: int, rid: RID) -> None:
        split = self._insert(self.root_page, key, rid)
        if split is not None:
            split_key, right_page = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [split_key]
            new_root.children = [self.root_page, right_page]
            self.root_page = self._new_node(new_root)

    def _insert(
        self, page_id: int, key: int, rid: RID
    ) -> Optional[Tuple[int, int]]:
        node = self._read(page_id)
        if node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.pages.insert(index, rid.page_id)
            node.slots.insert(index, rid.slot)
            if len(node.keys) <= self.leaf_capacity:
                self._write(page_id, node)
                return None
            return self._split_leaf(page_id, node)
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, rid)
        if split is None:
            return None
        split_key, right_page = split
        node.keys.insert(index, split_key)
        node.children.insert(index + 1, right_page)
        if len(node.keys) <= self.internal_capacity:
            self._write(page_id, node)
            return None
        return self._split_internal(page_id, node)

    def _split_leaf(self, page_id: int, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.pages = node.pages[mid:]
        right.slots = node.slots[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.pages = node.pages[:mid]
        node.slots = node.slots[:mid]
        right_page = self._new_node(right)
        node.next_leaf = right_page
        self._write(page_id, node)
        return right.keys[0], right_page

    def _split_internal(self, page_id: int, node: _Node) -> Tuple[int, int]:
        mid = len(node.keys) // 2
        split_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        right_page = self._new_node(right)
        self._write(page_id, node)
        return split_key, right_page

    # -- delete -----------------------------------------------------------------------

    def delete(self, key: int, rid: RID) -> bool:
        """Remove one (key, rid) entry; False if it was not present.

        Leaves may underflow (no rebalancing) — acceptable for the
        workloads here and documented in the module docstring.
        """
        page_id, node = self._find_leaf(key)
        index = bisect.bisect_left(node.keys, key)
        while True:
            keys = node.keys
            for index in range(index, len(keys)):
                if keys[index] > key:
                    return False
                if (node.pages[index] == rid.page_id
                        and node.slots[index] == rid.slot):
                    del keys[index]
                    del node.pages[index]
                    del node.slots[index]
                    self._write(page_id, node)
                    return True
            index = 0
            if node.next_leaf == NO_PAGE:
                return False
            page_id = node.next_leaf
            node = self._read(page_id)

    # -- invariants (used by property tests) ---------------------------------------------

    def check_invariants(self) -> None:
        """Raise if structural invariants are violated."""
        self._check_node(self.root_page, None, None, is_root=True)
        keys = [key for key, __ in self.items()]
        if keys != sorted(keys):
            raise IndexError_("leaf chain is not sorted")

    def _check_node(
        self,
        page_id: int,
        lo: Optional[int],
        hi: Optional[int],
        is_root: bool = False,
    ) -> None:
        node = self._read(page_id)
        for key in node.keys:
            if lo is not None and key < lo:
                raise IndexError_(f"key {key} below subtree bound {lo}")
            if hi is not None and key > hi:
                raise IndexError_(f"key {key} above subtree bound {hi}")
        if node.keys != sorted(node.keys):
            raise IndexError_(f"node {page_id} keys not sorted")
        if node.is_leaf:
            if not len(node.keys) == len(node.pages) == len(node.slots):
                raise IndexError_(f"leaf {page_id} keys/rids mismatch")
            return
        if len(node.children) != len(node.keys) + 1:
            raise IndexError_(f"internal {page_id} fanout mismatch")
        bounds = [lo] + list(node.keys) + [hi]
        for index, child in enumerate(node.children):
            self._check_node(child, bounds[index], bounds[index + 1])
