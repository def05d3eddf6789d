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
import struct
from typing import Iterator, List, Optional, Tuple

from ..errors import IndexError_
from .buffer import BufferPool
from .disk import NO_PAGE
from .heapfile import RID

_NODE_HEADER = struct.Struct("<BBHI")
NODE_HEADER_SIZE = _NODE_HEADER.size
_LEAF_ENTRY = struct.Struct("<qIH")
LEAF_ENTRY_SIZE = _LEAF_ENTRY.size
_KEY = struct.Struct("<q")
_CHILD = struct.Struct("<I")


class _Node:
    """Decoded node contents (encoded back after mutation)."""

    __slots__ = ("is_leaf", "next_leaf", "keys", "rids", "children")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.next_leaf = NO_PAGE
        self.keys: List[int] = []
        self.rids: List[RID] = []       # leaves only
        self.children: List[int] = []   # internal only

    @classmethod
    def decode(cls, data: bytes) -> "_Node":
        is_leaf, __, nkeys, next_ = _NODE_HEADER.unpack_from(data, 0)
        node = cls(is_leaf=bool(is_leaf))
        node.next_leaf = next_
        pos = NODE_HEADER_SIZE
        if node.is_leaf:
            for __ in range(nkeys):
                key, page, slot = _LEAF_ENTRY.unpack_from(data, pos)
                node.keys.append(key)
                node.rids.append(RID(page, slot))
                pos += LEAF_ENTRY_SIZE
        else:
            for __ in range(nkeys + 1):
                node.children.append(_CHILD.unpack_from(data, pos)[0])
                pos += 4
            for __ in range(nkeys):
                node.keys.append(_KEY.unpack_from(data, pos)[0])
                pos += 8
        return node

    def encode(self, page_size: int) -> bytes:
        out = bytearray(page_size)
        _NODE_HEADER.pack_into(
            out, 0, int(self.is_leaf), 0, len(self.keys), self.next_leaf
        )
        pos = NODE_HEADER_SIZE
        if self.is_leaf:
            for key, rid in zip(self.keys, self.rids):
                _LEAF_ENTRY.pack_into(out, pos, key, rid.page_id, rid.slot)
                pos += LEAF_ENTRY_SIZE
        else:
            for child in self.children:
                _CHILD.pack_into(out, pos, child)
                pos += 4
            for key in self.keys:
                _KEY.pack_into(out, pos, key)
                pos += 8
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
            return _Node.decode(bytes(data))

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
        while True:
            for key, rid in zip(node.keys, node.rids):
                if lo is not None and key < lo:
                    continue
                if hi is not None and key > hi:
                    return
                yield key, rid
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
            node.rids.insert(index, rid)
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
        right.rids = node.rids[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.rids = node.rids[:mid]
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
        while True:
            for index, (entry_key, entry_rid) in enumerate(
                zip(node.keys, node.rids)
            ):
                if entry_key > key:
                    return False
                if entry_key == key and entry_rid == rid:
                    del node.keys[index]
                    del node.rids[index]
                    self._write(page_id, node)
                    return True
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
            if len(node.keys) != len(node.rids):
                raise IndexError_(f"leaf {page_id} keys/rids mismatch")
            return
        if len(node.children) != len(node.keys) + 1:
            raise IndexError_(f"internal {page_id} fanout mismatch")
        bounds = [lo] + list(node.keys) + [hi]
        for index, child in enumerate(node.children):
            self._check_node(child, bounds[index], bounds[index + 1])
