"""Versioned snapshot reads: per-table epochs and copy-on-write images.

The server needs read-only SELECTs to run fully in parallel
with each other *and* with the single serialized writer, while producing
results bit-identical to a serial execution.  The mechanism here is a
small multi-version store over the existing heap files and B+-trees:

* Every table carries a **version** (epoch counter).  A write statement
  mutates the live heap and index pages under its table's write lock
  and then *installs* a new frozen image of the table — its heap chain
  plus every node of every index on it, copying only the pages whose
  :meth:`~repro.storage.buffer.BufferPool.page_version` mutation stamp
  changed, i.e. copy-on-write at page granularity — and bumps the
  version.  Installs run under the database commit lock (one publisher
  at a time, even with per-table writers), and the writer still holds
  its table lock, so an image is always a statement-consistent cut of
  that table.
* A read statement **pins a snapshot**: an immutable map of table →
  (version, frozen image) taken atomically under the manager lock.  An
  image is a read-only page source with the buffer pool's
  ``fetch(page_id)`` / ``unpin(page_id, dirty=False)`` protocol and its
  decoded reads (``read_decoded``/``read_slots``, which decode the
  frozen bytes each time and keep nothing), so the unchanged :class:`~repro.storage.heapfile.HeapFile` and
  :class:`~repro.storage.btree.BPlusTree` read code walks it directly:
  a snapshot ``IndexScan`` descends the frozen tree and reads only the
  records it returns, one fetch per run of them on a heap page.  Scans
  under a snapshot never touch the buffer pool, so readers cannot block
  on the writer (nor on each other) and always observe one consistent
  version per table — the one current when the statement was admitted.
* Old images are **retained** while any live snapshot pins them and
  garbage-collected on release; the current image doubles as the shared
  read cache for all snapshot readers.

Invariant: while the manager is enabled, ``image[current_version]``
exists for every table (built eagerly at :meth:`SnapshotManager.enable`,
re-installed after every write statement, and created on CREATE TABLE)
and holds the tree of every index the catalog names (CREATE INDEX
installs the new tree *before* the catalog names the index, and a
reader fixes its plan before it pins).  Readers therefore *never* build
images and never race the writer's page mutations.

Nothing here runs unless the manager is enabled (the server enables it
on start) — an embedded database reads live pages, and
``tests/storage/test_mvcc.py`` pins that enabling changes no result.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from ..errors import StorageError
from .btree import BPlusTree
from .heapfile import HeapFile
from .page import decode_records, decode_slots

#: ``page_id -> (mutation stamp, frozen page bytes)``.
Pages = Dict[int, Tuple[int, bytes]]


class TableImage:
    """A frozen, immutable copy of one table at a version: its heap
    chain and every node of every index on it.

    The image is a read-only page source: :meth:`fetch` hands out a
    frozen page (a private ``bytes`` copy, so nothing can write to it)
    and :meth:`unpin` refuses a dirty unpin, so ``heap`` (a
    :class:`HeapFile` over the image) and :meth:`root_of` (for a
    :class:`BPlusTree` over it) read the table as of the install with
    the live read code, and a mutation through it fails.  Each page
    keeps its mutation stamp, which lets the next install reuse
    unchanged pages by reference instead of copying them again.
    """

    __slots__ = ("version", "page_size", "pages", "roots", "heap", "pins")

    def __init__(self, version: int, page_size: int, first_page: int,
                 pages: Pages, roots: Dict[str, int]):
        self.version = version
        self.page_size = page_size
        self.pages = pages
        #: index name (lower-cased) -> its root page as of the install.
        self.roots = roots
        self.heap = HeapFile(self, first_page)
        #: Number of live snapshots pinning this image while it is
        #: retired (the *current* image is kept regardless of pins).
        self.pins = 0

    def fetch(self, page_id: int) -> bytes:
        try:
            return self.pages[page_id][1]
        except KeyError:
            raise StorageError(
                f"page {page_id} is not in the snapshot image"
            ) from None

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        if dirty:
            raise StorageError(
                f"page {page_id} of a snapshot image is read-only"
            )

    def read_decoded(self, page_id: int, decode, scanned: int, buffer):
        """:meth:`~repro.storage.buffer.BufferPool.read_decoded` over the
        frozen page: decoded afresh on every read, so the rows are the
        caller's (an image has no frames, so ``scanned`` and ``buffer``
        change nothing)."""
        return decode_records(self.fetch(page_id), decode, page_id)

    def read_slots(self, page_id: int, slots, decode):
        """:meth:`~repro.storage.buffer.BufferPool.read_slots` over the
        frozen page."""
        return decode_slots(self.fetch(page_id), slots, decode, page_id)

    def root_of(self, index) -> int:
        """The frozen root of ``index`` (an ``IndexInfo``)."""
        try:
            return self.roots[index.name.lower()]
        except KeyError:
            raise StorageError(
                f"snapshot image has no tree for index {index.name!r}"
            ) from None

    def page_count(self) -> int:
        return len(self.pages)


class _Capture:
    """The page source an install walks the live table through.

    Every page read through it is frozen into the new image: shared
    with the previous image when its mutation stamp has not moved,
    copied out of the pool otherwise.  Runs under the writing
    statement's table lock + the commit lock (install) or before any
    concurrency exists (enable), so the table cannot move underneath it.
    """

    def __init__(self, pool, previous: Optional[TableImage]):
        self.pool = pool
        self.page_size = pool.page_size
        self.reusable: Pages = previous.pages if previous is not None else {}
        self.pages: Pages = {}
        self.reused = 0

    def fetch(self, page_id: int) -> bytes:
        entry = self.pages.get(page_id)
        if entry is None:
            mutation = self.pool.page_version(page_id)
            entry = self.reusable.get(page_id)
            if entry is not None and entry[0] == mutation:
                self.reused += 1
            else:
                live = self.pool.fetch(page_id)
                try:
                    entry = (mutation, bytes(live))
                finally:
                    self.pool.unpin(page_id)
            self.pages[page_id] = entry
        return entry[1]

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Nothing is held: :meth:`fetch` handed out a frozen copy."""


class Snapshot:
    """One read statement's pinned view: table key -> frozen image."""

    __slots__ = ("_manager", "_images", "_released")

    def __init__(self, manager: "SnapshotManager",
                 images: Dict[str, TableImage]):
        self._manager = manager
        self._images = images
        self._released = False

    def image_for(self, table_name: str) -> Optional[TableImage]:
        """The pinned image, or None for tables created after the pin
        (a scan of such a table reads the live heap — it cannot have
        been mutated concurrently, since writes to it serialize behind
        its table write lock and this snapshot's statement was admitted
        before the table existed only in error cases)."""
        return self._images.get(table_name.lower())

    def versions(self) -> Dict[str, int]:
        return {
            key: image.version for key, image in self._images.items()
        }

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._release(self._images)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SnapshotManager:
    """Per-database registry of table versions and frozen images."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.enabled = False
        #: table key -> current frozen image (version inside).
        self._current: Dict[str, TableImage] = {}
        #: (table key, version) -> retired image still pinned somewhere.
        self._retained: Dict[Tuple[str, int], TableImage] = {}
        #: Counters for observability (surfaced via server stats).
        self.installs = 0
        self.pages_copied = 0
        self.pages_reused = 0
        self.snapshots_pinned = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, database) -> None:
        """Build the initial image of every table and start versioning.

        Must be called while no concurrent statements are running (the
        servers call it before accepting connections).  Idempotent.
        """
        with self._lock:
            if self.enabled:
                return
            self.enabled = True
        for table in list(database.catalog.tables.values()):
            self._install_table(database.pool, table, table.indexes)

    # -- writer side -------------------------------------------------------

    def install(self, pool, table, indexes: Optional[Sequence] = None
                ) -> None:
        """Freeze the table's post-write state as the new current image.

        ``table`` is the ``TableInfo``; the image holds its heap chain
        and the tree of each of ``indexes`` (default: the table's
        indexes — CREATE INDEX passes the list with its new index
        before the catalog names it).  Called by the writer at the end
        of a write statement, still under its table write lock and the
        commit lock (inside the write pipeline's publish step).  Copies
        only pages whose mutation stamps moved; unchanged pages are
        shared with the previous image by reference.
        """
        if not self.enabled:
            return
        self._install_table(
            pool, table, table.indexes if indexes is None else indexes
        )

    def _install_table(self, pool, table, indexes: Sequence) -> None:
        key = table.name.lower()
        previous = self._current.get(key)
        capture = _Capture(pool, previous)
        for __ in HeapFile(capture, table.first_page).pages():
            pass
        roots = {}
        for index in indexes:
            for __ in BPlusTree(capture, index.root_page).pages():
                pass
            roots[index.name.lower()] = index.root_page
        version = previous.version + 1 if previous is not None else 1
        image = TableImage(
            version, pool.page_size, table.first_page, capture.pages, roots
        )
        with self._lock:
            self.installs += 1
            self.pages_copied += len(capture.pages) - capture.reused
            self.pages_reused += capture.reused
            if previous is not None and previous.pins > 0:
                self._retained[(key, previous.version)] = previous
            self._current[key] = image

    def forget(self, table_name: str) -> None:
        """Drop a table's images (DROP TABLE).  Pinned snapshots keep
        their references alive via their own image dict."""
        key = table_name.lower()
        with self._lock:
            self._current.pop(key, None)
            for retained_key in [
                k for k in self._retained if k[0] == key
            ]:
                self._retained.pop(retained_key, None)

    # -- reader side ----------------------------------------------------------

    def pin(self) -> Snapshot:
        """Atomically pin the current image of every table."""
        if not self.enabled:
            raise StorageError(
                "snapshot reads require an enabled SnapshotManager"
            )
        with self._lock:
            images = dict(self._current)
            for image in images.values():
                image.pins += 1
            self.snapshots_pinned += 1
            return Snapshot(self, images)

    def _release(self, images: Dict[str, TableImage]) -> None:
        with self._lock:
            for key, image in images.items():
                image.pins -= 1
                if image.pins <= 0:
                    retained_key = (key, image.version)
                    current = self._current.get(key)
                    if current is not image:
                        self._retained.pop(retained_key, None)

    # -- introspection ------------------------------------------------------------

    def version_of(self, table_name: str) -> int:
        with self._lock:
            image = self._current.get(table_name.lower())
            return image.version if image is not None else 0

    def retained_count(self) -> int:
        with self._lock:
            return len(self._retained)

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "installs": self.installs,
                "pages_copied": self.pages_copied,
                "pages_reused": self.pages_reused,
                "snapshots_pinned": self.snapshots_pinned,
                "retained_images": len(self._retained),
                "versions": {
                    key: image.version
                    for key, image in sorted(self._current.items())
                },
            }
