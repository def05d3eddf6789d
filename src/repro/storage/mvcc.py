"""Versioned snapshot reads: per-table epochs and copy-on-write images.

The server needs read-only SELECTs to run fully in parallel
with each other *and* with the single serialized writer, while producing
results bit-identical to a serial execution.  The mechanism here is a
small multi-version store over the existing heap files:

* Every table carries a **version** (epoch counter).  A write statement
  mutates the live heap pages under its table's write lock and then
  *installs* a new frozen image of the table — copying only the pages
  whose :meth:`~repro.storage.buffer.BufferPool.page_version` mutation
  counter changed, i.e. copy-on-write at page granularity — and bumps
  the version.  Installs run under the database commit lock (one
  publisher at a time, even with per-table writers), and the writer
  still holds its table lock, so an image is always a statement-
  consistent cut of that table.
* A read statement **pins a snapshot**: an immutable map of table →
  (version, frozen image) taken atomically under the manager lock.
  Scans under a snapshot iterate the frozen page bytes directly and
  never touch the buffer pool, so readers cannot block on the writer
  (nor on each other) and always observe one consistent version per
  table — the one current when the statement was admitted.
* Old images are **retained** while any live snapshot pins them and
  garbage-collected on release; the current image doubles as the shared
  read cache for all snapshot readers.

Invariant: while the manager is enabled, ``image[current_version]``
exists for every table (built eagerly at :meth:`SnapshotManager.enable`,
re-installed after every write statement, and created on CREATE TABLE).
Readers therefore *never* build images and never race the writer's page
mutations.

Nothing here runs unless the manager is enabled (the server enables it
on start) — an embedded database reads live pages, and
``tests/storage/test_mvcc.py`` pins that enabling changes no result.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import StorageError
from .disk import NO_PAGE
from .page import SlottedPage


class TableImage:
    """A frozen, immutable copy of one table's heap pages at a version.

    ``pages`` is the page chain in storage order; each entry is
    ``(page_id, mutation_counter, buffer)`` where the buffer is a
    private ``bytearray`` copy (:class:`SlottedPage` reads require
    one) that is never mutated again.  The mutation counter lets
    the next install reuse unchanged pages by reference instead of
    copying them again.
    """

    __slots__ = ("version", "pages", "pins")

    def __init__(
        self, version: int, pages: List[Tuple[int, int, bytearray]]
    ):
        self.version = version
        self.pages = pages
        #: Number of live snapshots pinning this image while it is
        #: retired (the *current* image is kept regardless of pins).
        self.pins = 0

    def records(self) -> Iterator[bytes]:
        """Every live record in storage order (what ``heap.scan`` yields)."""
        for __, __, data in self.pages:
            for __, record in SlottedPage(data).records():
                yield record

    def page_count(self) -> int:
        return len(self.pages)


def _capture_chain(
    pool, first_page: int, previous: Optional[TableImage]
) -> List[Tuple[int, int, bytearray]]:
    """Copy a heap-file page chain, reusing unchanged pages.

    Runs under the writing statement's table lock + the commit lock
    (install) or before any concurrency exists (enable), so the chain
    cannot move underneath it.
    """
    reusable: Dict[int, Tuple[int, int, bytearray]] = {}
    if previous is not None:
        reusable = {entry[0]: entry for entry in previous.pages}
    pages: List[Tuple[int, int, bytearray]] = []
    page_id = first_page
    while page_id != NO_PAGE:
        mutation = pool.page_version(page_id)
        prior = reusable.get(page_id)
        if prior is not None and prior[1] == mutation:
            data = prior[2]
        else:
            with pool.pinned(page_id) as live:
                data = bytearray(live)
        next_page = SlottedPage(data).next_page
        pages.append((page_id, mutation, data))
        page_id = next_page
    return pages


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
            self._install_table(database.pool, table.name,
                                table.first_page)

    # -- writer side -------------------------------------------------------

    def install(self, pool, table_name: str, first_page: int) -> None:
        """Freeze the table's post-write state as the new current image.

        Called by the writer at the end of a write statement, still
        under its table write lock and the commit lock (inside the
        write pipeline's publish step).  Copies only pages whose
        mutation counters moved; unchanged pages are shared with the
        previous image by reference.
        """
        if not self.enabled:
            return
        self._install_table(pool, table_name, first_page)

    def _install_table(self, pool, table_name: str,
                       first_page: int) -> None:
        key = table_name.lower()
        previous = self._current.get(key)
        pages = _capture_chain(pool, first_page, previous)
        if previous is not None:
            reused = {id(entry[2]) for entry in previous.pages}
            shared = sum(
                1 for entry in pages if id(entry[2]) in reused
            )
        else:
            shared = 0
        version = previous.version + 1 if previous is not None else 1
        image = TableImage(version, pages)
        with self._lock:
            self.installs += 1
            self.pages_copied += len(pages) - shared
            self.pages_reused += shared
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
