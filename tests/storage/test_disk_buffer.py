"""Disk manager and buffer pool."""

import os

import pytest

from repro import Database
from repro.errors import BufferPoolError, DiskError, SimulatedCrash
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, NO_PAGE

from .faults import CrashPoint
from .statement import statement


class TestDiskManager:
    def test_in_memory_allocate_read_write(self):
        disk = DiskManager(None, page_size=256)
        page = disk.allocate_page()
        disk.write_page(page, b"a" * 256)
        assert disk.read_page(page) == b"a" * 256

    def test_page_zero_is_reserved(self):
        disk = DiskManager(None, page_size=256)
        with pytest.raises(DiskError):
            disk.read_page(0)

    def test_out_of_range(self):
        disk = DiskManager(None, page_size=256)
        with pytest.raises(DiskError):
            disk.read_page(99)

    def test_wrong_size_write(self):
        disk = DiskManager(None, page_size=256)
        page = disk.allocate_page()
        with pytest.raises(DiskError):
            disk.write_page(page, b"short")

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "pages.db")
        with DiskManager(path, page_size=256) as disk:
            page = disk.allocate_page()
            disk.write_page(page, b"p" * 256)
        with DiskManager(path, page_size=256) as disk:
            assert disk.read_page(page) == b"p" * 256

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.db")
        with open(path, "wb") as handle:
            handle.write(b"not a database at all" * 20)
        with pytest.raises(DiskError, match="magic"):
            DiskManager(path, page_size=256)

    def test_refused_file_is_closed(self, tmp_path, monkeypatch):
        """A file the header check refuses is closed before the error
        propagates, not left to the garbage collector."""
        opened = []
        real_open = open

        def recording_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", recording_open)
        path = str(tmp_path / "pages.db")
        DiskManager(path, page_size=256).close()
        with real_open(str(tmp_path / "junk.db"), "wb") as handle:
            handle.write(b"not a database at all" * 20)
        opened.clear()
        with pytest.raises(DiskError, match="magic"):
            DiskManager(str(tmp_path / "junk.db"), page_size=256)
        with pytest.raises(DiskError, match="page size"):
            DiskManager(path, page_size=512)
        assert len(opened) == 2
        assert all(handle.closed for handle in opened)

    def test_header_written_only_at_sync(self, tmp_path):
        """The header is deferred: allocation neither extends the file
        nor rewrites page 0; sync writes the in-memory header."""
        path = str(tmp_path / "pages.db")
        disk = DiskManager(path, page_size=256)
        created = os.path.getsize(path)
        for __ in range(3):
            disk.allocate_page()
        assert os.path.getsize(path) == created == 256
        with open(path, "rb") as handle:
            assert handle.read(16)[8:12] == (1).to_bytes(4, "little")
        disk.sync()
        with open(path, "rb") as handle:
            assert handle.read(16)[8:12] == (4).to_bytes(4, "little")
        disk.close()

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "pages.db")
        DiskManager(path, page_size=256).close()
        with pytest.raises(DiskError, match="page size"):
            DiskManager(path, page_size=512)


class TestPositionalRead:
    """A page read is one positional read into the caller's buffer, and
    it keeps every check the seek-and-read path made."""

    def make(self, tmp_path, faults=None):
        disk = DiskManager(str(tmp_path / "pages.db"), page_size=256,
                           faults=faults)
        pages = []
        for fill in b"abc":
            page = disk.allocate_page()
            disk.write_page(page, bytes([fill]) * 256)
            pages.append(page)
        return disk, pages

    def test_reads_into_the_buffer_without_seeking(self, tmp_path,
                                                   monkeypatch):
        disk, pages = self.make(tmp_path)

        def refuse(self, size):
            raise AssertionError("a page was read by seek + _read_exact")

        monkeypatch.setattr(DiskManager, "_read_exact", refuse)
        buf = bytearray(256)
        disk.read_into(pages[1], buf)
        assert buf == b"b" * 256
        assert disk.read_page(pages[2]) == b"c" * 256
        pool = BufferPool(disk, capacity=2)
        assert bytes(pool.fetch(pages[0])) == b"a" * 256
        pool.unpin(pages[0])
        disk.close()

    def test_truncated_file_is_a_short_read(self, tmp_path):
        disk, pages = self.make(tmp_path)
        os.truncate(disk.path, pages[-1] * 256 + 100)
        with pytest.raises(DiskError, match="short read"):
            disk.read_page(pages[-1])
        pool = BufferPool(disk, capacity=2)
        with pytest.raises(DiskError, match="short read"):
            pool.fetch(pages[-1])
        assert bytes(pool.fetch(pages[0])) == b"a" * 256
        pool.unpin(pages[0])
        disk.close(sync=False)

    def test_dead_manager_reads_nothing(self, tmp_path):
        faults = CrashPoint(at=0, mode="kill")
        disk, pages = self.make(tmp_path, faults)
        faults.armed = True
        with pytest.raises(SimulatedCrash):
            disk.write_page(pages[0], b"x" * 256)
        with pytest.raises(SimulatedCrash):
            disk.read_page(pages[1])
        with pytest.raises(SimulatedCrash):
            BufferPool(disk, capacity=2).fetch(pages[1])
        disk.close()

    def test_out_of_range_ids(self, tmp_path):
        disk, pages = self.make(tmp_path)
        for page in (0, disk.num_pages, 10_000):
            with pytest.raises(DiskError, match="out of range"):
                disk.read_into(page, bytearray(256))
        disk.close()

    def test_in_memory_reads_are_the_written_bytes(self):
        disk = DiskManager(None, page_size=256)
        page = disk.allocate_page()
        image = bytes(range(256))
        disk.write_page(page, image)
        assert disk.read_page(page) == image
        assert type(disk.read_page(page)) is bytes
        buf = bytearray(256)
        disk.read_into(page, buf)
        assert buf == image
        buf[0] = 0xFF  # the caller's buffer is a copy, not the page
        assert disk.read_page(page) == image


class TestFreeList:
    """Frees go through a statement's tracker and reach the shared free
    list when the statement publishes, with or without a file."""

    def make(self, path=None):
        disk = DiskManager(path, page_size=256)
        return disk, BufferPool(disk, capacity=8)

    @staticmethod
    def new(pool, fill=0):
        page, data = pool.new_page()
        data[:] = bytes([fill]) * len(data)
        pool.unpin(page, dirty=True)
        return page

    def test_freed_page_reused_after_publish(self):
        disk, pool = self.make()
        with statement(pool):
            first = self.new(pool)
            second = self.new(pool)
        with statement(pool):
            pool.free_page(first)
            # Not reusable inside the statement that freed it.
            assert self.new(pool) == 3
            assert disk.geometry() == (4, NO_PAGE)
        assert disk.geometry() == (4, first)
        with statement(pool):
            assert self.new(pool) == first
            assert self.new(pool) == disk.num_pages - 1
        assert second == 2
        assert disk.geometry() == (5, NO_PAGE)

    def test_reused_page_reads_as_zeros(self):
        disk, pool = self.make()
        with statement(pool):
            page = self.new(pool, fill=ord("x"))
        pool.flush_all()
        with statement(pool):
            pool.free_page(page)
        with statement(pool):
            reused, data = pool.new_page()
            assert reused == page
            assert bytes(data) == bytes(256)
            pool.unpin(reused, dirty=True)
        pool.flush_all()
        assert disk.read_page(reused) == bytes(256)

    def test_free_list_survives_checkpoint_and_reopen(self, tmp_path):
        path = str(tmp_path / "pages.db")
        disk, pool = self.make(path)
        with statement(pool):
            a = self.new(pool)
            b = self.new(pool)
        with statement(pool):
            pool.free_page(b)
            pool.free_page(a)
        pool.flush_all()
        disk.settle()
        disk.close()
        disk, pool = self.make(path)
        assert disk.geometry() == (3, a)
        with statement(pool):
            assert [self.new(pool) for __ in range(3)] == [a, b, 3]
        disk.close()

    def test_free_outside_a_statement_refused(self):
        disk, pool = self.make()
        with statement(pool):
            page = self.new(pool)
        with pytest.raises(BufferPoolError, match="outside a tracked"):
            pool.free_page(page)
        assert disk.geometry() == (2, NO_PAGE)


class TestBufferPool:
    def make(self, capacity=4):
        disk = DiskManager(None, page_size=128)
        return disk, BufferPool(disk, capacity=capacity)

    def test_fetch_caches(self):
        disk, pool = self.make()
        page, data = pool.new_page()
        data[:4] = b"abcd"
        pool.unpin(page, dirty=True)
        assert bytes(pool.fetch(page)[:4]) == b"abcd"
        pool.unpin(page)
        assert pool.hits >= 1

    def test_eviction_writes_back(self):
        disk, pool = self.make(capacity=2)
        pages = []
        for index in range(5):
            page, data = pool.new_page()
            data[0] = index
            pool.unpin(page, dirty=True)
            pages.append(page)
        # Early pages were evicted; their contents must be on disk.
        for index, page in enumerate(pages):
            with pool.pinned(page) as data:
                assert data[0] == index
        assert pool.evictions > 0

    def test_pinned_pages_not_evicted(self):
        disk, pool = self.make(capacity=2)
        page_a, __ = pool.new_page()
        page_b, __ = pool.new_page()
        with pytest.raises(BufferPoolError, match="pinned"):
            pool.new_page()  # both frames pinned
        pool.unpin(page_a)
        pool.unpin(page_b)
        pool.new_page()  # now fine

    def test_unpin_without_pin_raises(self):
        disk, pool = self.make()
        page, __ = pool.new_page()
        pool.unpin(page)
        with pytest.raises(BufferPoolError):
            pool.unpin(page)

    def test_flush_all(self):
        disk, pool = self.make()
        page, data = pool.new_page()
        data[:2] = b"zz"
        pool.unpin(page, dirty=True)
        pool.flush_all()
        assert disk.read_page(page)[:2] == b"zz"

    def test_closed_pool_holds_no_frame_and_refuses_use(self):
        disk, pool = self.make()
        page, data = pool.new_page()
        data[:2] = b"zz"
        pool.unpin(page, dirty=True)
        pool.flush_all()
        pool.close()
        assert pool._frames == []
        with pytest.raises(BufferPoolError, match="closed"):
            pool.fetch(page)
        with pytest.raises(BufferPoolError, match="closed"):
            pool.new_page()
        assert disk.read_page(page)[:2] == b"zz"

    def test_database_close_closes_its_pool(self):
        # A Database sits in reference cycles, so only close() hands its
        # pool's memory back before the next full collection.
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.close()
        assert db.pool._frames == []

    def test_hit_rate(self):
        disk, pool = self.make()
        page, __ = pool.new_page()
        pool.unpin(page)
        for __ in range(9):
            pool.fetch(page)
            pool.unpin(page)
        assert pool.hit_rate > 0.5

    def test_failed_miss_read_leaves_no_orphan_frame(self):
        # A miss whose read raises must hand its frame back: an orphan
        # frame, once evicted, unmapped the frame that really held its
        # page id, and a later fetch read stale bytes from disk.
        disk = DiskManager(None, page_size=256)
        pool = BufferPool(disk, capacity=4)
        for __ in range(2):
            page, __ = pool.new_page()
            pool.unpin(page)
        missing = disk.num_pages
        with pytest.raises(DiskError):
            pool.fetch(missing)
        page, data = pool.new_page()
        assert page == missing
        data[:4] = b"LIVE"
        pool.unpin(page, dirty=True)
        other, __ = pool.new_page()  # evicted the orphan at the seed
        pool.unpin(other)
        assert bytes(pool.fetch(page)[:4]) == b"LIVE"
        pool.unpin(page)
        assert sorted(pool._table.values()) == sorted(
            frame.index for frame in pool._frames
            if frame.page_id is not None
        )
