"""Disk manager and buffer pool."""

import os

import pytest

from repro.errors import BufferPoolError, DiskError, SimulatedCrash
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, NO_PAGE

from .faults import CrashPoint


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

    def test_free_list_reuse(self):
        disk = DiskManager(None, page_size=256)
        first = disk.allocate_page()
        second = disk.allocate_page()
        disk.free_page(first)
        assert disk.allocate_page() == first
        assert disk.allocate_page() == disk.num_pages - 1
        assert second == 2

    def test_freed_page_zeroed_on_reuse(self):
        disk = DiskManager(None, page_size=256)
        page = disk.allocate_page()
        disk.write_page(page, b"x" * 256)
        disk.free_page(page)
        reused = disk.allocate_page()
        assert reused == page
        assert disk.read_page(reused) == bytes(256)

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "pages.db")
        with DiskManager(path, page_size=256) as disk:
            page = disk.allocate_page()
            disk.write_page(page, b"p" * 256)
        with DiskManager(path, page_size=256) as disk:
            assert disk.read_page(page) == b"p" * 256

    def test_free_list_persisted(self, tmp_path):
        path = str(tmp_path / "pages.db")
        with DiskManager(path, page_size=256) as disk:
            a = disk.allocate_page()
            disk.allocate_page()
            disk.free_page(a)
        with DiskManager(path, page_size=256) as disk:
            assert disk.allocate_page() == a

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.db")
        with open(path, "wb") as handle:
            handle.write(b"not a database at all" * 20)
        with pytest.raises(DiskError, match="magic"):
            DiskManager(path, page_size=256)

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

    def test_dropped_frame_reused_before_eviction(self):
        disk, pool = self.make(capacity=2)
        first, __ = pool.new_page()
        pool.unpin(first)
        second, __ = pool.new_page()
        pool.unpin(second)
        pool.drop_page(first)
        third, __ = pool.new_page()
        pool.unpin(third)
        assert pool.evictions == 0
        assert bytes(pool.fetch(second)) == bytes(128)  # still resident
        pool.unpin(second)
        assert pool.misses == 0

    def test_drop_pinned_page_refused(self):
        disk, pool = self.make()
        page, __ = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.drop_page(page)

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
