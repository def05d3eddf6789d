"""Disk manager and buffer pool."""

import os

import pytest

from repro.errors import BufferPoolError, DiskError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, NO_PAGE


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
