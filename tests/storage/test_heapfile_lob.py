"""Heap files and large-object storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import HeapFile, RID
from repro.storage.lob import LOBManager

from .statement import statement


@pytest.fixture
def pool():
    return BufferPool(DiskManager(None, page_size=512), capacity=64)


class TestHeapFile:
    def test_insert_get_scan(self, pool):
        heap = HeapFile.create(pool)
        rids = [heap.insert(f"r{i}".encode()) for i in range(100)]
        assert heap.get(rids[57]) == b"r57"
        scanned = dict(heap.scan())
        assert len(scanned) == 100
        assert scanned[rids[3]] == b"r3"

    def test_spans_pages(self, pool):
        heap = HeapFile.create(pool)
        for i in range(100):
            heap.insert(bytes(100))
        assert len(list(heap.pages())) > 1
        assert heap.count() == 100

    def test_delete(self, pool):
        heap = HeapFile.create(pool)
        rid = heap.insert(b"bye")
        heap.delete(rid)
        assert heap.count() == 0

    def test_update_in_place_keeps_rid(self, pool):
        heap = HeapFile.create(pool)
        rid = heap.insert(b"0123456789")
        assert heap.update(rid, b"short") == rid
        assert heap.get(rid) == b"short"

    def test_update_move_returns_new_rid(self, pool):
        heap = HeapFile.create(pool)
        rid = heap.insert(b"x")
        for __ in range(30):
            heap.insert(b"y" * 100)  # fill the record's page
        new_rid = heap.update(rid, b"z" * 400)
        assert heap.get(new_rid) == b"z" * 400

    def test_record_too_big(self, pool):
        heap = HeapFile.create(pool)
        with pytest.raises(StorageError, match="LOB"):
            heap.insert(bytes(5000))

    def test_reopen_by_first_page(self, pool):
        heap = HeapFile.create(pool)
        rid = heap.insert(b"persisted")
        again = HeapFile(pool, heap.first_page)
        assert again.get(rid) == b"persisted"

    def test_stale_tail_refuses_to_cut_the_chain(self, pool):
        heap = HeapFile.create(pool)
        other = HeapFile(pool, heap.first_page)
        while len(list(heap.pages())) < 2:
            other.insert(bytes(100))
        with pytest.raises(StorageError, match="stale"):
            while True:
                heap.insert(bytes(100))
        assert len(list(heap.pages())) == 2

    def test_drop_frees_pages(self, pool):
        heap = HeapFile.create(pool)
        for __ in range(50):
            heap.insert(bytes(100))
        before = pool.disk.num_pages
        with statement(pool):
            heap.drop()
        with statement(pool):
            fresh = HeapFile.create(pool)
            for __ in range(50):
                fresh.insert(bytes(100))
        # Freed pages were reused: no growth beyond the original extent.
        assert pool.disk.num_pages <= before + 1


class TestLOB:
    def test_roundtrip_various_sizes(self, pool):
        lobs = LOBManager(pool)
        for size in (0, 1, 505, 506, 507, 2000, 10000):
            data = bytes((i * 13) % 256 for i in range(size))
            ref = lobs.write(data)
            assert ref.length == size
            assert lobs.read(ref) == data

    def test_read_range(self, pool):
        lobs = LOBManager(pool)
        data = bytes(range(256)) * 20  # 5120 bytes across pages
        ref = lobs.write(data)
        assert lobs.read_range(ref, 0, 10) == data[:10]
        assert lobs.read_range(ref, 500, 600) == data[500:1100]
        assert lobs.read_range(ref, 5000, 1000) == data[5000:]
        assert lobs.read_range(ref, 9999, 10) == b""
        assert lobs.read_range(ref, 100, 0) == b""

    def test_read_range_negative_raises(self, pool):
        lobs = LOBManager(pool)
        ref = lobs.write(b"abc")
        with pytest.raises(StorageError):
            lobs.read_range(ref, -1, 2)

    def test_handle_interface(self, pool):
        lobs = LOBManager(pool)
        ref = lobs.write(b"hello world")
        handle = lobs.handle(ref)
        assert handle.length() == 11
        assert handle.read_range(6, 5) == b"world"
        assert handle.read_all() == b"hello world"

    def test_free_releases_pages(self, pool):
        lobs = LOBManager(pool)
        ref = lobs.write(bytes(3000))
        before = pool.disk.num_pages
        with statement(pool):
            lobs.free(ref)
        with statement(pool):
            ref2 = lobs.write(bytes(3000))
        assert pool.disk.num_pages == before  # pages reused

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.binary(max_size=3000),
        offset=st.integers(min_value=0, max_value=3500),
        length=st.integers(min_value=0, max_value=3500),
    )
    def test_read_range_matches_slicing(self, data, offset, length):
        pool = BufferPool(DiskManager(None, page_size=256), capacity=64)
        lobs = LOBManager(pool)
        ref = lobs.write(data)
        expected = data[offset:offset + length]
        assert lobs.read_range(ref, offset, length) == expected
