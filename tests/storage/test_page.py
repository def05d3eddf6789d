"""Slotted pages: operations, compaction, and a model-based property test."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import PageError
from repro.storage.page import (
    HEADER_SIZE,
    SLOT_SIZE,
    SlottedPage,
    copy_record,
    decode_records,
    decode_slots,
)


def fresh(size=512):
    return SlottedPage.format(bytearray(size))


class TestBasics:
    def test_insert_get(self):
        page = fresh()
        slot = page.insert(b"hello")
        assert page.get(slot) == b"hello"

    def test_multiple_records_stable(self):
        page = fresh()
        slots = [page.insert(f"rec{i}".encode()) for i in range(10)]
        for i, slot in enumerate(slots):
            assert page.get(slot) == f"rec{i}".encode()

    def test_delete_then_get_raises(self):
        page = fresh()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError, match="deleted"):
            page.get(slot)

    def test_double_delete_raises(self):
        page = fresh()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_slot_out_of_range(self):
        page = fresh()
        with pytest.raises(PageError):
            page.get(0)

    def test_tombstone_slot_reused(self):
        page = fresh()
        first = page.insert(b"a")
        page.insert(b"b")
        page.delete(first)
        reused = page.insert(b"c")
        assert reused == first
        assert page.num_slots == 2

    def test_full_page_returns_none(self):
        page = fresh(128)
        inserted = 0
        while page.insert(b"0123456789") is not None:
            inserted += 1
        assert inserted > 0
        assert page.insert(b"0123456789") is None

    def test_oversized_record_raises(self):
        page = fresh(128)
        with pytest.raises(PageError, match="cannot fit"):
            page.insert(bytes(128))

    def test_empty_record_allowed(self):
        page = fresh()
        slot = page.insert(b"")
        assert page.get(slot) == b""


class TestUpdate:
    def test_shrinking_update_in_place(self):
        page = fresh()
        slot = page.insert(b"longrecord")
        assert page.update(slot, b"short")
        assert page.get(slot) == b"short"

    def test_growing_update(self):
        page = fresh()
        slot = page.insert(b"ab")
        assert page.update(slot, b"much longer record")
        assert page.get(slot) == b"much longer record"

    def test_growing_update_fails_when_full(self):
        page = fresh(64)
        slot = page.insert(b"x" * 20)
        assert not page.update(slot, b"y" * 60)
        assert page.get(slot) == b"x" * 20  # restored

    def test_update_survives_compaction_of_neighbours(self):
        page = fresh(256)
        a = page.insert(b"a" * 50)
        b = page.insert(b"b" * 50)
        c = page.insert(b"c" * 50)
        page.delete(a)
        page.delete(c)
        # Growing b beyond contiguous free space forces compaction.
        assert page.update(b, b"B" * 120)
        assert page.get(b) == b"B" * 120


class TestCompaction:
    def test_compact_reclaims_holes(self):
        page = fresh(256)
        slots = [page.insert(bytes([i]) * 20) for i in range(8)]
        for slot in slots[::2]:
            page.delete(slot)
        # A record larger than any single hole still fits post-compaction.
        big = page.insert(b"z" * 60)
        assert big is not None
        for index in range(1, 8, 2):
            assert page.get(slots[index]) == bytes([index]) * 20


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.binary(max_size=40)),
            st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
            st.tuples(st.just("update"), st.integers(min_value=0, max_value=30),
                      st.binary(max_size=40)),
        ),
        max_size=60,
    )
)
def test_model_equivalence(operations):
    """The page behaves like a dict slot -> bytes under random ops."""
    page = fresh(1024)
    model = {}
    live_slots = []
    for operation in operations:
        if operation[0] == "insert":
            record = operation[1]
            slot = page.insert(record)
            if slot is not None:
                model[slot] = record
                live_slots.append(slot)
        elif operation[0] == "delete" and live_slots:
            slot = live_slots[operation[1] % len(live_slots)]
            page.delete(slot)
            del model[slot]
            live_slots.remove(slot)
        elif operation[0] == "update" and live_slots:
            slot = live_slots[operation[1] % len(live_slots)]
            if page.update(slot, operation[2]):
                model[slot] = operation[2]
    __, offsets, records = decode_records(page.data, copy_record)
    live = [slot for slot, offset in enumerate(offsets) if offset]
    assert dict(zip(live, records)) == model


class TestDamagedHeader:
    """A header whose slot directory or free space does not fit the page
    is a PageError naming the page, never a raw struct error."""

    def damaged(self, nslots=None, free_end=None):
        page = fresh()
        for i in range(3):
            page.insert(f"rec{i}".encode())
        if nslots is not None:
            page._set_num_slots(nslots)
        if free_end is not None:
            page._set_free_end(free_end)
        return page.data

    @pytest.mark.parametrize("damage", [
        {"nslots": 0xFFFF},               # directory runs off the page
        {"free_end": 600},                # free space ends past the page
        {"free_end": HEADER_SIZE + SLOT_SIZE},  # directory overlaps records
    ])
    def test_decoders_name_the_page(self, damage):
        data = self.damaged(**damage)
        with pytest.raises(PageError, match="page 7 has a damaged header"):
            decode_records(data, copy_record, 7)
        with pytest.raises(PageError, match="page 7 has a damaged header"):
            decode_slots(data, [0], copy_record, 7)

    def test_intact_header_decodes(self):
        __, __, records = decode_records(self.damaged(), copy_record, 7)
        assert records == [b"rec0", b"rec1", b"rec2"]

    def test_scan_of_a_reopened_database(self, db_path):
        """Scribble one heap page's header in the file of a closed,
        checkpointed database: the reopened scan names that page."""
        db = Database(db_path, page_size=512)
        db.execute("CREATE TABLE t (id INT, pad BYTEARRAY)")
        db.insert_rows("t", [(i, bytes(100)) for i in range(40)])
        db.checkpoint()
        page_id = db.catalog.get_table("t").first_page
        db.close()
        with open(os.path.join(db_path, "data.pages"), "r+b") as f:
            f.seek(page_id * 512 + 4)  # nslots, then free_end
            f.write(b"\xff\xff\xff\xff")
        db = Database(db_path, page_size=512)
        try:
            with pytest.raises(
                PageError, match=f"page {page_id} has a damaged header"
            ):
                db.query("SELECT COUNT(*) FROM t")
        finally:
            db.close()
