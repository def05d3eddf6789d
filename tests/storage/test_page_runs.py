"""Each page is read once per use: an index range pins a heap page once
per run of its RIDs on that page, on live pages and on snapshot images;
rows stay in key order when a page recurs in a later run; and no read
holds a pin once it has handed its rows on."""

import gc

import pytest

from repro.database import Database
from repro.storage.btree import BPlusTree
from repro.storage.mvcc import TableImage
from repro.storage.page import copy_record

#: 512-byte pages hold four 100-byte rows.
PAGE = 512
PAD = 100


def padded_db(rows):
    db = Database(page_size=PAGE, buffer_capacity=64)
    db.execute("CREATE TABLE t (id INT, pad BYTEARRAY)")
    db.execute("CREATE INDEX t_id ON t (id)")
    db.insert_rows("t", [(i, bytes(PAD)) for i in range(rows)])
    return db


def pool_fetches(db):
    return db.pool.hits + db.pool.misses


def runs_of(rids):
    """The heap pages of ``rids`` with consecutive repeats merged."""
    pages = []
    for rid in rids:
        if not pages or pages[-1] != rid.page_id:
            pages.append(rid.page_id)
    return pages


def range_cost(source, root, lo, hi):
    """(tree pages fetched, heap-page runs) of the range ``[lo, hi]``,
    where ``source`` counts its fetches in ``source.fetched``."""
    before = source.fetched
    rids = [rid for __, rid in BPlusTree(source, root).range_scan(lo, hi)]
    return source.fetched - before, runs_of(rids)


class CountingPool:
    """Counts the fetches made through a buffer pool."""

    def __init__(self, pool):
        self.pool, self.page_size, self.fetched = pool, pool.page_size, 0

    def fetch(self, page_id):
        self.fetched += 1
        return self.pool.fetch(page_id)

    def unpin(self, page_id, dirty=False):
        self.pool.unpin(page_id, dirty)


RANGE = "SELECT id FROM t WHERE id BETWEEN 40 AND 119"


class TestOnePinPerRun:
    def test_live_range_pins_each_heap_page_once(self):
        db = padded_db(400)
        assert "IndexScan" in db.query("EXPLAIN " + RANGE)[-1][0]
        root = db.catalog.get_table("t").indexes[0].root_page
        tree_fetches, runs = range_cost(CountingPool(db.pool), root, 40, 119)
        assert tree_fetches >= 2 and len(runs) == len(set(runs)) < 80
        before = pool_fetches(db)
        rows = db.query(RANGE)
        assert [row[0] for row in rows] == list(range(40, 120))
        assert pool_fetches(db) - before == tree_fetches + len(runs)
        db.close()

    def test_snapshot_range_pins_each_image_page_once(self, monkeypatch):
        db = padded_db(400)
        db.snapshots.enable(db)
        index = db.catalog.get_table("t").indexes[0]
        fetched = []
        fetch = TableImage.fetch

        def counting(self, page_id):
            fetched.append(page_id)
            return fetch(self, page_id)

        monkeypatch.setattr(TableImage, "fetch", counting)
        with db.snapshots.pin() as snapshot:
            image = snapshot.image_for("t")
            tree = BPlusTree(image, image.root_of(index))
            rids = [rid for __, rid in tree.range_scan(40, 119)]
            tree_fetches, runs = len(fetched), runs_of(rids)
            tree_pages = set(tree.pages())
        del fetched[:]
        before = pool_fetches(db)
        rows = db.query(RANGE)
        assert [row[0] for row in rows] == list(range(40, 120))
        assert pool_fetches(db) == before  # no live frame touched
        assert len(fetched) == tree_fetches + len(runs) < tree_fetches + 80
        assert [page for page in fetched if page not in tree_pages] == runs
        db.close()


class TestKeyOrderAcrossRuns:
    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["live", "snapshot"])
    def test_rows_stay_in_key_order_when_pages_alternate(self, snapshot):
        db = padded_db(40)
        # Growing every other row past its full page moves it to a new
        # tail page, so the RIDs of a key range alternate between pages.
        db.execute(f"UPDATE t SET pad = zerobytes({3 * PAD}) "
                   f"WHERE id % 2 = 1")
        if snapshot:
            db.snapshots.enable(db)
        root = db.catalog.get_table("t").indexes[0].root_page
        rids = [rid for __, rid in
                BPlusTree(db.pool, root).range_scan(8, 31)]
        runs = runs_of(rids)
        assert len(runs) > len(set(runs))  # a page recurs in a later run
        rows = db.query("SELECT id, pad FROM t WHERE id BETWEEN 8 AND 31")
        assert [row[0] for row in rows] == list(range(8, 32))
        assert [len(row[1]) for row in rows] == [
            3 * PAD if key % 2 else PAD for key in range(8, 32)
        ]
        db.close()


class TestNoPinOutlivesARead:
    def all_unpinned(self, db):
        return all(frame.pin_count == 0 for frame in db.pool._frames)

    @pytest.mark.parametrize("sql, operator", [
        ("SELECT id FROM t LIMIT 1", "SeqScan"),
        ("SELECT id FROM t WHERE id >= 5 LIMIT 1", "IndexScan"),
        ("SELECT body FROM docs LIMIT 1", "SeqScan"),
    ], ids=["seqscan", "indexscan", "lob"])
    def test_limit_one_leaves_every_frame_unpinned(self, sql, operator):
        db = padded_db(200)
        db.execute("CREATE TABLE docs (id INT, body BYTEARRAY)")
        db.execute("INSERT INTO docs VALUES (1, zerobytes(5000))")
        assert operator in "\n".join(
            row[0] for row in db.query("EXPLAIN " + sql)
        )
        gc.disable()
        try:
            rows = db.query(sql)
            assert self.all_unpinned(db)
        finally:
            gc.enable()
        assert len(rows) == 1
        db.close()

    def test_suspended_reads_hold_no_pin(self):
        db = padded_db(200)
        table = db.catalog.get_table("t")
        tree = BPlusTree(db.pool, table.indexes[0].root_page)
        ref = db.lobs.write(bytes(5000))
        readers = [
            table.heap.pages(),
            table.heap.scan_rows(copy_record),
            table.heap.scan(copy_record),
            table.heap.read_runs(rid for __, rid in tree.range_scan(0, 99)),
            tree.pages(),
            tree.range_scan(0, 99),
            db.lobs._chunks(ref),
        ]
        for reader in readers:
            next(reader)
            next(reader)
            assert self.all_unpinned(db), reader
        assert db.lobs.read_range(ref, 10, 1000) == bytes(1000)
        assert self.all_unpinned(db)
        db.close()
