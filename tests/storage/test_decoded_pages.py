"""Hot pages stay decoded: a resident frame keeps its rows, and a scan
bigger than the pool does not flush it.

The counted gate asserts exact buffer-pool counts (``db.stats()
["storage"]``) on a fixed path-backed database: a 64-page table scanned
through a 16-frame pool, alternating with a one-page hot table.  The
hot table is decoded once; every later read of it, and of the big
table's first ``capacity // 4`` pages, is a decoded hit; every other
big page is read into the scan's own buffer and takes no frame, so
nothing is ever evicted, and a cold scan of a full pool evicts only for
the pages it keeps.  The other tests check the kept rows against every
write or reuse of their page, and that no caller can change them.
"""

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.storage.buffer import BULK_READ_SHARE

CAPACITY = 16
BIG_PAGES = 4 * CAPACITY
RING_AFTER = CAPACITY // BULK_READ_SHARE
COUNTERS = ("hits", "misses", "evictions", "pages_decoded",
            "decoded_hits", "bulk_released")


def storage(db):
    stats = db.stats()["storage"]
    return {name: stats[name] for name in COUNTERS}


def delta(after, before):
    return {name: after[name] - before[name] for name in COUNTERS}


def kept_rows(db):
    """Every row a frame of ``db``'s pool keeps."""
    return [
        row for frame in db.pool._frames if frame.decoded is not None
        for row in frame.decoded.rows
    ]


@pytest.fixture
def gate_db(tmp_path):
    """A closed and reopened database: a cold pool of 16 frames, a
    64-page table (one 300-byte row per 512-byte page) and a one-page
    hot table."""
    path = tmp_path / "gate"
    db = Database(str(path), page_size=512, buffer_capacity=CAPACITY)
    db.execute("CREATE TABLE big (id INT, pad BYTEARRAY)")
    db.execute("CREATE TABLE hot (id INT, v INT)")
    db.insert_rows("big", [(i, bytes(300)) for i in range(BIG_PAGES)])
    db.insert_rows("hot", [(i, i * i) for i in range(8)])
    assert len(list(db.catalog.get_table("big").heap.pages())) == BIG_PAGES
    assert len(list(db.catalog.get_table("hot").heap.pages())) == 1
    db.checkpoint()
    db.close()
    db = Database(str(path), page_size=512, buffer_capacity=CAPACITY)
    yield db
    db.close()


class TestCountedGate:
    ROUNDS = 4

    def test_stats_section_is_documented_shape(self, gate_db):
        stats = gate_db.stats()["storage"]
        assert set(stats) == {"capacity", *COUNTERS}
        assert stats["capacity"] == CAPACITY
        assert stats == gate_db.pool.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (
            gate_db.pool.hits, gate_db.pool.misses, gate_db.pool.evictions
        )

    def test_hot_page_survives_a_scan_four_times_the_pool(self, gate_db):
        rounds = []
        start = storage(gate_db)
        for __ in range(self.ROUNDS):
            before = storage(gate_db)
            assert gate_db.query("SELECT count(*), min(v) FROM hot") == [
                (8, 0)
            ]
            assert gate_db.query(
                "SELECT count(*) FROM big WHERE id >= 0"
            ) == [(BIG_PAGES,)]
            rounds.append(delta(storage(gate_db), before))
        ring = BIG_PAGES - RING_AFTER
        # Cold: every page misses and is decoded; the big table's first
        # quarter of the pool's capacity keeps its rows, the rest cycle
        # through one frame.
        assert rounds[0] == {
            "hits": 0, "misses": 1 + BIG_PAGES, "evictions": 0,
            "pages_decoded": 1 + BIG_PAGES, "decoded_hits": 0,
            "bulk_released": ring,
        }
        # Warm: the hot page and the big table's first pages are decoded
        # hits; only the ring pages are read and decoded again.
        for warm in rounds[1:]:
            assert warm == {
                "hits": 1 + RING_AFTER, "misses": ring, "evictions": 0,
                "pages_decoded": ring, "decoded_hits": 1 + RING_AFTER,
                "bulk_released": ring,
            }
        # So over the whole run the hot table was decoded exactly once.
        total = delta(storage(gate_db), start)
        assert total["pages_decoded"] == 1 + BIG_PAGES + (
            self.ROUNDS - 1) * ring
        assert total["evictions"] == 0

    def test_an_index_lookup_reads_the_kept_rows(self, gate_db):
        gate_db.query("SELECT count(*), min(v) FROM hot")
        gate_db.execute("CREATE INDEX hot_id ON hot (id)")
        before = storage(gate_db)
        assert gate_db.query("SELECT v FROM hot WHERE id = 5") == [(25,)]
        change = delta(storage(gate_db), before)
        # The heap page is a decoded hit; nothing is decoded whole.
        assert change["decoded_hits"] == 1
        assert change["pages_decoded"] == 0


class TestBulkReadTakesNoFrame:
    def test_a_cold_scan_of_a_full_pool_evicts_only_its_kept_pages(
            self, gate_db):
        """With every frame holding a page, the big table's first
        ``RING_AFTER`` pages each evict one; the other pages are read
        around the pool and evict nothing."""
        gate_db.execute("CREATE TABLE fill (id INT, pad BYTEARRAY)")
        gate_db.insert_rows("fill", [(i, bytes(300))
                                     for i in range(CAPACITY)])
        fill = gate_db.catalog.get_table("fill").heap
        assert len(list(fill.pages())) == CAPACITY
        pool = gate_db.pool
        assert len(pool._table) == CAPACITY and not pool._free_frames
        before = storage(gate_db)
        assert gate_db.query("SELECT count(*) FROM big WHERE id >= 0") == [
            (BIG_PAGES,)
        ]
        change = delta(storage(gate_db), before)
        assert change == {
            "hits": 0, "misses": BIG_PAGES, "evictions": RING_AFTER,
            "pages_decoded": BIG_PAGES, "decoded_hits": 0,
            "bulk_released": BIG_PAGES - RING_AFTER,
        }
        # Only the kept pages took frames; the fill table lost no more.
        assert len(pool._table) == CAPACITY


def small_db(**options):
    db = Database(page_size=512, **options)
    db.execute("CREATE TABLE t (id INT, v INT, arr FLOATARRAY)")
    db.insert_rows("t", [(i, 10 * i, [float(i), 0.5]) for i in range(40)])
    return db


def rows_of(db):
    return db.query("SELECT id, v, arr FROM t ORDER BY id")


def expected(pairs):
    return [(i, v, array("d", [float(i), 0.5])) for i, v in pairs]


class TestInvalidation:
    def test_insert_update_delete_after_a_cached_read(self):
        db = small_db()
        rows_of(db)
        assert kept_rows(db)
        db.execute("INSERT INTO t VALUES (40, 400, NULL)")
        assert db.query("SELECT v FROM t WHERE id = 40") == [(400,)]
        db.execute("UPDATE t SET v = -1 WHERE id % 7 = 0")
        db.execute("DELETE FROM t WHERE id % 5 = 0")
        got = db.query("SELECT id, v FROM t ORDER BY id")
        assert got == [
            (i, -1 if i % 7 == 0 else 10 * i if i < 40 else 400)
            for i in range(41) if i % 5
        ]
        db.close()

    def test_drop_then_create_reuses_pages_with_a_new_schema(self):
        db = small_db()
        rows_of(db)
        freed = set(db.catalog.get_table("t").heap.pages())
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE u (s VARCHAR, f FLOAT)")
        db.insert_rows("u", [(f"s{i}", i / 4) for i in range(40)])
        heap = db.catalog.get_table("u").heap
        assert freed & set(heap.pages())  # the freed pages came back
        assert db.query("SELECT s, f FROM u") == [
            (f"s{i}", i / 4) for i in range(40)
        ]
        db.close()

    def test_checkpoint_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, page_size=512)
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.insert_rows("t", [(i, i) for i in range(30)])
        assert db.query("SELECT sum(v) FROM t") == [(435,)]
        db.execute("UPDATE t SET v = 0 WHERE id < 10")
        db.checkpoint()
        assert db.query("SELECT sum(v) FROM t") == [(390,)]
        db.close()
        assert kept_rows(db) == []
        db = Database(path, page_size=512)
        assert db.query("SELECT sum(v) FROM t") == [(390,)]
        db.close()

    @pytest.mark.parametrize("dml", [
        "UPDATE t SET v = 0 WHERE v < 0",
        "DELETE FROM t WHERE v < 0",
    ])
    def test_a_with_rids_scan_leaves_no_rid_in_a_kept_row(self, dml):
        db = small_db()
        rows_of(db)
        db.execute(dml)  # scans every kept page, writes none
        assert kept_rows(db)
        assert all(len(row) == 3 for row in kept_rows(db))
        assert rows_of(db) == expected((i, 10 * i) for i in range(40))
        db.close()

    def test_a_udf_that_writes_its_farr_argument_changes_no_page(self):
        db = small_db()
        db.execute(
            "CREATE FUNCTION poke(farr) RETURNS int LANGUAGE NATIVE "
            "DESIGN INTEGRATED AS 'tests.storage.test_decoded_pages:poke'"
        )
        rows_of(db)
        assert db.query("SELECT poke(arr) FROM t WHERE id = 3") == [(3,)]
        assert db.query("SELECT arr FROM t WHERE id = 3") == [
            (array("d", [3.0, 0.5]),)
        ]
        assert rows_of(db) == expected((i, 10 * i) for i in range(40))
        db.close()

    def test_a_caller_that_writes_a_returned_array_changes_no_page(self):
        db = small_db()
        db.execute("CREATE INDEX t_id ON t (id)")
        for sql in ("SELECT id, v, arr FROM t ORDER BY id",
                    "SELECT id, v, arr FROM t WHERE id = 7"):
            for row in db.query(sql):
                row[2][0] = -1.0
        assert rows_of(db) == expected((i, 10 * i) for i in range(40))
        db.close()


def poke(arr):
    """A Design-1 UDF that writes into its argument."""
    value = int(arr[0])
    arr[0] = -1.0
    return value


statements = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "select"]),
        st.integers(0, 30),
        st.integers(-100, 100),
    ),
    max_size=25,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(statements)
def test_kept_rows_match_a_list_model_on_a_four_frame_pool(ops):
    """INSERT, UPDATE, DELETE and SELECT on a pool of 4 frames, each
    SELECT checked against a Python list of the rows."""
    db = Database(page_size=512, buffer_capacity=4)
    db.execute("CREATE TABLE t (id INT, v INT, pad VARCHAR)")
    model = [[i, i, "p" * 90] for i in range(12)]
    db.insert_rows("t", model)
    try:
        for op, key, value in ops:
            if op == "insert":
                db.execute(f"INSERT INTO t VALUES ({key}, {value}, "
                           f"'{'q' * (key % 4 * 40)}')")
                model.append([key, value, "q" * (key % 4 * 40)])
            elif op == "update":
                db.execute(f"UPDATE t SET v = {value} WHERE id = {key}")
                for row in model:
                    if row[0] == key:
                        row[1] = value
            elif op == "delete":
                db.execute(f"DELETE FROM t WHERE id = {key}")
                model = [row for row in model if row[0] != key]
            got = db.query("SELECT id, v, pad FROM t")
            assert sorted(got) == sorted(tuple(row) for row in model)
    finally:
        db.close()
