"""B+-tree: correctness against a sorted-list model, incl. property test."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import RID
from tests.storage.faults import check_free_list
from tests.storage.statement import statement


def make_tree(page_size=256):
    pool = BufferPool(DiskManager(None, page_size=page_size), capacity=256)
    return BPlusTree.create(pool)


def rid_for(key, salt=0):
    return RID(page_id=key + 1 + salt, slot=(key + salt) % 50)


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.search(1) == []
        assert list(tree.items()) == []
        tree.check_invariants()

    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, rid_for(5))
        assert tree.search(5) == [rid_for(5)]
        assert tree.search(6) == []

    def test_many_inserts_with_splits(self):
        tree = make_tree()
        keys = list(range(3000))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, rid_for(key))
        tree.check_invariants()
        assert [k for k, __ in tree.items()] == list(range(3000))
        for probe in (0, 1, 1499, 2998, 2999):
            assert tree.search(probe) == [rid_for(probe)]

    def test_negative_keys(self):
        tree = make_tree()
        for key in (-5, -1, 0, 3, -100):
            tree.insert(key, RID(abs(key) + 1, 0))
        assert [k for k, __ in tree.items()] == [-100, -5, -1, 0, 3]

    def test_duplicates_all_returned(self):
        tree = make_tree()
        for salt in range(300):
            tree.insert(42, rid_for(42, salt))
        for key in range(200):
            tree.insert(key, rid_for(key, 999))
        found = tree.search(42)
        assert len(found) == 300 + 1  # 300 dups + key 42 itself
        tree.check_invariants()

    def test_range_scan(self):
        tree = make_tree()
        for key in range(0, 1000, 3):
            tree.insert(key, rid_for(key))
        got = [k for k, __ in tree.range_scan(100, 200)]
        assert got == [k for k in range(0, 1000, 3) if 100 <= k <= 200]

    def test_open_ranges(self):
        tree = make_tree()
        for key in range(50):
            tree.insert(key, rid_for(key))
        assert [k for k, __ in tree.range_scan(None, 5)] == list(range(6))
        assert [k for k, __ in tree.range_scan(45, None)] == list(range(45, 50))

    def test_delete(self):
        tree = make_tree()
        for key in range(500):
            tree.insert(key, rid_for(key))
        assert tree.delete(250, rid_for(250))
        assert tree.search(250) == []
        assert not tree.delete(250, rid_for(250))  # already gone
        assert not tree.delete(9999, rid_for(1))
        tree.check_invariants()

    def test_delete_specific_duplicate(self):
        tree = make_tree()
        tree.insert(7, rid_for(7, 1))
        tree.insert(7, rid_for(7, 2))
        assert tree.delete(7, rid_for(7, 2))
        assert tree.search(7) == [rid_for(7, 1)]

    def test_root_split_updates_root_page(self):
        tree = make_tree()
        original_root = tree.root_page
        for key in range(2000):
            tree.insert(key, rid_for(key))
        assert tree.root_page != original_root

    def test_reopen_by_root_page(self):
        tree = make_tree()
        for key in range(800):
            tree.insert(key, rid_for(key))
        reopened = BPlusTree(tree.pool, tree.root_page)
        assert reopened.search(400) == [rid_for(400)]


class TestWholeTree:
    def test_pages_visits_every_node_once(self):
        tree = make_tree()
        for key in range(3000):
            tree.insert(key, rid_for(key))
        pages = list(tree.pages())
        assert pages[0] == tree.root_page
        npages, __ = tree.pool.disk.geometry()
        # Every page the tree allocated, and nothing else.
        assert sorted(pages) == list(range(1, npages))

    def test_drop_returns_every_node_for_reuse(self):
        tree = make_tree()
        for key in range(3000):
            tree.insert(key, rid_for(key))
        npages, __ = tree.pool.disk.geometry()
        with statement(tree.pool):
            tree.drop()
        with statement(tree.pool):
            again = BPlusTree.create(tree.pool)
            for key in range(3000):
                again.insert(key, rid_for(key))
        assert tree.pool.disk.geometry()[0] == npages
        again.check_invariants()


class TestDropTable:
    @staticmethod
    def cycle(db):
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.insert_rows("t", [(i, i) for i in range(2000)])
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("DROP TABLE t")
        db.checkpoint()
        return db.disk.geometry()[0]

    def test_file_stays_flat_across_cycles_and_reopen(self, tmp_path):
        """DROP TABLE frees its index pages as well as its heap (through
        the WAL's buffered frees), so each CREATE/load/index/DROP cycle
        reuses the last one's pages, before and after a reopen."""
        path = str(tmp_path / "db")
        db = Database(path, page_size=4096)
        sizes = [self.cycle(db) for __ in range(3)]
        db.close()
        db = Database(path, page_size=4096)
        assert db.disk.geometry()[0] == sizes[0]
        sizes += [self.cycle(db) for __ in range(2)]
        assert len(check_free_list(db)) == sizes[0] - 1
        db.close()
        assert sizes == [sizes[0]] * 5


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=-100, max_value=100),
        ),
        max_size=200,
    )
)
def test_model_equivalence(operations):
    """Against a multiset model: same members, sorted iteration."""
    tree = make_tree()
    model = []
    for action, key in operations:
        rid = RID(abs(key) + 1, 0)
        if action == "insert":
            tree.insert(key, rid)
            model.append(key)
        else:
            removed = tree.delete(key, rid)
            if key in model:
                assert removed
                model.remove(key)
            else:
                assert not removed
    assert [k for k, __ in tree.items()] == sorted(model)
    tree.check_invariants()
