"""Shared prepared-plan cache: LRU behaviour and structural invalidation."""

import pytest

from repro.database import Database
from repro.sql.plancache import PlanCache


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE nums (id INT, v FLOAT)")
    database.execute("INSERT INTO nums VALUES (1, 1.5), (2, 2.5)")
    # The set-up INSERT went through the cache too: count from empty.
    database.plan_cache = PlanCache()
    yield database
    database.close()


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache()
        assert cache.lookup("SELECT 1", (0,)) is None
        cache.store("SELECT 1", (0,), "plan")
        assert cache.lookup("SELECT 1", (0,)) == "plan"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_other_fingerprint_is_a_miss(self):
        cache = PlanCache()
        cache.store("SELECT 1", (0,), "p0")
        assert cache.lookup("SELECT 1", (1,)) is None
        assert cache.stats()["misses"] == 1

    def test_store_under_new_fingerprint_overwrites(self):
        cache = PlanCache()
        cache.store("SELECT 1", (0,), "p0")
        cache.store("SELECT 1", (1,), "p1")
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 1
        assert cache.lookup("SELECT 1", (1,)) == "p1"
        assert cache.lookup("SELECT 1", (0,)) is None

    def test_restore_under_same_fingerprint_is_not_an_invalidation(self):
        cache = PlanCache()
        cache.store("SELECT 1", (0,), "p0")
        cache.store("SELECT 1", (0,), "p0 again")
        assert cache.stats()["invalidations"] == 0

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store("a", (0,), 1)
        cache.store("b", (0,), 2)
        cache.lookup("a", (0,))  # refresh a; b is now LRU
        cache.store("c", (0,), 3)
        assert cache.lookup("b", (0,)) is None
        assert cache.lookup("a", (0,)) is not None
        assert cache.stats()["evictions"] == 1

    def test_clear_counts_invalidations(self):
        cache = PlanCache()
        cache.store("a", (0,), 1)
        cache.store("b", (0,), 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestDatabaseIntegration:
    SQL = "SELECT id, v FROM nums ORDER BY id"

    def test_repeat_read_hits_cache(self, db):
        first = db.execute(self.SQL).rows
        second = db.execute(self.SQL).rows
        assert first == second == [(1, 1.5), (2, 2.5)]
        stats = db.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_ddl_bumps_epoch_and_misses(self, db):
        db.execute(self.SQL)
        before = db.catalog.epoch
        db.execute("CREATE TABLE other (a INT)")
        assert db.catalog.epoch != before
        db.execute(self.SQL)
        assert db.plan_cache.stats()["hits"] == 0

    def test_create_index_invalidates_and_is_used(self, db):
        sql = "SELECT v FROM nums WHERE id = 2"
        assert db.execute(sql).rows == [(2.5,)]
        db.execute("CREATE INDEX idx_nums_id ON nums (id)")
        assert db.execute(sql).rows == [(2.5,)]
        stats = db.plan_cache.stats()
        assert stats["hits"] == 0 and stats["invalidations"] == 1
        # The re-planned entry is the index scan EXPLAIN reports.
        assert any(
            "IndexScan" in line for (line,) in db.query("EXPLAIN " + sql)
        )

    def test_create_function_invalidates(self, db):
        db.execute(self.SQL)
        db.execute(
            "CREATE FUNCTION plus1(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS "
            "'def plus1(x: int) -> int: return x + 1'"
        )
        # Same text re-planned under the new epoch; the superseded
        # entry is dropped when the fresh plan is stored.
        db.execute(self.SQL)
        stats = db.plan_cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        assert stats["invalidations"] == 1
        assert stats["entries"] == 1

    def test_settings_change_misses(self, db):
        db.execute(self.SQL)
        db.inlining = True
        db.execute(self.SQL)
        # Same-text entries for superseded fingerprints are dropped
        # eagerly on store, so the cache never holds both.
        stats = db.plan_cache.stats()
        assert stats["hits"] == 0
        assert stats["invalidations"] == 1
        assert stats["entries"] == 1
        db.execute(self.SQL)  # same settings: now a hit
        assert db.plan_cache.stats()["hits"] == 1

    def test_dml_is_cached_and_explain_is_not(self, db):
        db.execute("INSERT INTO nums VALUES (3, 3.5)")
        db.execute("INSERT INTO nums VALUES (4, 4.5)")  # same shape
        db.execute("EXPLAIN " + self.SQL)
        stats = db.plan_cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert db.execute("SELECT count(*) FROM nums").rows == [(4,)]

    def test_commented_statements_route_by_first_token(self, db):
        select = "-- note\nSELECT id FROM nums WHERE id = 1"
        insert = "-- note\nINSERT INTO nums VALUES (9, 9.5)"
        for sql in (select, insert):
            db.execute(sql)
            before = db.plan_cache.stats()
            db.execute(sql)
            after = db.plan_cache.stats()
            assert after["hits"] == before["hits"] + 1, sql
            assert after["misses"] == before["misses"], sql

    def test_fresh_literals_share_one_entry(self, db):
        for key in (1, 2, 3):
            assert db.query(f"SELECT v FROM nums WHERE id = {key}") == (
                [(key + 0.5,)] if key < 3 else []
            )
        stats = db.plan_cache.stats()
        assert stats["entries"] == 1
        assert (stats["hits"], stats["misses"]) == (2, 1)

    def test_embedded_stats_have_a_plan_cache_section(self, db):
        db.execute(self.SQL)
        db.execute(self.SQL)
        stats = db.stats()
        assert set(stats) == {"metrics", "adaptive", "plan_cache", "storage"}
        section = stats["plan_cache"]
        assert set(section) == {
            "entries", "capacity", "hits", "misses", "hit_rate",
            "evictions", "invalidations",
        }
        assert (section["hits"], section["misses"]) == (1, 1)
        assert section == db.plan_cache.stats()

    def test_script_statements_share_the_pipeline(self, db):
        results = db.execute_script(
            "INSERT INTO nums VALUES (3, 3.5); SELECT count(*) FROM nums"
        )
        assert [r.rowcount for r in results] == [1, 1]
        assert results[1].rows == [(3,)]

    def test_adaptive_mode_bypasses_cache(self):
        database = Database(adaptive=True)
        try:
            database.execute("CREATE TABLE t (a INT)")
            database.execute("INSERT INTO t VALUES (1)")
            database.execute("SELECT a FROM t")
            database.execute("SELECT a FROM t")
            stats = database.plan_cache.stats()
            assert stats["hits"] == 0 and stats["misses"] == 0
            assert len(database.plan_cache) == 0
        finally:
            database.close()

    def test_cached_plan_correct_with_udf(self, db):
        db.execute(
            "CREATE FUNCTION twice(float) RETURNS float LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS "
            "'def twice(x: float) -> float: return x * 2.0'"
        )
        sql = "SELECT twice(v) FROM nums WHERE id = 1"
        assert db.execute(sql).rows == [(3.0,)]
        assert db.execute(sql).rows == [(3.0,)]
        assert db.plan_cache.stats()["hits"] == 1

    def test_reregistered_unpersisted_udf_is_replanned(self):
        """A plan folds a pure UDF's constant calls; re-registering the
        name with another body (no catalog write: ``persist=False``)
        must not serve the old function's constants."""
        from repro.core.designs import Design
        from repro.core.udf import UDFDefinition, UDFSignature

        def define(body):
            return UDFDefinition(
                name="f",
                signature=UDFSignature(("int",), "int"),
                design=Design.SANDBOX_JIT,
                payload=f"def f(x: int) -> int: return {body}".encode(),
                entry="f",
            )

        database = Database()
        try:
            database.execute("CREATE TABLE t (a INT)")
            database.execute("INSERT INTO t VALUES (1)")
            sql = "SELECT f(a), f(10) FROM t"
            database.register_udf(define("x + 1"), persist=False)
            assert database.execute(sql).rows == [(2, 11)]
            database.unregister_udf("f")
            database.register_udf(define("x + 100"), persist=False)
            assert database.execute(sql).rows == [(101, 110)]
        finally:
            database.close()
