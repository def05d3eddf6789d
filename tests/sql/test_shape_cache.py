"""Plan once per statement shape: a cache hit equals a cold run.

A statement's literals bind, at execution, to the cached template of its
shape (its token sequence with each literal replaced by a typed slot).
Whatever the text, that must give exactly what parsing and planning the
text from scratch gives: the same rows, the same error class and
message, the same rowcount.  Each case runs one shape with several
literal values on two identical databases, one that keeps its cache and
one whose cache is cleared before every statement, and compares them
statement by statement.
"""

import random

import pytest

import repro.database as database_module
import repro.sql.executor as executor_module
from repro.database import Database

ROWS = [
    (
        k,
        None if k % 7 == 3 else (k * 37) % 11,
        None if k % 5 == 4 else k * 0.75 - 3.0,
        ["s1", "s2", "it's", "", "O'Reilly", "s10", "s_3"][k % 7],
        k % 3 == 0,
    )
    for k in range(40)
]

UDFS = [
    # Pure: folds at plan time when every argument is a literal.
    "CREATE FUNCTION inc(int) RETURNS int LANGUAGE JAGUAR DESIGN SANDBOX "
    "AS 'def inc(x: int) -> int: return x + 1'",
    # Pure, and traps on 0: a failed fold keeps the call site.
    "CREATE FUNCTION recip(int) RETURNS int LANGUAGE JAGUAR DESIGN SANDBOX "
    "AS 'def recip(x: int) -> int: return 100 // x'",
    # Inlinable with inlining=True; an int literal argument widens.
    "CREATE FUNCTION mix(float, float) RETURNS float LANGUAGE JAGUAR "
    "DESIGN SANDBOX AS 'def mix(x: float, y: float) -> float: "
    "return x * 2.0 + y'",
]


def build(**options):
    db = Database(**options)
    db.execute("CREATE TABLE t (k INT, v INT, f FLOAT, s VARCHAR, b BOOL)")
    db.execute("CREATE INDEX t_k ON t (k)")
    db.insert_rows("t", ROWS)
    for sql in UDFS:
        db.execute(sql)
    return db


def outcome(db, sql):
    try:
        result = db.execute(sql)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result.columns, result.rows, result.rowcount)


def cold(db, sql):
    db.plan_cache.clear()
    return outcome(db, sql)


@pytest.fixture
def pair():
    """``run(texts, before_each=None, **options)``: the warm database,
    after asserting every text's outcome on it equals a cold run's.
    ``before_each(warm, reference)`` runs before each text."""
    opened = []

    def run(texts, before_each=None, **options):
        warm, reference = build(**options), build(**options)
        opened.extend((warm, reference))
        for sql in texts:
            if before_each is not None:
                before_each(warm, reference)
            expected = cold(reference, sql)
            assert outcome(warm, sql) == expected, sql
        return warm

    yield run
    for db in opened:
        db.close()


def texts(template, values):
    return [template.format(*row) for row in values]


#: shape -> literal texts for its slots, run in this order.
SELECT_CASES = {
    "point": (
        "SELECT k, v, s FROM t WHERE k = {}",
        [("3",), ("17",), ("999",), ("0",), ("3",)],
    ),
    "negative point": (
        "SELECT k FROM t WHERE k = -{} OR k = {}",
        [("3", "4"), ("0", "5"), ("7", "0")],
    ),
    "range conjuncts intersect": (
        "SELECT k FROM t WHERE k >= {} AND k < {} AND k <= {} AND k > {} "
        "ORDER BY k",
        [("3", "30", "12", "4"), ("10", "8", "20", "0"),
         ("0", "40", "39", "0"), ("5", "6", "5", "4"), ("9", "3", "1", "2")],
    ),
    "literal on the left": (
        "SELECT k FROM t WHERE {} < k AND {} >= k ORDER BY k",
        [("3", "9"), ("20", "10"), ("-1", "2")],
    ),
    "between": (
        "SELECT k, v FROM t WHERE k BETWEEN {} AND {} ORDER BY k",
        [("3", "7"), ("9", "2"), ("38", "99"), ("5", "5")],
    ),
    "between on a residual column": (
        "SELECT k FROM t WHERE v BETWEEN {} AND {} AND k < {} ORDER BY k",
        [("2", "6", "20"), ("6", "2", "40"), ("0", "10", "5")],
    ),
    "float": (
        "SELECT k, f FROM t WHERE f > {} AND f <= {} ORDER BY k",
        [("1.5", "9.25"), ("-2.5", "1e1"), ("0.0", ".5"), ("7.", "2.5e1")],
    ),
    "float against the index": (
        "SELECT k FROM t WHERE k = {} ORDER BY k",
        [("3.0",), ("3.5",), ("39.0",)],
    ),
    "string": (
        "SELECT k FROM t WHERE s = {} ORDER BY k",
        [("'s1'",), ("'it''s'",), ("''",), ("'O''Reilly'",), ("'nope'",)],
    ),
    "null and true": (
        "SELECT k, v + NULL, b = TRUE, {} FROM t "
        "WHERE k < {} AND (b = TRUE OR v IS NULL) ORDER BY k",
        [("1", "20"), ("5", "40"), ("2", "0")],
    ),
    "in list": (
        "SELECT k FROM t WHERE k IN ({}, {}, {}) ORDER BY k",
        [("1", "2", "3"), ("39", "0", "39"), ("50", "60", "70")],
    ),
    "not in list": (
        "SELECT k FROM t WHERE k < {} AND v NOT IN ({}, {}) ORDER BY k",
        [("10", "1", "2"), ("40", "0", "9")],
    ),
    "like": (
        "SELECT k FROM t WHERE s LIKE {} ORDER BY k",
        [("'s1%'",), ("'%''%'",), ("'s_'",), ("'%'",), ("'s\\_3'",)],
    ),
    "limit 3": (
        "SELECT k FROM t WHERE k > {} ORDER BY k DESC LIMIT 3",
        [("5",), ("37",), ("-1",)],
    ),
    "limit 5": (
        "SELECT k FROM t WHERE k > {} ORDER BY k LIMIT 5",
        [("5",), ("38",)],
    ),
    "arithmetic error": (
        "SELECT k / {} FROM t WHERE k < 4 ORDER BY k",
        [("2",), ("0",), ("-3",), ("0",)],
    ),
    "aggregate": (
        "SELECT count(*), sum(v * {}), min(f) FROM t WHERE k >= {}",
        [("2", "10"), ("-1", "0"), ("3", "99")],
    ),
    "group by a literal expression": (
        "SELECT v % {}, count(*) FROM t WHERE v IS NOT NULL "
        "GROUP BY v % {} ORDER BY count(*)",
        [("3", "3"), ("3", "4"), ("4", "4"), ("5", "5")],
    ),
    "join": (
        "SELECT a.k, c.k FROM t a JOIN t c ON a.k = c.v "
        "WHERE a.k < {} AND c.k > {} ORDER BY a.k, c.k",
        [("5", "30"), ("11", "0"), ("0", "0")],
    ),
    "unknown column": (
        "SELECT nope FROM t WHERE k = {}",
        [("1",), ("2",)],
    ),
}


class TestSelectsMatchColdRuns:
    @pytest.mark.parametrize("case", sorted(SELECT_CASES))
    def test_case(self, pair, case):
        template, values = SELECT_CASES[case]
        warm = pair(texts(template, values))
        if case != "unknown column":
            assert warm.plan_cache.stats()["hits"] >= 1

    def test_every_value_of_a_generic_shape_hits(self, pair):
        template, values = SELECT_CASES["range conjuncts intersect"]
        warm = pair(texts(template, values))
        stats = warm.plan_cache.stats()
        assert stats["entries"] == 1
        assert (stats["hits"], stats["misses"]) == (len(values) - 1, 1)


class TestValueReadingRewrites:
    """Rewrites that read a literal's value at plan time make the plan
    serve only that value."""

    def test_pure_udf_over_literals_still_folds(self, pair):
        template = "SELECT k, inc({}), inc(k) FROM t WHERE k < 3 ORDER BY k"
        warm = pair(
            texts(template, [("5",), ("7",), ("5",), ("7",)]), metrics=True
        )
        calls = warm.stats()["metrics"]["counters"]["udf.inc.sandbox_jit.calls"]
        # inc(k) ran on 3 rows per statement; inc(<literal>) never ran.
        assert calls == 3 * 4
        # Each values tuple has its own plan, and repeats hit it.
        assert warm.plan_cache.stats()["entries"] == 3

    def test_failed_fold_keeps_the_call_site(self, pair):
        pair(texts(
            "SELECT k, recip({}) FROM t WHERE k < 3 ORDER BY k",
            [("5",), ("0",), ("4",), ("0",)],
        ))

    def test_inlined_float_widening(self, pair):
        template = "SELECT k, mix(f, {}) FROM t WHERE k < 8 ORDER BY k"
        warm = pair(
            texts(template, [("3",), ("4",), ("3",), ("2.5",), ("0.5",)]),
            inlining=True,
        )
        # An int literal widens to a float literal at plan time: one plan
        # per value.  A float literal needs no widening: one plan.
        assert warm.plan_cache.stats()["entries"] == 3 + 1

    def test_inlined_call_with_a_column_and_a_float_literal(self, pair):
        pair(
            texts(
                "SELECT k FROM t WHERE mix(f, {}) > {} ORDER BY k",
                [("1.0", "5"), ("2.0", "10"), ("0.5", "0")],
            ),
            inlining=True,
        )


class TestDmlMatchesColdRuns:
    STATEMENTS = [
        "INSERT INTO t VALUES (100, 1, 2.5, 'new', TRUE)",
        "INSERT INTO t VALUES (101, 3, 0.5, 'it''s', TRUE)",
        "INSERT INTO t VALUES (106, NULL, -0.5, 'neg', FALSE)",
        "INSERT INTO t VALUES (102, 7, 1e2, '', TRUE), "
        "(103, 8, 3.0, 'x', FALSE)",
        "INSERT INTO t VALUES (104, 7, 1e2, '', TRUE), "
        "(105, 9, 4.0, 'y', FALSE)",
        "UPDATE t SET v = v + 5, s = 'up' WHERE k = 100",
        "UPDATE t SET v = v + 1, s = 'dn' WHERE k = 101",
        "UPDATE t SET v = v * 2, s = 'lo' WHERE k >= 30 AND k < 35",
        "DELETE FROM t WHERE k = 102",
        "DELETE FROM t WHERE k = 7",
        "INSERT INTO t (k, v) VALUES (200, 1, 2)",
        "INSERT INTO t (k, v) VALUES (201, 1, 3)",
        "UPDATE t SET v = v / 0 WHERE k < 2",
        "UPDATE t SET v = v / 1 WHERE k < 2",
        "DELETE FROM t WHERE k >= 36 AND k < 50",
        "SELECT k, v, f, s, b FROM t ORDER BY k",
    ]

    def test_dml_sequence(self, pair):
        warm = pair(self.STATEMENTS)
        # Two of each INSERT, UPDATE and DELETE shape, failing ones too.
        assert warm.plan_cache.stats()["hits"] == 6

    def test_plan_reused_after_snapshots_enable(self, pair):
        statements = [
            "SELECT k, v FROM t WHERE k >= 3 AND k < 9 ORDER BY k",
            "SELECT k, v FROM t WHERE k >= 10 AND k < 12 ORDER BY k",
            "UPDATE t SET v = 0 WHERE k = 10",
            "SELECT k, v FROM t WHERE k >= 9 AND k < 14 ORDER BY k",
        ]

        def enable_after_first(warm, reference):
            if warm.plan_cache.stats()["misses"] and not warm.snapshots.enabled:
                for db in (warm, reference):
                    db.snapshots.enable(db)

        warm = pair(statements, before_each=enable_after_first)
        assert warm.snapshots.enabled
        assert warm.plan_cache.stats()["hits"] >= 2


# -- prepared once: nothing parses or plans after a shape's first run --------

#: The statement classes of the perfbench ``sql_read`` and
#: ``server_mixed`` workloads: name -> (template, literal maker).
WORKLOAD_CLASSES = {
    "point": ("SELECT val, grp FROM big WHERE id = {}",
              lambda r: (r.randrange(64),)),
    "range": ("SELECT id, val FROM big WHERE id >= {} AND id < {}",
              lambda r: (lambda lo: (lo, lo + 8))(r.randrange(56))),
    "coldscan": ("SELECT id, val FROM big WHERE val < {} AND grp = {}",
                 lambda r: (2000 + r.randrange(2000), r.randrange(16))),
    "groupby": ("SELECT dim_id, count(*), sum(qty) FROM facts "
                "WHERE qty < {} GROUP BY dim_id",
                lambda r: (500 + r.randrange(400),)),
    "join": ("SELECT d.name, f.qty FROM facts f JOIN dim d "
             "ON f.dim_id = d.id WHERE f.id >= {} AND f.id < {} "
             "AND d.weight = {}",
             lambda r: (lambda lo: (lo, lo + 60, r.randrange(8)))(
                 r.randrange(140))),
    "topn": ("SELECT id, qty FROM facts WHERE dim_id = {} "
             "ORDER BY qty DESC, id LIMIT 10",
             lambda r: (r.randrange(16),)),
    "lob": ("SELECT body FROM docs WHERE id = {}",
            lambda r: (r.randrange(4),)),
    "select_group": ("SELECT dim_id, count(*), sum(qty) FROM facts "
                     "WHERE id >= {} AND id < {} GROUP BY dim_id",
                     lambda r: (lambda lo: (lo, lo + 150))(r.randrange(50))),
    "udf_select": ("SELECT score(f.qty, f.dim_id) FROM facts f "
                   "WHERE f.id >= {} AND f.id < {}",
                   lambda r: (lambda lo: (lo, lo + 24))(r.randrange(176))),
    "insert": ("INSERT INTO ta VALUES ({}, {}, {}), ({}, {}, {})",
               lambda r: (lambda b: (2 * b, b, r.randrange(1000),
                                     2 * b + 1, b, r.randrange(1000)))(
                   r.randrange(1000))),
    "update": ("UPDATE ta SET val = val + {} WHERE batch = {}",
               lambda r: (1 + r.randrange(9), r.randrange(1000))),
    "select_own": ("SELECT count(*), sum(val) FROM ta WHERE batch >= {}",
                   lambda r: (r.randrange(1000),)),
    "delete": ("DELETE FROM ta WHERE batch = {}",
               lambda r: (r.randrange(1000),)),
    "select_other": ("SELECT count(*) FROM ta", lambda r: ()),
}


def workload_db():
    db = Database()
    for sql in (
        "CREATE TABLE big (id INT, grp INT, val INT, pad VARCHAR)",
        "CREATE TABLE facts (id INT, dim_id INT, qty INT, price INT)",
        "CREATE TABLE dim (id INT, name VARCHAR, weight INT)",
        "CREATE TABLE docs (id INT, body BYTEARRAY)",
        "CREATE TABLE ta (id INT, batch INT, val INT)",
        "CREATE FUNCTION score(int, int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX AS 'def score(qty: int, weight: int) -> int: "
        "return qty * 3 + weight'",
    ):
        db.execute(sql)
    rng = random.Random(7)
    db.insert_rows("big", [
        (i, rng.randrange(16), rng.randrange(5000), "p" * 50)
        for i in range(64)
    ])
    db.insert_rows("facts", [
        (i, rng.randrange(16), rng.randrange(1000), rng.randrange(10 ** 5))
        for i in range(200)
    ])
    db.insert_rows("dim", [
        (i, f"dim-{i}", rng.randrange(8)) for i in range(16)
    ])
    db.insert_rows("docs", [(i, bytes([i]) * 2000) for i in range(4)])
    db.insert_rows("ta", [(i, i // 4, rng.randrange(1000)) for i in range(64)])
    for sql in ("CREATE INDEX big_id ON big (id)",
                "CREATE INDEX facts_id ON facts (id)"):
        db.execute(sql)
    return db


def workload_statement(name, rng):
    template, make = WORKLOAD_CLASSES[name]
    return template.format(*make(rng))


class TestPreparedOnce:
    VARIANTS = 20

    def test_fresh_literals_never_parse_or_plan(self, monkeypatch):
        warm, reference = workload_db(), workload_db()
        try:
            rng = random.Random(2024)
            for name in WORKLOAD_CLASSES:
                sql = workload_statement(name, rng)
                assert outcome(warm, sql) == outcome(reference, sql)
            variants = [
                workload_statement(name, rng)
                for __ in range(self.VARIANTS)
                for name in WORKLOAD_CLASSES
            ]
            expected = [cold(reference, sql) for sql in variants]
            assert all(result[0] == "ok" for result in expected)

            def refuse(*args, **kwargs):
                raise AssertionError("parsed or planned after the first run")

            for module, name in (
                (database_module, "parse_statement"),
                (database_module, "parse_tokens"),
                (executor_module, "plan_select"),
                (executor_module, "optimize"),
            ):
                monkeypatch.setattr(module, name, refuse)
            hits = warm.plan_cache.stats()["hits"]
            assert [outcome(warm, sql) for sql in variants] == expected
            assert warm.plan_cache.stats()["hits"] == hits + len(variants)
        finally:
            warm.close()
            reference.close()

    def test_create_index_invalidates(self):
        db = workload_db()
        try:
            sql = "SELECT id, weight FROM dim WHERE id = {}"
            first = db.query(sql.format(3))
            db.execute("CREATE INDEX dim_id ON dim (id)")
            before = db.plan_cache.stats()
            assert db.query(sql.format(3)) == first
            after = db.plan_cache.stats()
            assert after["invalidations"] == before["invalidations"] + 1
            assert after["hits"] == before["hits"]
            # The re-planned template scans the new index: a point
            # lookup reads the tree and one heap page.
            weight = db.query("SELECT weight FROM dim WHERE id = 5")[0][0]
            fetches = db.pool.hits + db.pool.misses
            assert db.query(sql.format(5)) == [(5, weight)]
            assert db.pool.hits + db.pool.misses - fetches <= 3
        finally:
            db.close()

    def test_drop_and_create_function_invalidates(self):
        db = workload_db()
        try:
            sql = "SELECT score(qty, {}) FROM facts WHERE id = {}"
            qty = db.query("SELECT qty FROM facts WHERE id = 4")[0][0]
            assert db.query(sql.format(1, 4)) == [(qty * 3 + 1,)]
            db.execute("DROP FUNCTION score")
            db.execute(
                "CREATE FUNCTION score(int, int) RETURNS int LANGUAGE "
                "JAGUAR DESIGN SANDBOX AS 'def score(qty: int, w: int) -> "
                "int: return qty - w'"
            )
            assert db.query(sql.format(2, 4)) == [(qty - 2,)]
            assert db.query(sql.format(1, 4)) == [(qty - 1,)]
        finally:
            db.close()
