"""End-to-end SQL execution against an embedded database."""

import pytest

from repro.errors import (
    CatalogError, ExecutionError, LexError, PlanError, RecordError,
)


@pytest.fixture
def people(db):
    db.execute(
        "CREATE TABLE people (id INT NOT NULL, name STRING, age INT, "
        "score FLOAT)"
    )
    db.execute(
        "INSERT INTO people VALUES "
        "(1, 'ann', 30, 1.5), (2, 'bob', 25, 2.5), (3, 'cat', 30, 3.5), "
        "(4, 'dan', NULL, NULL)"
    )
    return db


class TestSelect:
    def test_projection_and_star(self, people):
        result = people.execute("SELECT * FROM people WHERE id = 1")
        assert result.columns == ["id", "name", "age", "score"]
        assert result.rows == [(1, "ann", 30, 1.5)]

    def test_expressions_in_select(self, people):
        result = people.execute(
            "SELECT id * 10 + 1 AS x FROM people WHERE id <= 2 ORDER BY id"
        )
        assert result.columns == ["x"]
        assert result.rows == [(11,), (21,)]

    def test_where_filters_nulls(self, people):
        # dan has NULL age: NULL comparisons exclude the row.
        result = people.execute("SELECT id FROM people WHERE age >= 0")
        assert len(result.rows) == 3

    def test_is_null(self, people):
        result = people.execute("SELECT id FROM people WHERE age IS NULL")
        assert result.rows == [(4,)]

    def test_order_by_multiple_keys(self, people):
        result = people.execute(
            "SELECT id FROM people ORDER BY age DESC, name ASC"
        )
        # NULL age sorts last with ascending... here DESC: nulls position
        ids = [row[0] for row in result.rows]
        assert set(ids) == {1, 2, 3, 4}
        assert ids.index(1) < ids.index(3)  # same age: ann before cat

    def test_order_by_unprojected_column(self, people):
        result = people.execute("SELECT name FROM people ORDER BY id DESC")
        assert [r[0] for r in result.rows] == ["dan", "cat", "bob", "ann"]

    def test_limit(self, people):
        assert len(people.execute("SELECT id FROM people LIMIT 2").rows) == 2
        assert people.execute("SELECT id FROM people LIMIT 0").rows == []

    def test_distinct(self, people):
        result = people.execute("SELECT DISTINCT age FROM people")
        assert sorted(
            (row[0] for row in result.rows), key=lambda v: (v is None, v)
        ) == [25, 30, None]

    def test_between_and_in(self, people):
        result = people.execute(
            "SELECT id FROM people WHERE age BETWEEN 26 AND 31 "
            "AND name IN ('ann', 'cat')"
        )
        assert sorted(row[0] for row in result.rows) == [1, 3]


class TestAggregates:
    def test_global_aggregates(self, people):
        result = people.execute(
            "SELECT count(*), count(age), sum(age), avg(score), "
            "min(age), max(age) FROM people"
        )
        assert result.rows == [(4, 3, 85.0, 2.5, 25, 30)]

    def test_group_by(self, people):
        result = people.execute(
            "SELECT age, count(*) AS n FROM people GROUP BY age ORDER BY n DESC"
        )
        by_age = {row[0]: row[1] for row in result.rows}
        assert by_age == {30: 2, 25: 1, None: 1}

    def test_count_distinct(self, people):
        assert people.execute(
            "SELECT count(DISTINCT age) FROM people"
        ).scalar() == 2

    def test_aggregate_on_empty_input(self, people):
        result = people.execute(
            "SELECT count(*), sum(age) FROM people WHERE id > 100"
        )
        assert result.rows == [(0, None)]

    def test_group_by_empty_input_no_rows(self, people):
        result = people.execute(
            "SELECT age, count(*) FROM people WHERE id > 100 GROUP BY age"
        )
        assert result.rows == []

    def test_non_grouped_column_rejected(self, people):
        with pytest.raises(PlanError, match="GROUP BY"):
            people.execute(
                "SELECT name, count(*) FROM people GROUP BY age"
            )


class TestJoins:
    @pytest.fixture
    def orders(self, people):
        people.execute("CREATE TABLE orders (pid INT, amount FLOAT)")
        people.execute(
            "INSERT INTO orders VALUES (1, 10.0), (1, 20.0), (3, 5.0), (9, 1.0)"
        )
        return people

    def test_inner_join(self, orders):
        result = orders.execute(
            "SELECT p.name, o.amount FROM people p JOIN orders o "
            "ON p.id = o.pid ORDER BY o.amount"
        )
        assert result.rows == [
            ("cat", 5.0), ("ann", 10.0), ("ann", 20.0)
        ]

    def test_comma_join_with_where(self, orders):
        result = orders.execute(
            "SELECT count(*) FROM people p, orders o WHERE p.id = o.pid"
        )
        assert result.scalar() == 3

    def test_cross_join_cardinality(self, orders):
        assert orders.execute(
            "SELECT count(*) FROM people, orders"
        ).scalar() == 16

    def test_self_join_needs_aliases(self, orders):
        result = orders.execute(
            "SELECT count(*) FROM people a, people b WHERE a.id < b.id"
        )
        assert result.scalar() == 6

    def test_duplicate_alias_rejected(self, orders):
        with pytest.raises(PlanError, match="duplicate"):
            orders.execute("SELECT 1 FROM people p, orders p")

    def test_join_aggregation(self, orders):
        result = orders.execute(
            "SELECT p.name, sum(o.amount) AS total FROM people p "
            "JOIN orders o ON p.id = o.pid GROUP BY p.name "
            "ORDER BY total DESC"
        )
        assert result.rows == [("ann", 30.0), ("cat", 5.0)]


class TestDML:
    def test_update_returns_rowcount(self, people):
        result = people.execute("UPDATE people SET age = age + 1 WHERE age = 30")
        assert result.rowcount == 2
        assert people.execute(
            "SELECT count(*) FROM people WHERE age = 31"
        ).scalar() == 2

    def test_update_all_rows(self, people):
        people.execute("UPDATE people SET score = 0.0")
        assert people.execute(
            "SELECT count(*) FROM people WHERE score = 0.0"
        ).scalar() == 4

    def test_delete(self, people):
        assert people.execute("DELETE FROM people WHERE age = 30").rowcount == 2
        assert people.execute("SELECT count(*) FROM people").scalar() == 2

    def test_delete_all(self, people):
        people.execute("DELETE FROM people")
        assert people.execute("SELECT count(*) FROM people").scalar() == 0

    def test_insert_with_column_subset(self, people):
        people.execute("INSERT INTO people (id, name) VALUES (10, 'eve')")
        result = people.execute("SELECT age, score FROM people WHERE id = 10")
        assert result.rows == [(None, None)]

    def test_not_null_enforced(self, people):
        with pytest.raises(RecordError, match="NOT NULL"):
            people.execute("INSERT INTO people (name) VALUES ('ghost')")

    def test_insert_arity_mismatch(self, people):
        with pytest.raises(PlanError):
            people.execute("INSERT INTO people (id, name) VALUES (1)")

    @pytest.mark.parametrize("storage", ["memory", "wal", "reopen"])
    @pytest.mark.parametrize("sql", [
        "UPDATE t SET v = 10 / (id - 3)",
        "INSERT INTO t VALUES (6, 1), (7, 1 / 0), (8, 1)",
    ])
    def test_failing_expression_writes_nothing(self, db_path, storage, sql):
        """Every SET and VALUES expression runs before the first write,
        so one that raises leaves the table as it was."""
        from repro.database import Database

        path = None if storage == "memory" else db_path
        db = Database(path)
        try:
            db.execute("CREATE TABLE t (id INT, v INT)")
            db.execute(
                "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)"
            )
            with pytest.raises(ExecutionError, match="division by zero"):
                db.execute(sql)
            if storage == "reopen":
                db.close()
                db = Database(path)
            assert db.query("SELECT id, v FROM t ORDER BY id") == [
                (i, i) for i in range(1, 6)
            ]
        finally:
            db.close()


    #: An INT result past 64 bits fails as it is computed, before any
    #: row is checked, and an INT literal past them as the text is read
    #: (``tests/sql/test_int_overflow.py``).
    OVERFLOWS = {
        "INSERT INTO t VALUES (6, 1), (7, 99999999999999999999)": LexError,
        "UPDATE t SET v = v * 4611686018427387904": ExecutionError,
        "UPDATE t SET v = 41505174165846879000 / (6 - id)": LexError,
        "UPDATE t SET v = (-9223372036854775807 - 1 + (5 - id)) / -1":
            ExecutionError,
    }

    @pytest.mark.parametrize("storage", ["memory", "reopen"])
    @pytest.mark.parametrize("sql", [
        "INSERT INTO t VALUES (6, 1), (7, 99999999999999999999)",
        "UPDATE t SET v = v * 4611686018427387904",
        "UPDATE t SET v = 41505174165846879000 / (6 - id)",
        "UPDATE t SET v = (-9223372036854775807 - 1 + (5 - id)) / -1",
        "INSERT INTO t VALUES (6, 1), (7, 'seven')",
        "INSERT INTO t VALUES (6, 1), (NULL, 1)",
        "UPDATE t SET id = NULL WHERE id > 3",
    ])
    def test_value_outside_its_column_writes_nothing(self, db_path, storage,
                                                     sql):
        """Every row is checked against its columns' types and NOT NULL
        before the first write: a wrong class or a NULL id raises
        RecordError, an overflowing product or quotient ExecutionError
        (the division's first rows fit, its last does not) and an INT
        literal past 64 bits LexError; each leaves the table as it
        was."""
        from repro.database import Database

        path = None if storage == "memory" else db_path
        db = Database(path)
        try:
            db.execute("CREATE TABLE t (id INT NOT NULL, v INT)")
            db.execute(
                "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)"
            )
            with pytest.raises(self.OVERFLOWS.get(sql, RecordError)):
                db.execute(sql)
            if storage == "reopen":
                db.close()
                db = Database(path)
            assert db.query("SELECT id, v FROM t ORDER BY id") == [
                (i, i) for i in range(1, 6)
            ]
        finally:
            db.close()


class TestDDL:
    def test_drop_table(self, people):
        people.execute("DROP TABLE people")
        with pytest.raises(CatalogError):
            people.execute("SELECT * FROM people")

    def test_duplicate_table(self, people):
        with pytest.raises(PlanError, match="already exists"):
            people.execute("CREATE TABLE people (x INT)")

    def test_index_used_and_correct(self, people):
        people.execute("CREATE INDEX people_id ON people(id)")
        assert people.execute(
            "SELECT name FROM people WHERE id = 3"
        ).scalar() == "cat"
        assert people.execute(
            "SELECT count(*) FROM people WHERE id BETWEEN 2 AND 3"
        ).scalar() == 2
        # Index maintained across DML.
        people.execute("INSERT INTO people VALUES (7, 'gil', 1, 1.0)")
        people.execute("DELETE FROM people WHERE id = 2")
        assert people.execute(
            "SELECT name FROM people WHERE id = 7"
        ).scalar() == "gil"
        assert people.execute(
            "SELECT count(*) FROM people WHERE id = 2"
        ).scalar() == 0

    def test_index_on_non_int_rejected(self, people):
        with pytest.raises(PlanError, match="INT"):
            people.execute("CREATE INDEX people_name ON people(name)")


class TestPersistence:
    def test_reopen_preserves_data_and_udfs(self, db_path):
        from repro.database import Database

        with Database(db_path) as db:
            db.execute("CREATE TABLE t (id INT, blob BYTEARRAY)")
            db.execute("INSERT INTO t VALUES (1, patbytes(5000, 1))")
            db.execute(
                "CREATE FUNCTION inc(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS 'def inc(x: int) -> int: return x + 1'"
            )
            db.flush()
            original = db.execute("SELECT length(blob) FROM t").scalar()

        with Database(db_path) as db:
            assert db.execute("SELECT length(blob) FROM t").scalar() == original
            assert db.execute("SELECT inc(id) FROM t").scalar() == 2

    def test_lob_roundtrip_through_reopen(self, db_path):
        from repro.database import Database
        from repro.bench.workload import pattern_bytes

        payload = pattern_bytes(20000, 3)
        with Database(db_path) as db:
            db.execute("CREATE TABLE t (id INT, blob BYTEARRAY)")
            table = db.catalog.get_table("t")
            db.insert_row(table, [1, payload])
            db.flush()

        with Database(db_path) as db:
            db.execute(
                "CREATE FUNCTION blobsum(bytes, int, int, int) RETURNS int "
                "LANGUAGE NATIVE DESIGN INTEGRATED "
                "AS 'repro.core.generic_udf:generic_native'"
            )
            got = db.execute("SELECT blobsum(blob, 0, 1, 0) FROM t").scalar()
            assert got == sum(payload)
