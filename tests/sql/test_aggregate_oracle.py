"""Aggregates against stdlib ``sqlite3``, on generated tables and queries.

Each example loads one random table of INT, FLOAT and NULL values into
the engine and into an in-memory sqlite database, then runs a few
aggregate queries on both: GROUP BY on zero to two columns, COUNT(*),
COUNT, SUM, AVG, MIN and MAX, each with or without DISTINCT, with or
without a WHERE that may leave no row.  Rows are compared as multisets:
INT results exactly and as ints, FLOAT results by ``math.isclose``.

``b`` holds non-negative INT values, many past ``2**53``, so its SUM is
exact only when added in an int, and a SUM past the 64-bit range is
refused by both engines.  Every prefix of a non-negative sum is at most
the sum, so the refusal does not depend on the order either engine adds
in (sqlite refuses as soon as a partial sum overflows).
"""

import math
import sqlite3

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import ExecutionError

COLUMNS = [("g", "INT"), ("k", "FLOAT"), ("a", "INT"), ("b", "INT"),
           ("f", "FLOAT")]
_SQLITE_TYPES = {"INT": "INTEGER", "FLOAT": "REAL"}

#: 2**53 + 1, the least int a float cannot hold.
BEYOND_FLOAT = 9007199254740993


def nullable(values):
    return st.one_of(st.none(), values)


rows = st.lists(
    st.tuples(
        nullable(st.integers(0, 3)),
        nullable(st.sampled_from([-1.5, 0.0, 2.25])),
        nullable(st.integers(-50, 50)),
        nullable(st.one_of(st.integers(0, 1000),
                           st.integers(2 ** 53, 2 ** 62))),
        nullable(st.floats(-1e6, 1e6, allow_nan=False)),
    ),
    max_size=24,
)

aggregates = st.one_of(
    st.just("count(*)"),
    st.builds(
        lambda func, distinct, column: (
            f"{func}({'DISTINCT ' if distinct else ''}{column})"
        ),
        st.sampled_from(["count", "sum", "avg", "min", "max"]),
        st.booleans(),
        st.sampled_from(["a", "b", "f"]),
    ),
)

queries = st.builds(
    lambda groups, aggs, where: (
        f"SELECT {', '.join(groups + aggs)} FROM t"
        + (f" WHERE {where}" if where else "")
        + (f" GROUP BY {', '.join(groups)}" if groups else "")
    ),
    st.lists(st.sampled_from(["g", "k"]), max_size=2, unique=True),
    st.lists(aggregates, min_size=1, max_size=3),
    st.one_of(
        st.none(),
        st.builds("a < {}".format, st.integers(-60, 60)),
        st.builds("g = {}".format, st.integers(0, 4)),
        st.just("f IS NOT NULL"),
    ),
)


def answer(run, sql):
    """``sql``'s rows as a sorted list, or ``"overflow"``."""
    try:
        got = run(sql)
    except (ExecutionError, sqlite3.OperationalError) as exc:
        assert "integer overflow" in str(exc), exc
        return "overflow"
    return sorted(
        (tuple((value is not None, value) for value in row) for row in got)
    )


def same_value(ours, theirs) -> bool:
    if isinstance(theirs, float) or isinstance(ours, float):
        return (isinstance(ours, float) and theirs is not None
                and math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-6))
    return type(ours) is type(theirs) and ours == theirs


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows, st.lists(queries, min_size=1, max_size=4))
@example([(1, None, 5, BEYOND_FLOAT, 0.5), (1, 0.0, -3, 2, None),
          (2, 2.25, None, 7, 1.0)],
         ["SELECT g, sum(b), avg(b), min(a) FROM t GROUP BY g",
          "SELECT sum(b), count(DISTINCT b) FROM t WHERE a < 0"])
@example([(0, None, 1, 2 ** 62, None)] * 2,
         ["SELECT sum(b), max(b) FROM t"])
@example([], ["SELECT count(*), sum(b), avg(a), min(f) FROM t",
              "SELECT g, count(*) FROM t GROUP BY g"])
def test_aggregates_match_sqlite(table, sqls):
    db = Database()
    lite = sqlite3.connect(":memory:")
    try:
        db.execute(f"CREATE TABLE t ({', '.join(' '.join(c) for c in COLUMNS)})")
        lite.execute("CREATE TABLE t (" + ", ".join(
            f"{name} {_SQLITE_TYPES[kind]}" for name, kind in COLUMNS) + ")")
        if table:
            db.insert_rows("t", table)
            lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", table)
        for sql in sqls:
            ours = answer(db.query, sql)
            theirs = answer(lambda q: lite.execute(q).fetchall(), sql)
            if "overflow" in (ours, theirs):
                assert ours == theirs, sql
                continue
            assert len(ours) == len(theirs), sql
            for our_row, their_row in zip(ours, theirs):
                assert all(
                    (a[0], same_value(a[1], b[1])) == (b[0], True)
                    for a, b in zip(our_row, their_row)
                ), (sql, our_row, their_row)
    finally:
        lite.close()
        db.close()
