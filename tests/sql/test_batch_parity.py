"""Batch-size parity: batching must never change what a query returns.

Property-style sweeps over batch sizes 1, 2, 7, 64 (1 is exact
tuple-at-a-time, 7 leaves a ragged tail, 64 is the default) asserting
identical rows — order included where the seed guaranteed it — at both
levels:

* operator level: every physical operator fed from an in-memory source,
  compared against the batch-size-1 (per-tuple) reference;
* query level: the same SQL against the same data under every UDF
  design, compared across batch sizes.
"""

import pytest

from repro.core.designs import Design
from repro.database import Database
from repro.sql.operators import (
    Aggregate,
    Distinct,
    Filter,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
)
from tests.sql.sources import Rows, column, rowwise

BATCH_SIZES = (1, 2, 7, 64)


def _dataset():
    # NULLs, duplicates, negatives, and strings: every row shape the
    # operators special-case.
    return [
        [1, 10, "tech"],
        [2, None, "oil"],
        [3, 10, "tech"],
        [4, -5, None],
        [5, 7, "oil"],
        [6, 10, "gas"],
        [7, None, "tech"],
        [8, 7, "gas"],
        [9, 0, "oil"],
        [10, 3, "tech"],
    ]


def _pipelines(batch_size):
    """One representative tree per operator, at the given batch size."""
    bs = batch_size
    data = _dataset()

    def source():
        return Rows(data, batch_size=bs)

    yield "filter", Filter(
        source(),
        [rowwise(lambda r: None if r[1] is None else r[1] > 2),
         rowwise(lambda r: r[2] != "gas")],
        batch_size=bs,
    )
    yield "project", Project(
        source(), [rowwise(lambda r: r[0] * 2), column(2)],
        batch_size=bs,
    )
    yield "join", NestedLoopJoin(
        Rows(data[:4], batch_size=bs),
        Rows([[x] for x in (1, 3, 4)], batch_size=bs),
        [rowwise(lambda r: r[0] == r[3])],
        batch_size=bs,
    )
    yield "aggregate", Aggregate(
        source(),
        [column(2)],
        [("count", None, False), ("sum", column(1), False),
         ("min", column(1), False)],
        batch_size=bs,
    )
    yield "sort", Sort(
        source(),
        [column(1), column(0)],
        [False, True],
        batch_size=bs,
    )
    yield "distinct", Distinct(
        Project(source(), [column(1)], batch_size=bs), batch_size=bs
    )
    yield "limit", Limit(source(), 3, batch_size=bs)
    yield "limit-zero", Limit(source(), 0, batch_size=bs)


OPERATOR_NAMES = [name for name, __ in _pipelines(1)]


class TestOperatorParity:
    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_same_rows_as_per_tuple(self, name, batch_size):
        reference = dict(_pipelines(1))[name]
        batched = dict(_pipelines(batch_size))[name]
        assert list(batched.rows()) == list(reference.rows())

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_batches_flatten_to_rows(self, batch_size):
        op = Sort(
            Rows(_dataset(), batch_size=batch_size),
            [column(0)], [False], batch_size=batch_size,
        )
        flattened = [row for batch in op.batches() for row in batch]
        assert flattened == list(op.rows())
        for batch in op.batches():
            assert 0 < len(batch) <= batch_size


# -- query-level parity across designs ----------------------------------------

SETUP = """
CREATE TABLE stocks (id INT, price INT, type TEXT);
INSERT INTO stocks VALUES (1, 10, 'tech');
INSERT INTO stocks VALUES (2, NULL, 'oil');
INSERT INTO stocks VALUES (3, 10, 'tech');
INSERT INTO stocks VALUES (4, -5, NULL);
INSERT INTO stocks VALUES (5, 7, 'oil');
INSERT INTO stocks VALUES (6, 10, 'gas');
INSERT INTO stocks VALUES (7, NULL, 'tech');
INSERT INTO stocks VALUES (8, 7, 'gas');
INSERT INTO stocks VALUES (9, 0, 'oil');
INSERT INTO stocks VALUES (10, 3, 'tech');
"""

NATIVE_PAYLOAD = "repro.core.generic_udf:noop_native"

UDF_BY_DESIGN = {
    Design.NATIVE_INTEGRATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN INTEGRATED AS 'tests.sql.test_batch_parity:triple'"
    ),
    Design.NATIVE_SFI: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN SFI AS 'tests.sql.test_batch_parity:triple'"
    ),
    Design.NATIVE_ISOLATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN ISOLATED AS 'tests.sql.test_batch_parity:triple'"
    ),
    Design.SANDBOX_JIT: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX AS 'def t1(x: int) -> int:\n    return x * 3'"
    ),
    Design.SANDBOX_INTERP: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX_INTERP AS "
        "'def t1(x: int) -> int:\n    return x * 3'"
    ),
    Design.SANDBOX_ISOLATED: (
        "CREATE FUNCTION t1(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX_ISOLATED AS "
        "'def t1(x: int) -> int:\n    return x * 3'"
    ),
}


def triple(x):
    """Host-native UDF payload used by the parity matrix."""
    return x * 3


QUERIES = [
    "SELECT id, t1(id) FROM stocks ORDER BY id",
    "SELECT id FROM stocks WHERE t1(id) > 12 AND type <> 'gas' ORDER BY id",
    "SELECT id FROM stocks WHERE price IS NULL OR t1(id) < 10 ORDER BY id",
    "SELECT type, count(*), sum(t1(price)) FROM stocks "
    "GROUP BY type ORDER BY type",
    "SELECT DISTINCT t1(price) FROM stocks ORDER BY 1",
    "SELECT id FROM stocks WHERE id BETWEEN 2 AND 8 "
    "AND type IN ('tech', 'oil') ORDER BY t1(id) DESC LIMIT 3",
]

#: Isolated designs spawn one worker process per UDF query, so the
#: cross-design matrix runs a representative subset for them.
ISOLATED_QUERIES = QUERIES[1:3]

IN_PROCESS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_SFI,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)
ISOLATED = (Design.NATIVE_ISOLATED, Design.SANDBOX_ISOLATED)


def _fresh_db(design):
    db = Database()
    for statement in SETUP.strip().split(";"):
        if statement.strip():
            db.execute(statement)
    db.execute(UDF_BY_DESIGN[design])
    return db


class TestQueryParityAcrossDesigns:
    @pytest.mark.parametrize("design", IN_PROCESS)
    def test_in_process_designs(self, design):
        with _fresh_db(design) as db:
            reference = {}
            for batch_size in BATCH_SIZES:
                db.batch_size = batch_size
                for sql in QUERIES:
                    rows = db.query(sql)
                    if batch_size == 1:
                        reference[sql] = rows
                    else:
                        assert rows == reference[sql], (sql, batch_size)

    @pytest.mark.parametrize("design", ISOLATED)
    def test_isolated_designs(self, design):
        with _fresh_db(design) as db:
            reference = {}
            for batch_size in BATCH_SIZES:
                db.batch_size = batch_size
                for sql in ISOLATED_QUERIES:
                    rows = db.query(sql)
                    if batch_size == 1:
                        reference[sql] = rows
                    else:
                        assert rows == reference[sql], (sql, batch_size)

    def test_no_udf_queries_are_batch_invariant(self):
        with _fresh_db(Design.NATIVE_INTEGRATED) as db:
            plain = [
                "SELECT * FROM stocks ORDER BY id",
                "SELECT type, count(*) FROM stocks GROUP BY type "
                "ORDER BY type",
                "SELECT id FROM stocks WHERE price > 5 "
                "ORDER BY price, id DESC LIMIT 4",
            ]
            reference = {}
            for batch_size in BATCH_SIZES:
                db.batch_size = batch_size
                for sql in plain:
                    rows = db.query(sql)
                    if batch_size == 1:
                        reference[sql] = rows
                    else:
                        assert rows == reference[sql], (sql, batch_size)
