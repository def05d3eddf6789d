"""Observability parity: metrics must never change what a query does.

The full matrix the issue pins down: all six designs x batch size
{1, 64} x parallelism {1, 2}, run with metrics enabled and disabled,
asserting identical query results and identical (non-ANALYZE) EXPLAIN
plans.  Instrumentation must be observation only — same rows, same row
order, same plan shape, bit for bit.
"""

import pytest

from repro.core.designs import Design
from repro.database import Database

from tests.sql.test_batch_parity import SETUP, UDF_BY_DESIGN

BATCH_SIZES = (1, 64)
PARALLELISM_LEVELS = (1, 2)

IN_PROCESS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_SFI,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)
ISOLATED = (Design.NATIVE_ISOLATED, Design.SANDBOX_ISOLATED)

IN_PROCESS_QUERIES = (
    "SELECT id, t1(id) FROM stocks ORDER BY id",
    "SELECT id FROM stocks WHERE t1(id) > 12 AND type <> 'gas' ORDER BY id",
    "SELECT type, count(*), sum(t1(price)) FROM stocks "
    "GROUP BY type ORDER BY type",
)

#: Isolated designs spawn worker processes per UDF query; one
#: representative query keeps the 2x2x2 matrix affordable.
ISOLATED_QUERIES = (
    "SELECT id FROM stocks WHERE t1(id) > 12 AND type <> 'gas' ORDER BY id",
)


def _run_matrix(design, queries, batch_size, parallelism, metrics):
    """Rows and EXPLAIN lines for every query under one configuration."""
    with Database(
        batch_size=batch_size, parallelism=parallelism, metrics=metrics
    ) as db:
        for statement in SETUP.strip().split(";"):
            if statement.strip():
                db.execute(statement)
        db.execute(UDF_BY_DESIGN[design])
        observed = {}
        for sql in queries:
            observed[sql] = {
                "rows": db.query(sql),
                "plan": [line for (line,) in db.execute("EXPLAIN " + sql)],
            }
        if metrics:
            # Collection really happened: the UDF shows up in stats.
            counters = db.stats()["metrics"]["counters"]
            assert any(key.startswith("udf.t1.") for key in counters)
        else:
            assert db.stats()["metrics"] is None
        return observed


class TestMetricsParity:
    @pytest.mark.parametrize("parallelism", PARALLELISM_LEVELS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("design", IN_PROCESS)
    def test_in_process_designs(self, design, batch_size, parallelism):
        plain = _run_matrix(
            design, IN_PROCESS_QUERIES, batch_size, parallelism,
            metrics=False,
        )
        metered = _run_matrix(
            design, IN_PROCESS_QUERIES, batch_size, parallelism,
            metrics=True,
        )
        assert metered == plain

    @pytest.mark.parametrize("parallelism", PARALLELISM_LEVELS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("design", ISOLATED)
    def test_isolated_designs(self, design, batch_size, parallelism):
        plain = _run_matrix(
            design, ISOLATED_QUERIES, batch_size, parallelism,
            metrics=False,
        )
        metered = _run_matrix(
            design, ISOLATED_QUERIES, batch_size, parallelism,
            metrics=True,
        )
        assert metered == plain


class TestExplainAnalyzeParity:
    def test_analyze_rowcounts_match_plain_execution(self):
        """EXPLAIN ANALYZE executes the same plan the query runs."""
        with Database(metrics=True) as db:
            for statement in SETUP.strip().split(";"):
                if statement.strip():
                    db.execute(statement)
            db.execute(UDF_BY_DESIGN[Design.SANDBOX_JIT])
            sql = (
                "SELECT id FROM stocks WHERE t1(id) > 12 "
                "AND type <> 'gas' ORDER BY id"
            )
            rows = db.query(sql)
            lines = [
                line for (line,) in db.execute("EXPLAIN ANALYZE " + sql)
            ]
            # The root operator's actual row count is the result size.
            assert f"actual rows={len(rows)}" in lines[0]


class TestProfileObservesTheExecutedPath:
    """A profile observes the path an unprofiled query runs: a
    kernel-eligible ``DESIGN SANDBOX`` UDF runs its tier-1 kernel under
    every way of collecting one."""

    QUERY = "SELECT t1(id) FROM stocks"

    def _setup(self, db):
        for statement in SETUP.strip().split(";"):
            if statement.strip():
                db.execute(statement)
        db.execute(UDF_BY_DESIGN[Design.SANDBOX_JIT])
        assert db.vm.get_udf("t1").kernel is not None

    def test_explain_analyze_runs_the_kernel(self, kernel_batches):
        with Database() as db:
            self._setup(db)
            lines = [
                line for (line,) in db.execute("EXPLAIN ANALYZE " + self.QUERY)
            ]
        assert kernel_batches.value > 0
        assert "-- udf t1: kernel" in lines[0]
        profile_line = next(l for l in lines if l.startswith("udf t1 ["))
        assert "calls=10" in profile_line
        fuel = int(profile_line.split("fuel=")[1].split()[0])
        assert fuel > 0

    @pytest.mark.parametrize("option", ["metrics", "adaptive"])
    def test_collecting_database_runs_the_kernel(self, option,
                                                 kernel_batches):
        with Database(**{option: True}) as db:
            self._setup(db)
            rows = db.query(self.QUERY)
        assert sorted(rows) == sorted((3 * i,) for i in range(1, 11))
        assert kernel_batches.value > 0
