"""Adaptive cost feedback: observed costs must correct wrong hints.

Each test registers a UDF whose *declared* cost hint is wrong (a busy
loop declared cheap) and checks that, after enough observed calls, the
optimizer's predicate order flips to what the measured cost implies,
while ``adaptive=False`` databases, and adaptive ones below the
evidence threshold, keep planning statically.
"""

import time

from repro.database import Database

#: Busy-loop JagScript body: roughly half a millisecond per call under
#: the sandbox, dwarfing the ~1-unit static hint it is declared with.
_SLOW_BODY = (
    "def slow(x: int) -> int:\n"
    "    total = 0\n"
    "    for i in range(2000):\n"
    "        total = total + i\n"
    "    return x + total - total"
)

_SLOW_DDL = (
    "CREATE FUNCTION slow(int) RETURNS int LANGUAGE JAGUAR "
    "DESIGN SANDBOX COST 1 SELECTIVITY 0.9 AS '" + _SLOW_BODY + "'"
)


def _make_table(db, rows):
    db.execute("CREATE TABLE t (id INT, v INT)")
    for i in range(rows):
        db.execute(f"INSERT INTO t VALUES ({i}, {i})")


def _explain(db, sql):
    return [line for (line,) in db.execute("EXPLAIN " + sql)]


class TestPredicateReorder:
    SQL = "SELECT id FROM t WHERE slow(id) > 0 AND id <= 5"
    DDL = (
        "CREATE FUNCTION slow(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX COST 0.1 SELECTIVITY 0.2 AS '" + _SLOW_BODY + "'"
    )

    @staticmethod
    def _filter_order(lines):
        return [line.strip() for line in lines if "filter[" in line]

    def test_observed_cost_reorders_conjuncts(self):
        """The falsely-cheap, falsely-selective UDF predicate loses its
        front-of-queue slot once its real cost is measured."""
        with Database(adaptive=True) as db:
            _make_table(db, 40)
            db.execute(self.DDL)
            before = self._filter_order(_explain(db, self.SQL))
            # Static ranks: udf (0.2-1)/1.1 < range (0.3-1)/1.0, so the
            # "cheap" UDF predicate runs first.
            assert "slow" in before[0]
            assert "id <= 5" in before[1]
            first = sorted(db.query(self.SQL))
            db.query(self.SQL)
            after = self._filter_order(_explain(db, self.SQL))
            assert "id <= 5" in after[0]
            assert "slow" in after[1]
            assert "(observed)" in after[1]
            # The replanned query still returns the same rows.
            assert sorted(db.query(self.SQL)) == first

    def test_static_database_never_reorders(self):
        with Database(adaptive=False) as db:
            _make_table(db, 40)
            db.execute(self.DDL)
            db.query(self.SQL)
            db.query(self.SQL)
            after = self._filter_order(_explain(db, self.SQL))
            assert "slow" in after[0]
            assert "(observed)" not in after[0]
            assert db.stats()["adaptive"] is None

    def test_below_call_threshold_keeps_static_order(self):
        """Fewer than MIN_CALLS observations leave the hint in charge."""
        with Database(adaptive=True) as db:
            _make_table(db, 8)  # one run = 8 calls < MIN_CALLS (32)
            db.execute(self.DDL)
            db.query(self.SQL)
            feedback = db.observability.adaptive
            assert feedback.observed_cost("slow") is None
            entry = db.stats()["adaptive"]["udfs"]["slow"]
            assert entry["calls"] == 8
            assert entry["trusted"] is False
            after = self._filter_order(_explain(db, self.SQL))
            assert "slow" in after[0]
            assert "(observed)" not in after[0]

    def test_observed_selectivity_is_reported(self):
        with Database(adaptive=True) as db:
            _make_table(db, 40)
            db.execute(self.DDL)
            db.query(self.SQL)
            db.query(self.SQL)
            predicates = db.stats()["adaptive"]["predicates"]
            # Keys are the predicates' fully-qualified rendered text.
            entry = predicates["(slow(t.id) > 0)"]
            assert entry["rows_in"] >= 40
            # slow(id) = id, so every row with id > 0 passes.
            assert 0.9 <= entry["selectivity"] <= 1.0
            range_entry = predicates["(t.id <= 5)"]
            assert range_entry["trusted"] is True
            assert range_entry["selectivity"] < 0.2


class TestCostConvergence:
    def test_observed_cost_within_2x_of_wall_clock(self):
        """Learned per-call cost tracks the measured mean wall time."""
        sql = "SELECT slow(v) FROM t"
        calls = 64
        with Database(adaptive=True) as db:
            _make_table(db, calls)
            db.execute(_SLOW_DDL)
            started = time.perf_counter_ns()
            db.query(sql)
            elapsed_us = (time.perf_counter_ns() - started) / 1000.0
            mean_wall_us = elapsed_us / calls
            observed = db.observability.adaptive.observed_cost("slow")
            assert observed is not None
            # Observed cost excludes engine overhead, so it sits below
            # the wall-clock mean but — with a ~0.5 ms busy loop
            # dwarfing per-row overhead — well within a factor of two.
            assert mean_wall_us / 2.0 <= observed <= mean_wall_us * 2.0
