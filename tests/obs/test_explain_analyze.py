"""EXPLAIN ANALYZE: actual operator cardinalities and per-UDF profiles.

Accuracy contract: the ``(actual rows=...)`` annotations must equal the
true cardinalities each operator produced — scans after their residual
predicates, joins after their join predicates, the root after
everything — and a per-UDF profile section must appear for every
executor design with the exact invocation count.
"""

import re

import pytest

from repro.core.designs import Design
from repro.database import Database

from tests.sql.test_batch_parity import SETUP, UDF_BY_DESIGN


def _setup(db, design=None):
    for statement in SETUP.strip().split(";"):
        if statement.strip():
            db.execute(statement)
    if design is not None:
        db.execute(UDF_BY_DESIGN[design])


def _analyze(db, sql):
    return [line for (line,) in db.execute("EXPLAIN ANALYZE " + sql)]


def _actual_rows(lines, head):
    """The actual row count on the first line whose head matches."""
    for line in lines:
        if head in line:
            match = re.search(r"actual rows=(\d+)", line)
            assert match is not None, line
            return int(match.group(1))
    raise AssertionError(f"no line matching {head!r} in {lines}")


class TestOperatorActuals:
    def test_scan_actuals_are_table_cardinality(self):
        with Database() as db:
            _setup(db)
            lines = _analyze(db, "SELECT id FROM stocks")
            assert _actual_rows(lines, "SeqScan stocks") == 10
            assert _actual_rows(lines, "Project") == 10

    def test_filtered_scan_actuals_are_surviving_rows(self):
        with Database() as db:
            _setup(db)
            survivors = len(db.query("SELECT id FROM stocks WHERE price > 5"))
            assert survivors == 5
            lines = _analyze(db, "SELECT id FROM stocks WHERE price > 5")
            # Pushdown applies the predicate inside the scan, so the
            # scan's actuals are the rows that survived it.
            assert _actual_rows(lines, "SeqScan stocks") == survivors

    def test_join_actuals_are_match_cardinality(self):
        with Database() as db:
            _setup(db)
            sql = (
                "SELECT a.id, b.id FROM stocks a, stocks b "
                "WHERE a.id = b.id"
            )
            matches = len(db.query(sql))
            assert matches == 10
            lines = _analyze(db, sql)
            assert _actual_rows(lines, "NestedLoopJoin") == matches

    def test_time_and_batches_are_reported(self):
        with Database() as db:
            _setup(db)
            lines = _analyze(db, "SELECT id FROM stocks")
            assert re.search(r"batches=\d+ time=\d+\.\d+ ms", lines[0])

    def test_plain_explain_has_no_actuals(self):
        with Database() as db:
            _setup(db)
            lines = [
                line
                for (line,) in db.execute("EXPLAIN SELECT id FROM stocks")
            ]
            assert not any("actual" in line for line in lines)
            assert not any("UDF profiles" in line for line in lines)


class TestUDFProfileSection:
    @pytest.mark.parametrize(
        "design,tag",
        [
            (Design.NATIVE_INTEGRATED, "native_integrated"),
            (Design.NATIVE_SFI, "native_sfi"),
            (Design.NATIVE_ISOLATED, "native_isolated"),
            (Design.SANDBOX_JIT, "sandbox_jit"),
        ],
    )
    def test_profile_line_per_design(self, design, tag):
        """All four executor classes surface per-UDF profile lines."""
        with Database() as db:
            _setup(db, design)
            lines = _analyze(db, "SELECT t1(id) FROM stocks")
            assert "-- UDF profiles --" in lines
            profile_line = next(
                line for line in lines if line.startswith(f"udf t1 [{tag}]")
            )
            # One invocation per row actually reached the UDF.
            assert "calls=10" in profile_line

    def test_sandbox_profile_reports_fuel(self):
        with Database() as db:
            _setup(db, Design.SANDBOX_JIT)
            lines = _analyze(db, "SELECT t1(id) FROM stocks")
            profile_line = next(
                line for line in lines if line.startswith("udf t1 [")
            )
            match = re.search(r"fuel=(\d+)", profile_line)
            assert match is not None and int(match.group(1)) > 0

    def test_isolated_profile_reports_pool_latencies(self):
        with Database() as db:
            _setup(db, Design.NATIVE_ISOLATED)
            lines = _analyze(db, "SELECT t1(id) FROM stocks")
            profile_line = next(
                line for line in lines if line.startswith("udf t1 [")
            )
            assert "round_trip_p50=" in profile_line

    def test_analyze_profiles_are_per_run(self):
        """The rendered numbers are one run's, not cumulative."""
        with Database() as db:
            _setup(db, Design.SANDBOX_JIT)
            first = _analyze(db, "SELECT t1(id) FROM stocks")
            second = _analyze(db, "SELECT t1(id) FROM stocks")
            line_1 = next(l for l in first if l.startswith("udf t1 ["))
            line_2 = next(l for l in second if l.startswith("udf t1 ["))
            assert "calls=10" in line_1
            assert "calls=10" in line_2


class TestChannelStats:
    def test_channel_stats_gain_latency_summaries_under_profile(self):
        from repro.core.isolated import RemoteExecutor
        from repro.obs import MetricsRegistry, QueryProfile

        from tests.sql.test_batch_parity import triple  # noqa: F401
        from repro.core.udf import (
            ServerEnvironment,
            UDFDefinition,
            UDFSignature,
        )
        from repro.core.callbacks import CallbackBroker
        from repro.vm.machine import JaguarVM

        broker = CallbackBroker()
        env = ServerEnvironment(
            vm=JaguarVM(broker.signatures()), broker=broker
        )
        definition = UDFDefinition(
            name="t1",
            signature=UDFSignature(("int",), "int"),
            design=Design.NATIVE_ISOLATED,
            payload=b"tests.sql.test_batch_parity:triple",
            entry="triple",
        )
        executor = RemoteExecutor(definition, env, parallelism=1)
        try:
            # Without a profile: the seed keys only.
            stats = executor.channel_stats()
            assert "round_trip_ns" not in stats
            profile = QueryProfile(MetricsRegistry())
            executor.profile = profile.udf("t1", "native_isolated")
            executor.begin_query(broker.bind())
            assert executor.invoke_batch([(x,) for x in range(8)]) == [
                x * 3 for x in range(8)
            ]
            stats = executor.channel_stats()
            assert stats["round_trip_ns"]["count"] >= 1
        finally:
            executor.profile = None
            executor.close()
            env.close()
