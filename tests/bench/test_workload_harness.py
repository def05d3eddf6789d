"""Benchmark harness: workload correctness and tiny smoke sweeps."""

import pytest

from repro.bench.figures import (
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
)
from repro.bench.harness import ExperimentResult, Timer, measure_udf_cost
from repro.bench.workload import (
    PAPER_DESIGNS,
    BenchmarkWorkload,
    pattern_bytes,
)
from repro.core.designs import Design


@pytest.fixture(scope="module")
def workload():
    with BenchmarkWorkload(cardinality=60, sizes=(1, 100, 1000)) as wl:
        yield wl


FAST_TIMER = Timer(repeat=1, warmup=0)


class TestWorkload:
    def test_tables_built(self, workload):
        for size in (1, 100, 1000):
            count = workload.db.execute(
                f"SELECT count(*) FROM rel{size}"
            ).scalar()
            assert count == 60

    def test_pattern_bytes_deterministic(self):
        assert pattern_bytes(32, 5) == pattern_bytes(32, 5)
        assert pattern_bytes(32, 5) != pattern_bytes(32, 6)

    def test_arrays_inline_not_lob(self, workload):
        # The workload keeps byte arrays inline (see module docstring).
        from repro.storage.lob import LOBRef

        table = workload.db.catalog.get_table("rel1000")
        from repro.storage.record import deserialize_record

        __, record = next(table.heap.scan())
        row = deserialize_record(record, table.column_types())
        assert not isinstance(row[1], LOBRef)

    def test_generic_udf_results_correct_per_design(self, workload):
        for design in PAPER_DESIGNS:
            udf = workload.generic_names[design]
            sql = workload.udf_query(100, udf, 1, num_indep=5, num_dep=2)
            got = workload.db.execute(sql).scalar()
            assert got == workload.expected_generic_result(0, 100, 5, 2, 0)

    def test_query_templates(self, workload):
        noop = workload.noop_names[Design.NATIVE_INTEGRATED]
        sql = workload.udf_query(1, noop, 10)
        assert workload.db.execute(sql).rowcount == 10
        assert workload.db.execute(workload.base_query(1, 10)).rowcount == 10


class TestHarness:
    def test_measure_udf_cost_nonnegative(self, workload):
        noop = workload.noop_names[Design.NATIVE_INTEGRATED]
        cost = measure_udf_cost(
            workload, 1, noop, 20, timer=FAST_TIMER
        )
        assert cost >= 0.0

    def test_base_cache_reused(self, workload):
        noop = workload.noop_names[Design.NATIVE_INTEGRATED]
        cache = {}
        measure_udf_cost(workload, 1, noop, 20, timer=FAST_TIMER,
                         base_cache=cache)
        assert (1, 20) in cache
        before = dict(cache)
        measure_udf_cost(workload, 1, noop, 20, timer=FAST_TIMER,
                         base_cache=cache)
        assert cache == before

    def test_relative_panel(self):
        result = ExperimentResult("x", "t", "n")
        result.add_point("A", 1, 2.0)
        result.add_point("A", 2, 4.0)
        result.add_point("B", 1, 4.0)
        result.add_point("B", 2, 4.0)
        relative = result.relative_to("A")
        assert dict(relative.series["B"]) == {1: 2.0, 2: 1.0}
        assert dict(relative.series["A"]) == {1: 1.0, 2: 1.0}


class TestFigureSmoke:
    """Each figure runs end-to-end at toy scale and produces the
    expected series structure."""

    def test_table1(self):
        result = run_table1()
        rows = result.meta["rows"]
        assert len(rows) == 6
        assert {row["design"] for row in rows} >= {"C++", "IC++", "JNI"}

    def test_fig4(self, workload):
        result = run_fig4(workload, invocation_counts=(5, 20),
                          timer=FAST_TIMER)
        assert set(result.series) == {"Rel1", "Rel100", "Rel1000"}
        for points in result.series.values():
            assert len(points) == 2

    def test_fig5(self, workload):
        result = run_fig5(workload, invocations=30, timer=FAST_TIMER)
        assert set(result.series) == {"C++", "IC++", "JNI"}

    def test_fig6(self, workload):
        result = run_fig6(
            workload, invocations=20, computation_sweep=(0, 50),
            size=100, timer=FAST_TIMER,
        )
        assert all(len(points) == 2 for points in result.series.values())

    def test_fig7(self, workload):
        result = run_fig7(
            workload, invocations=10, passes_sweep=(0, 2), size=1000,
            timer=FAST_TIMER,
        )
        assert "C++/bounds" in result.series

    def test_fig8(self, workload):
        result = run_fig8(
            workload, invocations=10, callback_sweep=(0, 3), size=1,
            timer=FAST_TIMER,
        )
        assert set(result.series) == {"C++", "IC++", "JNI"}

    def test_report_rendering(self, workload):
        from repro.bench.report import render

        result = run_fig5(workload, invocations=10, timer=FAST_TIMER)
        text = render(result)
        assert "fig5" in text
        assert "JNI" in text
        table1 = render(run_table1())
        assert "IC++" in table1
