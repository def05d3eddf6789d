"""Figure 4 — calibration: table access costs.

The trivial integrated UDF over each relation, varying how many tuples
qualify.  These are the base system costs every later figure subtracts.
Per-cell pytest benchmarks give the raw numbers; the shape test checks
the paper's two visible trends: cost grows with the number of calls,
and bigger byte arrays make the scan dearer.
"""

import pytest
from conftest import CARDINALITY, once

from repro.bench.figures import run_fig4
from repro.bench.report import render
from repro.bench.workload import BenchmarkWorkload
from repro.core.designs import Design

#: The shape test compares each relation at its fewest and most calls.
#: At the shared workload's cardinality, Rel10000's two points are only
#: ~0.7 ms apart (best of 5), close enough for host noise to reverse
#: them now and then; three times the rows triples the gap.
SHAPE_CARDINALITY = 3 * CARDINALITY


@pytest.fixture(scope="module")
def shape_workload():
    with BenchmarkWorkload(cardinality=SHAPE_CARDINALITY) as wl:
        yield wl


@pytest.mark.parametrize("size", [1, 100, 10000])
@pytest.mark.parametrize("calls_fraction", [0.1, 1.0])
def test_table_access_cost(benchmark, workload, size, calls_fraction):
    invocations = max(1, int(CARDINALITY * calls_fraction))
    noop = workload.noop_names[Design.NATIVE_INTEGRATED]
    sql = workload.udf_query(size, noop, invocations)
    benchmark(workload.db.execute, sql)


def test_fig4_shape(benchmark, shape_workload, timer):
    counts = (
        max(1, SHAPE_CARDINALITY // 100),
        max(1, SHAPE_CARDINALITY // 10),
        SHAPE_CARDINALITY,
    )
    result = once(
        benchmark,
        lambda: run_fig4(
            shape_workload, invocation_counts=counts, timer=timer
        ),
    )
    print()
    print(render(result))

    # More invocations cost more (within each relation).
    for label, points in result.series.items():
        xs = [x for x, __ in points]
        ys = [y for __, y in points]
        assert ys[xs.index(max(xs))] > ys[xs.index(min(xs))]

    # At the full-scan point, larger byte arrays cost more to access.
    full = {
        label: dict(points)[SHAPE_CARDINALITY]
        for label, points in result.series.items()
    }
    assert full["Rel10000"] > full["Rel1"]
