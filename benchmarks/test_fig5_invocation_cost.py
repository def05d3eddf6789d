"""Figure 5 — calibration: function invocation costs.

No-op UDFs under C++ / IC++ / JNI with the byte-array size swept.  The
paper's findings to reproduce:

* "the invocation cost of IC++ is higher than for JNI" at small
  payloads (process hand-off beats in-process marshalling);
* 10,000 invocations of a Java UDF incur "only a marginal cost";
* "for both JNI and IC++, the extra overhead is insignificant compared
  to the overall cost of the queries."
"""

import pytest
from conftest import CARDINALITY, once

from repro.bench.figures import run_fig5
from repro.bench.harness import time_query
from repro.bench.report import render
from repro.bench.workload import PAPER_DESIGNS, BenchmarkWorkload
from repro.core.designs import Design

#: Finding 3 is the shape test's closest comparison: IC++ at Rel10000
#: against 20x the bare scan reads ~0.27 on a quiet host, and up to
#: ~0.73 with the host's two CPUs contended, since the hand-off needs
#: server and worker on a CPU while the scan needs one.  Three times the
#: rows amortize the per-query worker start and lengthen every timed
#: run, so a slow stretch must last three times as long to reach the
#: best of five: ~0.15-0.28 quiet and up to ~0.42 contended.
SHAPE_CARDINALITY = 3 * CARDINALITY


@pytest.fixture(scope="module")
def shape_workload():
    with BenchmarkWorkload(cardinality=SHAPE_CARDINALITY) as wl:
        yield wl


@pytest.mark.parametrize(
    "design", PAPER_DESIGNS, ids=lambda d: d.paper_label
)
@pytest.mark.parametrize("size", [1, 100, 10000])
def test_invocation_cost(benchmark, workload, design, size):
    udf = workload.noop_names[design]
    sql = workload.udf_query(size, udf, CARDINALITY)
    if design.is_isolated:
        # A fresh executor process per query, as in the paper; keep the
        # per-round cost bounded by using fewer rounds.
        benchmark.pedantic(
            workload.db.execute, args=(sql,), rounds=3, iterations=1
        )
    else:
        benchmark(workload.db.execute, sql)


def test_fig5_shape(benchmark, shape_workload, timer):
    workload = shape_workload
    result = once(
        benchmark,
        lambda: run_fig5(
            workload, invocations=SHAPE_CARDINALITY, timer=timer
        ),
    )
    print()
    print(render(result))
    cpp = dict(result.series["C++"])
    icpp = dict(result.series["IC++"])
    jni = dict(result.series["JNI"])

    # Finding 1: JNI invocation overhead < IC++ at small payloads.
    assert jni[1] < icpp[1]
    assert jni[100] < icpp[100]

    # Finding 2: the JNI overhead is small in absolute terms — within a
    # small multiple of the (already tiny) native overhead budget.
    base = time_query(
        workload, workload.base_query(1, SHAPE_CARDINALITY), timer
    )
    assert jni[1] < 5 * max(base, 1e-9) + 0.5

    # Finding 3: everything is dominated by the overall query cost at
    # the large size (where scanning 10 KB rows is the real work).
    base_big = time_query(
        workload, workload.base_query(10000, SHAPE_CARDINALITY), timer
    )
    assert icpp[10000] < 20 * max(base_big, 1e-9)
