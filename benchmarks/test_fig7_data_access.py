"""Figure 7 — effect of data access.

The paper: sandboxed UDFs pay for run-time array bounds checking when
the computation is data-dependent — "there is a significant penalty
paid ... this is the price paid for security" — but compared with a
*bounds-checked* native UDF (the fair baseline) "JNI performs only 20%
worse".  We sweep NumDataDepComps over the 10,000-byte relation with
the C++/bounds variant included.

Here the penalty is gone: the bounds certifier proves every access of
the generic UDF's byte loop in bounds, and the JIT's certified clone
emits those accesses unchecked, so JNI runs at raw C++ speed and below
the bounds-checked native variant.
"""

import pytest
from conftest import once

from repro.bench.figures import run_fig7
from repro.bench.report import render
from repro.bench.workload import PAPER_DESIGNS
from repro.core.designs import Design

INVOCATIONS = 20
SWEEP = (0, 1, 4, 8)
DESIGNS = PAPER_DESIGNS + (Design.NATIVE_SFI,)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.paper_label)
def test_data_access(benchmark, workload, design):
    udf = workload.generic_names[design]
    sql = workload.udf_query(10000, udf, INVOCATIONS, num_dep=4)
    rounds = 3 if design.is_isolated else 5
    benchmark.pedantic(
        workload.db.execute, args=(sql,), rounds=rounds, iterations=1
    )


def test_fig7_shape(benchmark, workload, timer):
    result = once(
        benchmark,
        lambda: run_fig7(
            workload, invocations=INVOCATIONS, passes_sweep=SWEEP,
            designs=DESIGNS, timer=timer,
        ),
    )
    print()
    print(render(result))
    print(render(result.relative_to("C++")))

    cpp = dict(result.series["C++"])
    bounds = dict(result.series["C++/bounds"])
    jni = dict(result.series["JNI"])
    top = SWEEP[-1]

    # Data access dominates as passes grow.
    assert jni[top] > 3 * max(jni[SWEEP[1]], 1e-6)

    # Bounds-checked native is itself slower than raw native...
    assert bounds[top] > cpp[top]

    # ...and the sandbox, whose proven accesses carry no check, is no
    # slower than it (the paper saw JNI within ~1.2x of it).
    assert jni[top] <= bounds[top], (jni[top], bounds[top])

    # JNI runs at raw C++ speed: about 1.0x, within a 0.5x-2x band so
    # timing noise on a shared host cannot flip the check.
    ratio = jni[top] / max(cpp[top], 1e-9)
    assert 0.5 < ratio < 2.0, f"JNI / C++ = {ratio:.2f}"
