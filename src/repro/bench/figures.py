"""Per-figure experiment definitions (Table 1 and Figures 4-8).

Each ``run_figN`` executes the paper's sweep on a
:class:`~repro.bench.workload.BenchmarkWorkload` and returns an
:class:`~repro.bench.harness.ExperimentResult` whose series carry the
paper's labels (``C++``, ``IC++``, ``JNI``, ...).  Default sweep sizes
are scaled down from the paper's 10,000-invocation runs; every run
records its actual parameters in ``meta``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.designs import Design, design_space
from .harness import ExperimentResult, Timer, measure_udf_cost
from .workload import PAPER_DESIGNS, BenchmarkWorkload


def run_table1() -> ExperimentResult:
    """Table 1 plus the qualitative security columns of Section 6."""
    result = ExperimentResult(
        experiment="table1",
        title="Design space for server-side UDFs",
        x_label="-",
    )
    result.meta["rows"] = [
        {
            "design": props.design.paper_label,
            "language": props.design.language,
            "process": "isolated" if props.design.is_isolated else "same",
            "crash_contained": props.crash_contained,
            "memory_safe": props.memory_safe,
            "resources_policed": props.resources_policed,
            "portable": props.portable,
            "boundary": props.boundary_cost,
        }
        for props in design_space()
    ]
    return result


def run_fig4(
    workload: BenchmarkWorkload,
    invocation_counts: Sequence[int] = (10, 100, 1000),
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Figure 4 — calibration: table access costs.

    The trivial integrated UDF runs over each relation while the number
    of qualifying tuples varies; the resulting times are the base system
    costs later experiments subtract.
    """
    timer = timer or Timer()
    result = ExperimentResult(
        experiment="fig4",
        title="Calibration: table access costs",
        x_label="# of func calls",
        meta={"invocation_counts": list(invocation_counts)},
    )
    noop = workload.noop_names[Design.NATIVE_INTEGRATED]
    counts = [min(count, workload.cardinality) for count in invocation_counts]
    for size in workload.sizes:
        # One relation's points are timed round-robin: they differ by
        # a fraction of a millisecond, less than a busy host's drift.
        seconds = timer.time_each([
            lambda sql=workload.udf_query(size, noop, count):
                workload.db.execute(sql)
            for count in counts
        ])
        for count, elapsed in zip(counts, seconds):
            result.add_point(f"Rel{size}", count, elapsed)
    return result


def run_fig5(
    workload: BenchmarkWorkload,
    invocations: int = 1000,
    designs: Sequence[Design] = PAPER_DESIGNS,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Figure 5 — calibration: function invocation costs.

    No-op UDFs under each design, bytearray size on the X axis; base
    table-access cost subtracted.
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    result = ExperimentResult(
        experiment="fig5",
        title="Calibration: function invocation costs",
        x_label="byte array size",
        meta={"invocations": invocations},
    )
    base_cache: Dict[Tuple[int, int], float] = {}
    for design in designs:
        label = design.paper_label
        udf = workload.noop_names[design]
        for size in workload.sizes:
            cost = measure_udf_cost(
                workload, size, udf, invocations,
                timer=timer, base_cache=base_cache,
            )
            result.add_point(label, size, cost)
    return result


def run_fig6(
    workload: BenchmarkWorkload,
    invocations: int = 200,
    computation_sweep: Sequence[int] = (0, 100, 1000, 10000),
    designs: Sequence[Design] = PAPER_DESIGNS,
    size: int = 10000,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Figure 6 — effect of (data-independent) computation.

    NumDataIndepComps varies; the paper's finding is that the JNI line
    tracks C++ with a near-constant gap (the JIT executes computation
    competitively).
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    result = ExperimentResult(
        experiment="fig6",
        title="Pure computation",
        x_label="DataIndepComps",
        meta={"invocations": invocations, "bytearray": size},
    )
    base_cache: Dict[Tuple[int, int], float] = {}
    for design in designs:
        label = design.paper_label
        udf = workload.generic_names[design]
        for amount in computation_sweep:
            cost = measure_udf_cost(
                workload, size, udf, invocations,
                num_indep=amount, timer=timer, base_cache=base_cache,
            )
            result.add_point(label, amount, cost)
    return result


def run_fig7(
    workload: BenchmarkWorkload,
    invocations: int = 100,
    passes_sweep: Sequence[int] = (0, 1, 4, 16),
    designs: Sequence[Design] = PAPER_DESIGNS + (Design.NATIVE_SFI,),
    size: int = 10000,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Figure 7 — effect of data access.

    NumDataDepComps varies over the 10,000-byte relation.  Includes the
    bounds-checked native variant (Section 5.4's "second version of the
    C++ UDF"): JNI should stay within a small factor of it.
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    result = ExperimentResult(
        experiment="fig7",
        title="Data access",
        x_label="DataDepComps",
        meta={"invocations": invocations, "bytearray": size},
    )
    base_cache: Dict[Tuple[int, int], float] = {}
    for design in designs:
        label = design.paper_label
        udf = workload.generic_names[design]
        for passes in passes_sweep:
            cost = measure_udf_cost(
                workload, size, udf, invocations,
                num_dep=passes, timer=timer, base_cache=base_cache,
            )
            result.add_point(label, passes, cost)
    return result


def run_fig8(
    workload: BenchmarkWorkload,
    invocations: int = 200,
    callback_sweep: Sequence[int] = (0, 1, 10, 50),
    designs: Sequence[Design] = PAPER_DESIGNS,
    size: int = 100,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Figure 8 — effect of callbacks.

    NumCallbacks varies; the functions do no other work.  The isolated
    design pays a process-boundary crossing per callback and should grow
    steeply; the in-process sandbox grows gently.
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    result = ExperimentResult(
        experiment="fig8",
        title="Callbacks",
        x_label="Callbacks",
        meta={"invocations": invocations, "bytearray": size},
    )
    base_cache: Dict[Tuple[int, int], float] = {}
    for design in designs:
        label = design.paper_label
        udf = workload.generic_names[design]
        for callbacks in callback_sweep:
            cost = measure_udf_cost(
                workload, size, udf, invocations,
                num_callbacks=callbacks, timer=timer, base_cache=base_cache,
            )
            result.add_point(label, callbacks, cost)
    return result
