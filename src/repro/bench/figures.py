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
from .harness import ExperimentResult, Timer, measure_udf_cost, time_query
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
    for size in workload.sizes:
        label = f"Rel{size}"
        for count in invocation_counts:
            count = min(count, workload.cardinality)
            sql = workload.udf_query(size, noop, count)
            result.add_point(label, count, time_query(workload, sql, timer))
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


DEFAULT_BATCH_SWEEP = (1, 2, 8, 64)


def run_batching(
    workload: BenchmarkWorkload,
    invocations: int = 1000,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SWEEP,
    designs: Sequence[Design] = PAPER_DESIGNS,
    sizes: Optional[Sequence[int]] = None,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Batched execution sweep: batch size × design × bytearray size.

    Fig 5's no-op invocation-cost protocol, re-run at several executor
    batch sizes over the same populated database (``db.batch_size`` is
    mutated between sweeps and restored afterwards).  Base table-access
    cost is measured per batch size too, since the scan itself also runs
    batched.  For the isolated design, one instrumented batch per
    configuration records the shared-memory channel's chunk/message
    counters in ``meta["shm_stats"]``.
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    if sizes is None:
        sizes = workload.sizes
    result = ExperimentResult(
        experiment="batching",
        title="Batched execution: invocation cost vs batch size",
        x_label="batch size",
        meta={
            "invocations": invocations,
            "batch_sizes": list(batch_sizes),
            "sizes": list(sizes),
        },
    )
    shm_stats = {}
    saved = workload.db.batch_size
    try:
        for batch in batch_sizes:
            workload.db.batch_size = batch
            base_cache: Dict[Tuple[int, int], float] = {}
            for design in designs:
                udf = workload.noop_names[design]
                for size in sizes:
                    cost = measure_udf_cost(
                        workload, size, udf, invocations,
                        timer=timer, base_cache=base_cache,
                    )
                    label = f"{design.paper_label} Rel{size}"
                    result.add_point(label, batch, cost)
            if any(d.is_isolated for d in designs):
                for size in sizes:
                    shm_stats[f"batch={batch},Rel{size}"] = (
                        measure_shm_batch_stats(workload, size, batch)
                    )
    finally:
        workload.db.batch_size = saved
    result.meta["shm_stats"] = shm_stats
    return result


def measure_shm_batch_stats(
    workload: BenchmarkWorkload, size: int, batch: int
) -> Dict[str, int]:
    """IPC traffic for one batched no-op invocation round (Design 2).

    Spawns a fresh remote executor (so its buffer is pre-sized for the
    current ``db.batch_size``), sends one batch of ``batch`` argument
    tuples, and returns the server-side channel counters — the
    chunk-per-message ratio shows whether the pre-sized buffer fits the
    batch payload in a single hand-off.
    """
    from ..core.isolated import RemoteExecutor
    from .workload import pattern_bytes

    registry = workload.db.registry
    name = workload.noop_names[Design.NATIVE_ISOLATED]
    definition = registry.get(name)
    executor = RemoteExecutor(definition, workload.db.environment)
    try:
        executor.begin_query()
        args_list = [
            (bytearray(pattern_bytes(size, row)), 0, 0, 0)
            for row in range(batch)
        ]
        executor.invoke_batch(args_list)
        return executor.channel_stats()
    finally:
        executor.close()


#: The paper's four execution designs: C++, IC++, JNI, and the
#: interpreted JNI variant (Section 5's "with the JIT turned off").
INLINING_DESIGNS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_ISOLATED,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)


def run_inlining(
    workload: BenchmarkWorkload,
    invocations: int = 1000,
    designs: Sequence[Design] = INLINING_DESIGNS,
    sizes: Optional[Sequence[int]] = None,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Froid-style inlining sweep: Fig 5's invocation-cost protocol
    re-run on a pure arithmetic UDF, opaque vs inlined.

    Three kinds of series, all with base table-access cost subtracted:

    * ``SQL expr`` — the equivalent native SQL expression
      (``id * 3 + 1``), the floor the inlined curves should sit on;
    * ``<design> opaque`` — the UDF with ``inlining=False``, which
      retains each design's per-invocation overhead;
    * ``<design> inlined`` — the same query with ``inlining=True``.
      Sandboxed designs collapse onto the SQL-expression line (the
      decompiler lifts the body, so no VM is entered); native designs
      carry opaque host code, refuse with ``impure``, and stay on
      their opaque curve.

    ``meta["inline_status"]`` records the decompiler's verdict per
    design (``inlined`` or the structured refusal).
    """
    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    if sizes is None:
        sizes = workload.sizes
    result = ExperimentResult(
        experiment="inlining",
        title="UDF inlining: invocation cost, opaque vs inlined",
        x_label="byte array size",
        meta={"invocations": invocations, "sizes": list(sizes)},
    )
    status = {}
    for design in designs:
        inline = workload.db.registry.get(workload.arith_names[design]).inline
        if hasattr(inline, "expr"):
            status[design.value] = "inlined"
        elif hasattr(inline, "reason"):
            status[design.value] = f"opaque({inline.reason})"
        else:
            status[design.value] = "opaque(call-site)"
    result.meta["inline_status"] = status
    base_cache: Dict[Tuple[int, int], float] = {}

    def base(size: int) -> float:
        key = (size, invocations)
        if key not in base_cache:
            base_cache[key] = time_query(
                workload, workload.base_query(size, invocations), timer
            )
        return base_cache[key]

    saved = workload.db.inlining
    try:
        workload.db.inlining = False
        for size in sizes:
            sql = workload.arith_expr_query(size, invocations)
            cost = max(time_query(workload, sql, timer) - base(size), 0.0)
            result.add_point("SQL expr", size, cost)
        for mode, inlining in (("opaque", False), ("inlined", True)):
            workload.db.inlining = inlining
            for design in designs:
                udf = workload.arith_names[design]
                for size in sizes:
                    sql = workload.arith_query(size, udf, invocations)
                    cost = max(
                        time_query(workload, sql, timer) - base(size), 0.0
                    )
                    label = f"{design.paper_label} {mode}"
                    result.add_point(label, size, cost)
    finally:
        workload.db.inlining = saved
    return result


TIERING_DESIGNS = (
    Design.NATIVE_INTEGRATED,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
    Design.SANDBOX_ISOLATED,
)

DEFAULT_TIERING_COUNTS = (100, 1000, 2000)
TIERING_BATCH_SIZE = 64


def run_tiering(
    workload: BenchmarkWorkload,
    invocation_counts: Sequence[int] = DEFAULT_TIERING_COUNTS,
    designs: Sequence[Design] = TIERING_DESIGNS,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Tiered-execution sweep: the arith UDF, tier 0 vs tier 1.

    Fig 5's protocol (base table-access cost subtracted) applied to the
    pure arithmetic UDF over ``Rel1`` at batch size 64, with the number
    of qualifying tuples on the X axis:

    * ``<design> tier0`` — ``tiering=False``: the seed execution paths.
    * ``<design> tier1`` — ``tiering=True`` with ``tier1_threshold=0``,
      warmed before timing so promotion and kernel compilation are paid
      once outside the measurement.  In-process sandboxed designs run
      the type-specialized whole-batch kernel; the native control
      (``C++``) has no bytecode to specialize and must stay ~1.00x.

    Measurements are *interleaved*: each timing round runs base, tier 0,
    and tier 1 back to back (flipping ``db.tiering`` between them) and
    the best round of each wins, so a noisy neighbour slowing the
    machine for a stretch skews all three curves together instead of
    corrupting one mode's entire series.

    ``meta["tier_status"]`` records each design's post-sweep tier state
    (promotions, deopts, tier-1 batches, or the eligibility refusal);
    isolated designs promote inside their worker processes, whose
    executors are per-query, so they report ``worker-local``.
    """
    from time import perf_counter

    timer = timer or Timer()
    size = workload.sizes[0]
    counts = [min(c, workload.cardinality) for c in invocation_counts]
    result = ExperimentResult(
        experiment="tiering",
        title="Tiered execution: arith UDF cost, tier 0 vs tier 1",
        x_label="# of func calls",
        meta={
            "invocation_counts": counts,
            "size": size,
            "batch_size": TIERING_BATCH_SIZE,
            "tier1_threshold": 0,
        },
    )

    db = workload.db
    execute = db.execute

    def once(sql: str) -> float:
        start = perf_counter()
        execute(sql)
        return perf_counter() - start

    saved = (db.tiering, db.tier1_threshold, db.batch_size)
    status: Dict[str, object] = {}
    totals: Dict[str, Dict[str, Dict[int, float]]] = {}
    try:
        db.batch_size = TIERING_BATCH_SIZE
        db.tier1_threshold = 0
        for design in designs:
            udf = workload.arith_names[design]
            per_design = totals.setdefault(
                design.value, {"base": {}, "tier0": {}, "tier1": {}}
            )
            for count in counts:
                sql = workload.arith_query(size, udf, count)
                base_sql = workload.base_query(size, count)
                for __ in range(timer.warmup):
                    execute(base_sql)
                    db.tiering = False
                    execute(sql)
                    db.tiering = True
                    execute(sql)  # promotes + compiles the kernel
                best_base = best0 = best1 = float("inf")
                for __ in range(timer.repeat):
                    best_base = min(best_base, once(base_sql))
                    db.tiering = False
                    best0 = min(best0, once(sql))
                    db.tiering = True
                    best1 = min(best1, once(sql))
                label = design.paper_label
                result.add_point(
                    f"{label} tier0", count, max(best0 - best_base, 0.0)
                )
                result.add_point(
                    f"{label} tier1", count, max(best1 - best_base, 0.0)
                )
                per_design["base"][count] = best_base
                per_design["tier0"][count] = best0
                per_design["tier1"][count] = best1
            executor = db.registry.executor_for_query(udf)
            state = getattr(executor, "_tier", None)
            if state is not None:
                status[design.value] = state.snapshot()
            elif design.is_isolated:
                status[design.value] = "worker-local"
            else:
                status[design.value] = "tier0(native-control)"
    finally:
        db.tiering, db.tier1_threshold, db.batch_size = saved
    result.meta["tier_status"] = status
    # Raw (un-subtracted) end-to-end times: the honest way to state the
    # native control's "~1.00x" — subtracting two nearly-equal scans
    # leaves noise-dominated residuals there.
    result.meta["totals"] = totals
    return result


DEFAULT_PARALLELISM_SWEEP = (1, 2, 4)


def run_parallelism(
    workload: BenchmarkWorkload,
    invocations: int = 1000,
    parallelism_levels: Sequence[int] = DEFAULT_PARALLELISM_SWEEP,
    designs: Sequence[Design] = PAPER_DESIGNS,
    sizes: Optional[Sequence[int]] = None,
    timer: Optional[Timer] = None,
) -> ExperimentResult:
    """Parallel execution sweep: worker count × design × bytearray size.

    Fig 5's no-op invocation-cost protocol re-run at several parallelism
    levels over the same populated database (``db.parallelism`` is
    mutated between sweeps and restored afterwards).  The isolated
    designs shard each ``invoke_batch`` across a worker pool; the
    in-process sandboxes parallelize across Exchange threads when the
    optimizer places an Exchange.  Base table-access cost is measured
    per level — the scan is serial, so its cost should be level-
    independent, and measuring it per level keeps the subtraction
    honest.  ``meta["pool_stats"]`` records the per-worker channel
    counters of one instrumented pooled batch per configuration, and
    ``meta["cpu_count"]`` records the host's core count: on a
    single-core host the sweep measures overhead, not speedup.
    """
    import os

    timer = timer or Timer()
    invocations = min(invocations, workload.cardinality)
    if sizes is None:
        sizes = workload.sizes
    result = ExperimentResult(
        experiment="parallelism",
        title="Parallel execution: invocation cost vs worker count",
        x_label="parallelism",
        meta={
            "invocations": invocations,
            "parallelism_levels": list(parallelism_levels),
            "sizes": list(sizes),
            "cpu_count": os.cpu_count(),
        },
    )
    pool_stats = {}
    saved = workload.db.parallelism
    try:
        for level in parallelism_levels:
            workload.db.parallelism = level
            base_cache: Dict[Tuple[int, int], float] = {}
            for design in designs:
                udf = workload.noop_names[design]
                for size in sizes:
                    cost = measure_udf_cost(
                        workload, size, udf, invocations,
                        timer=timer, base_cache=base_cache,
                    )
                    label = f"{design.paper_label} Rel{size}"
                    result.add_point(label, level, cost)
            if any(d.is_isolated for d in designs):
                for size in sizes:
                    pool_stats[f"parallel={level},Rel{size}"] = (
                        measure_pool_channel_stats(workload, size, level)
                    )
    finally:
        workload.db.parallelism = saved
    result.meta["pool_stats"] = pool_stats
    return result


def measure_pool_channel_stats(
    workload: BenchmarkWorkload, size: int, parallelism: int
) -> Dict[str, object]:
    """IPC traffic for one pooled no-op batch round (Design 2).

    Spawns a fresh remote executor with an explicit pool width, sends
    one 64-tuple batch, and returns the aggregated channel counters —
    ``per_worker`` shows how the batch was sharded (each participating
    worker should log one message pair), the rollup keys stay
    compatible with :func:`measure_shm_batch_stats` consumers.
    """
    from ..core.isolated import RemoteExecutor
    from .workload import pattern_bytes

    registry = workload.db.registry
    name = workload.noop_names[Design.NATIVE_ISOLATED]
    definition = registry.get(name)
    executor = RemoteExecutor(
        definition, workload.db.environment, parallelism=parallelism
    )
    try:
        executor.begin_query()
        args_list = [
            (bytearray(pattern_bytes(size, row)), 0, 0, 0)
            for row in range(64)
        ]
        executor.invoke_batch(args_list)
        return executor.channel_stats()
    finally:
        executor.close()


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


DEFAULT_CLIENT_SWEEP = (1, 2, 4, 8)


def _percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    index = int(round(q * (len(ordered) - 1)))
    return ordered[index]


def run_server(
    cardinality: int = 2000,
    client_counts: Sequence[int] = DEFAULT_CLIENT_SWEEP,
    statements_per_client: int = 60,
    concurrency: int = 8,
    scan_limit: int = 256,
) -> ExperimentResult:
    """Concurrent-server sweep: wire throughput vs number of clients.

    A read-heavy UDF workload (one sandboxed arithmetic UDF over the
    first ``scan_limit`` rows of a ``cardinality``-row table) is issued
    over real TCP connections against one
    :class:`~repro.server.server.DatabaseServer`.  For each client
    count, every client runs ``statements_per_client`` statements on its
    own thread and connection; the series record whole-sweep throughput
    (statements/second) and client-observed latency percentiles.

    Since every client issues the same SQL text, the sweep also
    exercises the shared plan cache; ``meta["plan_cache_latency"]``
    isolates that effect directly — the server-side latency of the same
    planning-heavy statement with the cache defeated (cleared before
    every execution) vs hitting, medians over repeated runs.

    ``meta["cpu_count"]`` matters: on a single-core host concurrent
    clients time-slice one core, so throughput *cannot* scale and the
    sweep measures multiplexing overhead instead of speedup.
    """
    import os
    import threading
    from statistics import median
    from time import perf_counter

    from ..database import Database
    from ..server.server import DatabaseServer
    from ..server.client import Client

    result = ExperimentResult(
        experiment="server",
        title="Concurrent server: clients vs wire throughput",
        x_label="Clients",
        meta={
            "cardinality": cardinality,
            "statements_per_client": statements_per_client,
            "concurrency": concurrency,
            "scan_limit": scan_limit,
            "cpu_count": os.cpu_count(),
        },
    )

    db = Database()
    db.execute("CREATE TABLE metrics (id INT, v INT)")
    db.insert_rows(
        "metrics", [(i, i % 97) for i in range(cardinality)]
    )
    db.execute(
        "CREATE FUNCTION arith(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX AS "
        "'def arith(x: int) -> int: return x * 3 + 1'"
    )
    sql = (
        f"SELECT count(*), sum(arith(v)) FROM metrics "
        f"WHERE id < {scan_limit}"
    )

    # -- plan-cache latency: miss (cache cleared) vs hit ----------------
    # Measured over a deliberately tiny table so parse/plan/optimize
    # dominates execution; against ``metrics`` the scan would bury the
    # planning cost the cache removes.
    db.snapshots.enable(db)
    db.execute("CREATE TABLE plan_demo (id INT, v INT)")
    db.insert_rows("plan_demo", [(i, i) for i in range(8)])
    plan_sql = (
        "SELECT id, v FROM plan_demo WHERE id < 4 AND v >= 0 "
        "AND id + v < 100 AND v * 2 >= 0 ORDER BY id, v"
    )
    misses, hits = [], []
    for __ in range(25):
        db.plan_cache.clear()
        start = perf_counter()
        db.execute(plan_sql)
        misses.append(perf_counter() - start)
    db.execute(plan_sql)  # prime
    for __ in range(25):
        start = perf_counter()
        db.execute(plan_sql)
        hits.append(perf_counter() - start)
    result.meta["plan_cache_latency"] = {
        "miss_median_s": median(misses),
        "hit_median_s": median(hits),
        "hit_over_miss": median(hits) / median(misses),
    }

    try:
        with DatabaseServer(db, concurrency=concurrency) as server:
            for clients in client_counts:
                latencies: list = []
                errors: list = []
                lock = threading.Lock()
                barrier = threading.Barrier(clients + 1)

                def worker():
                    mine = []
                    try:
                        with Client(server.host, server.port) as conn:
                            conn.execute(sql)  # connection warm-up
                            barrier.wait()
                            for __ in range(statements_per_client):
                                start = perf_counter()
                                conn.execute(sql)
                                mine.append(perf_counter() - start)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                    with lock:
                        latencies.extend(mine)

                threads = [
                    threading.Thread(target=worker)
                    for __ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                barrier.wait()
                sweep_start = perf_counter()
                for thread in threads:
                    thread.join()
                elapsed = perf_counter() - sweep_start
                if errors:
                    raise errors[0]
                total = clients * statements_per_client
                result.add_point(
                    "throughput stmt/s", clients, total / elapsed
                )
                result.add_point(
                    "p50 latency s", clients, _percentile(latencies, 0.50)
                )
                result.add_point(
                    "p95 latency s", clients, _percentile(latencies, 0.95)
                )
                result.add_point(
                    "p99 latency s", clients, _percentile(latencies, 0.99)
                )
            stats = server.stats_snapshot()
            result.meta["plan_cache"] = stats["plan_cache"]
            result.meta["snapshots"] = stats["snapshots"]
            result.meta["admission"] = stats["admission"]
    finally:
        db.close()
    return result
