"""The traced run (``--trace 1``): per-layer metrics and the span ledger.

It replays the same seeded schedule as the timed run, for fewer rounds,
one stage at a time from the harness: parse -> plan -> optimize -> execute
with the UDF boundary as a child span, then direct ``invoke_batch`` and VM
invoker replays on the exact argument batches, then checkpoint, reopen and
(``server_mixed``) the wire round trip.  End-to-end metrics never come
from here.

Counts (pool fetches, shm messages, WAL bytes of a bulk load) are taken
over a fixed number of rounds, so a single client repeats them exactly.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time

import engine_api
import harness
import metrics as metric_table
import udf_sources
from engine_api import ProbeUnavailable
from spans import Recorder

perf_counter = time.perf_counter

#: Rounds the exact counts are taken over.
COUNT_ROUNDS = 20
#: Share of ``--seconds`` spent alternating plain and traced rounds.
INTERLEAVE_SHARE = 0.45
MAX_INTERLEAVED_PAIRS = 150
#: Rounds of schedule a traced run can reach; built before it starts.
SCHEDULE_ROUNDS = 1 + COUNT_ROUNDS + 2 * MAX_INTERLEAVED_PAIRS
REPLAY_REPEATS = 9
USER_BYTES_PER_VALUE = 8


class Layers:
    """Per-layer values, plus the probes that could not run."""

    def __init__(self):
        self.values = {}
        self.unavailable = []

    def probe(self, fn, default=None):
        """``fn()``, or ``default`` and a named warning if the engine
        entry point it needs has moved."""
        try:
            return fn()
        except ProbeUnavailable as exc:
            self.warn(str(exc))
            return default

    def warn(self, message: str) -> None:
        self.unavailable.append(message)
        print(f"perfbench: warning: probe unavailable: {message}",
              file=sys.stderr)

    def complete(self) -> dict:
        """Every per-layer metric by name; 0 where this workload has no
        such layer at work or the probe was unavailable."""
        return {
            name: float(self.values.get(name, 0.0))
            for name, __, __ in metric_table.PER_LAYER
        }


def _at_nominal_speed(fn):
    """``fn()`` between two kernel samples: ``(result, divisor)``, where a
    time measured inside ``fn`` divided by ``divisor`` is that time at
    nominal host speed.  Per-layer times are normalised like rounds are,
    or a ratio of two of them taken a second apart would mean nothing."""
    before = harness.kernel_ms()
    result = fn()
    after = harness.kernel_ms()
    return result, harness.slowdown(before, after)


def _timed(fn) -> float:
    """Seconds ``fn()`` takes, at nominal host speed."""
    def run():
        started = perf_counter()
        fn()
        return perf_counter() - started
    elapsed, divisor = _at_nominal_speed(run)
    return elapsed / divisor


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def _user_bytes(plan) -> int:
    return sum(table.user_bytes() for table in plan.tables)


def _timed_round(workload, index: int, class_walls: dict):
    """A plain round that also notes each statement's own time."""
    results = []
    for stmt in workload.plan.statements(index):
        started = perf_counter()
        results.append(workload.run(stmt))
        class_walls.setdefault(stmt.cls, []).append(perf_counter() - started)
    return results


def _staged_round(workload, staged, recorder: Recorder, index: int):
    """A round run stage by stage, one span per stage call."""
    db = workload.db
    results = []
    for position, stmt in enumerate(workload.plan.statements(index)):
        recorder.statement = f"{index}.{position}"
        with recorder.span("statement"):
            try:
                if staged is None:
                    with recorder.span("sql.execute"):
                        rows = db.execute(stmt.sql).rows
                else:
                    with recorder.span("sql.parse"):
                        parsed = staged.parse(stmt.sql)
                    with recorder.span("sql.plan"):
                        logical = staged.plan(parsed)
                    with recorder.span("sql.optimize"):
                        logical = staged.optimize(logical)
                    with recorder.span("sql.execute"):
                        rows = staged.execute(parsed, logical).rows
                if stmt.cls == "lob":
                    with recorder.span("storage.read_lob"):
                        rows = [tuple(db.read_lob(v) for v in row)
                                for row in rows]
            except Exception as exc:    # judged by the oracle, like a round
                rows = exc
        results.append(rows)
    recorder.statement = None
    return results


def _interleave(seconds: float, smoke: bool, plain, traced, values):
    """Alternate plain and traced rounds, so both meet the same host
    phases.  Sets the overhead ratio and, from kernel samples around the
    plain rounds, the ``harness.*`` metrics of this run."""
    window = harness.Window()
    traced_walls = []
    pairs = 3 if smoke else MAX_INTERLEAVED_PAIRS
    deadline = perf_counter() + seconds * INTERLEAVE_SHARE
    while len(traced_walls) < pairs and (
            smoke or perf_counter() < deadline):
        before = harness.kernel_ms()
        started = perf_counter()
        plain()
        window.walls.append(perf_counter() - started)
        after = harness.kernel_ms()
        window.samples += [before, after]
        window.factors.append(harness.host_factor(before, after))
        started = perf_counter()
        traced()
        traced_walls.append(perf_counter() - started)
    values.update(harness.harness_metrics(window))
    values["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(window.walls))


# -- embedded workloads ------------------------------------------------------

def trace_embedded(plan, workload_class, seconds: float, scratch: str,
                   smoke: bool):
    """Returns ``(layers, recorder, logs, workload, wrong replay results)``;
    the workload is already torn down."""
    layers = Layers()
    values = layers.values
    recorder = Recorder()
    harness.pin_to_quietest_cpu(harness.usable_cpus())
    workload = workload_class(plan)
    workdir = os.path.join(scratch, "trace")
    os.makedirs(workdir)
    count_rounds = 3 if smoke else COUNT_ROUNDS
    repeats = 2 if smoke else REPLAY_REPEATS

    # Set-up, staged so the checkpoint after the bulk load can be timed.
    db = workload.db = workload.open(workdir)
    workload.load(db)
    load_wal = layers.probe(lambda: engine_api.wal_stats(db), {})
    def checkpoint():
        with recorder.span("storage.checkpoint"):
            db.checkpoint()

    values["storage.checkpoint_ms"] = _timed(checkpoint) * 1000.0
    if load_wal.get("bytes_appended"):
        values["storage.wal_bytes_per_user_byte"] = (
            load_wal["bytes_appended"] / _user_bytes(plan))
        values["storage.wal_fsyncs_per_write"] = (
            load_wal["fsyncs"] / load_wal["statements_logged"])
        values["storage.wal_mean_commit_batch"] = load_wal["mean_batch"]
    logs = [(0, workload.round(0))]
    index = 1

    # Exact counts over a fixed block of plain rounds.
    before = layers.probe(lambda: engine_api.pool_counters(db))
    for __ in range(count_rounds):
        logs.append((index, workload.round(index)))
        index += 1
    after = layers.probe(lambda: engine_api.pool_counters(db))
    if before and after:
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        values["storage.pool_fetches_per_round"] = (
            (hits + misses) / count_rounds)
        values["storage.pool_hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        values["storage.pool_evictions_per_round"] = (
            (after["evictions"] - before["evictions"]) / count_rounds)

    # Plain and staged rounds, alternating.
    staged = layers.probe(lambda: engine_api.StagedSelect(db))
    class_walls = {}

    def hook():
        return engine_api.udf_call_hook(db, recorder.span)

    def try_hook():
        with hook():
            return True

    if not layers.probe(try_hook, False):
        hook = contextlib.nullcontext

    def plain():
        nonlocal index
        logs.append((index, _timed_round(workload, index, class_walls)))
        index += 1

    def traced():
        nonlocal index
        with hook():
            results = _staged_round(workload, staged, recorder, index)
        logs.append((index, results))
        index += 1

    _interleave(seconds, smoke, plain, traced, values)
    # Span times at nominal speed: the host factor of this phase of the run.
    statements = len(recorder.durations("statement"))
    per_statement = 1e6 / statements / (values["harness.host_factor"] or 1.0)
    values["ledger.coverage_share"] = recorder.coverage("statement")
    values["sql.parse_us_per_stmt"] = (
        recorder.total("sql.parse") * per_statement)
    values["sql.plan_us_per_stmt"] = (
        (recorder.total("sql.plan") + recorder.total("sql.optimize"))
        * per_statement)
    values["sql.exec_us_per_stmt"] = (
        (recorder.total("sql.execute") - sum(
            recorder.total(name) for name in
            ("core.acquire", "core.invoke_batch", "core.release")))
        * per_statement)
    udf_plan = hasattr(plan, "rows_by_design")
    prefix = "core.stmt_p50_ms." if udf_plan else "sql.class_p50_ms."
    for cls, walls in class_walls.items():
        values[prefix + cls] = (
            _median_ms(walls) / (values["harness.host_factor"] or 1.0))

    failed_replays = 0
    if udf_plan:
        failed_replays = _replay_udfs(plan, db, layers, recorder, repeats)
        _create_function_probe(plan, db, layers, repeats)
        if plan.name == "udf_invoke":
            _metrics_flag_probe(plan, workload, workload_class, scratch,
                                layers, 3 if smoke else 15)

    # Close, measure the files, reopen.
    workload.teardown()
    if plan.path_backed:
        db_dir = os.path.join(workdir, "db")
        values["storage.disk_bytes_per_user_byte"] = (
            _dir_bytes(db_dir) / _user_bytes(plan))
        def reopen():
            with recorder.span("storage.reopen"):
                workload.db = workload.open(workdir)

        values["storage.recovery_ms"] = _timed(reopen) * 1000.0
        workload.teardown()
    return layers, recorder, logs, workload, failed_replays


def _replay_udfs(plan, db, layers: Layers, recorder: Recorder,
                 repeats: int) -> int:
    """Direct ``invoke_batch`` and VM-invoker replays on the exact
    argument batches of the round.  Returns wrong results found."""
    values = layers.values
    wrong = 0
    core_us, vm_us, calls_by_design = {}, {}, {}
    shm_messages = shm_chunks = shm_calls = 0
    for position, design in enumerate(plan.rows_by_design):
        name = udf_sources.udf_name(plan.function, design)
        batches = plan.argument_batches(design)
        calls = sum(len(batch) for batch in batches)
        calls_by_design[design] = calls
        expected = plan.statements(0)[position].expected
        times = []
        stats = None
        for __ in range(repeats):
            outcome, divisor = _at_nominal_speed(lambda: layers.probe(
                lambda: engine_api.direct_invoke(db, name, batches)))
            if outcome is None:
                break
            results, elapsed, stats = outcome
            times.append(elapsed / divisor)
            started = perf_counter() - elapsed
            recorder.add(f"core.replay.{design}", started,
                         started + elapsed, None, None)
            for column, got in enumerate(results):
                if got != [row[column] for row in expected]:
                    wrong += 1
        if not times:
            continue
        core_us[design] = statistics.median(times) / calls * 1e6
        values[f"core.invoke_us_per_row.{design}"] = core_us[design]
        if stats is not None:
            shm_messages += stats["messages_sent"] + stats["messages_received"]
            shm_chunks += stats["chunks_sent"] + stats["chunks_received"]
            shm_calls += calls
    if shm_calls:
        values["core.shm_msgs_per_row"] = shm_messages / shm_calls
        values["core.shm_chunks_per_row"] = shm_chunks / shm_calls
    entry_us = {}
    for design, key in (("sandbox_jit", "jit"), ("sandbox_interp", "interp")):
        if design not in core_us:
            continue
        arguments = plan.body_arguments(design)
        use_jit = design == "sandbox_jit"
        name = udf_sources.udf_name(plan.function, design)
        vm_us[design] = _vm_call_us(
            db, layers, recorder, f"vm.replay.{key}", name, use_jit,
            arguments, repeats)
        # The same calls on an empty body: entry and marshalling alone.
        scratch_name = f"pbnoop_{design}"
        db.execute(udf_sources.create_function_sql(
            plan.function + "_noop", design, name=scratch_name))
        try:
            entry_us[design] = _vm_call_us(
                db, layers, recorder, f"vm.entry.{key}", scratch_name,
                use_jit, arguments, repeats)
        finally:
            db.execute(f"DROP FUNCTION {scratch_name}")
        if vm_us[design] is None or entry_us[design] is None:
            del vm_us[design]
            continue
        values[f"vm.call_us.{key}"] = vm_us[design]
        values[f"vm.entry_us.{key}"] = entry_us[design]
    if vm_us:
        values["vm.body_share"] = (
            sum(max(0.0, vm_us[d] - entry_us[d]) * calls_by_design[d]
                for d in vm_us)
            / sum(core_us[d] * calls_by_design[d] for d in vm_us))
    return wrong


def _vm_call_us(db, layers: Layers, recorder: Recorder, span_name: str,
                udf: str, use_jit: bool, arguments, repeats: int):
    """Microseconds per direct VM call of ``udf`` over ``arguments``."""
    call = layers.probe(lambda: engine_api.vm_invoker(db, udf, use_jit))
    if call is None:
        return None
    def one_pass():
        started = perf_counter()
        for args in arguments:
            call(args)
        ended = perf_counter()
        recorder.add(span_name, started, ended, None, None)
        return ended - started

    times = []
    for __ in range(repeats + 1):
        elapsed, divisor = _at_nominal_speed(one_pass)
        times.append(elapsed / divisor)
    # The first pass pays the lazy JIT compile; it is not a steady call.
    return statistics.median(times[1:]) / len(arguments) * 1e6


def _create_function_probe(plan, db, layers: Layers, repeats: int) -> None:
    """CREATE FUNCTION of each sandboxed design under a scratch name:
    verify + analyze + certify, what ``register_udf`` costs set-up."""
    per_design = []
    for design in plan.rows_by_design:
        if udf_sources.DESIGNS[design][0] != "JAGUAR":
            continue
        scratch_name = f"pbtmp_{design}"
        sql = udf_sources.create_function_sql(
            plan.function, design, name=scratch_name)
        times = []
        for __ in range(min(repeats, 3)):
            times.append(_timed(lambda: db.execute(sql)))
            db.execute(f"DROP FUNCTION {scratch_name}")
        per_design.append(statistics.median(times))
    if per_design:
        layers.values["analysis.create_function_ms"] = (
            statistics.mean(per_design) * 1000.0)


def _metrics_flag_probe(plan, workload, workload_class, scratch: str,
                        layers: Layers, pairs: int) -> None:
    """Round median with ``Database(metrics=True)`` over without; the only
    place that flag is ever set."""
    other = workload_class(plan, engine_api.open_metrics_database)
    workdir = os.path.join(scratch, "metrics-on")
    os.makedirs(workdir)
    if layers.probe(lambda: other.setup(workdir) or True) is None:
        return
    try:
        walls = {workload: [], other: []}
        for __ in range(pairs):
            for subject in (workload, other):
                started = perf_counter()
                subject.round(1)
                walls[subject].append(perf_counter() - started)
        layers.values["obs.metrics_on_overhead_share"] = (
            statistics.median(walls[other])
            / statistics.median(walls[workload]))
    finally:
        other.teardown()


# -- server_mixed ------------------------------------------------------------

TRIVIAL_SQL = "SELECT weight FROM dim WHERE id = 0"


def trace_server(plan, workload_class, seconds: float, scratch: str,
                 smoke: bool):
    layers = Layers()
    values = layers.values
    recorder = Recorder()
    harness.pin_to_quietest_cpu(harness.usable_cpus())
    workload = workload_class(plan)
    workdir = os.path.join(scratch, "trace")
    os.makedirs(workdir)
    count_rounds = 3 if smoke else COUNT_ROUNDS
    workload.prepare(workdir)
    try:
        workload.setup(workdir)
        logs = [(0, workload.warmup_results)]
        index = 1
        stats0 = workload.child.call("stats", "stats")["stats"]
        bytes0 = sum(client.wire_bytes for client in workload.clients)
        for __ in range(count_rounds):
            logs.append((index, workload.round(index)))
            workload.after_round()
            index += 1

        def plain():
            nonlocal index
            logs.append((index, workload.round(index)))
            workload.after_round()
            index += 1

        # Connection a's round trips, back to back, are its round.
        trips_a = rounds_a = 0.0

        def traced():
            nonlocal index, trips_a, rounds_a
            workload.wire_log = []
            started = perf_counter()
            logs.append((index, workload.round(index)))
            ended = perf_counter()
            parent = recorder.add("joint_round", started, ended, None, None)
            for slot, position, sent, received in workload.wire_log:
                recorder.add(
                    f"server.round_trip.{'ab'[slot]}", sent, received,
                    parent, f"{index}.{slot}.{position}")
                if slot == 0:
                    trips_a += received - sent
            rounds_a += max(
                received for slot, __, __, received in workload.wire_log
                if slot == 0) - started
            workload.wire_log = None
            workload.after_round()
            index += 1

        _interleave(seconds, smoke, plain, traced, values)
        rounds = index - 1
        stats1 = workload.child.call("stats", "stats")["stats"]
        bytes1 = sum(client.wire_bytes for client in workload.clients)
        for message in stats1.get("unavailable", ()):
            layers.warn(message)
        _server_counters(values, plan, stats0, stats1, rounds,
                         bytes1 - bytes0)
        values["ledger.coverage_share"] = trips_a / rounds_a
        session_factor = values["harness.host_factor"] or 1.0
        for conn in "ab":
            values[f"server.conn_round_p50_ms.{conn}"] = _median_ms(
                workload.connection_walls[conn]) / session_factor
        class_walls = {}
        for name, start, end, __, statement in recorder.spans:
            if name.startswith("server.round_trip."):
                position = int(statement.rsplit(".", 1)[1])
                cls = plan.statements(0)[position].cls
                class_walls.setdefault(cls, []).append(end - start)
        for cls, walls in class_walls.items():
            values[f"sql.class_p50_ms.{cls}"] = (
                _median_ms(walls) / session_factor)

        # A trivial statement over the wire, server otherwise idle.
        conn = workload.clients[0]
        trivial_repeats = 5 if smoke else 40
        wire = [_timed(lambda: conn.execute(TRIVIAL_SQL))
                for __ in range(trivial_repeats)]
        for __ in range(1 if smoke else 3):
            workload.checkpoint_ms.append(
                workload.child.call("checkpoint", "checkpoint_ms")[
                    "checkpoint_ms"])
        values["storage.checkpoint_ms"] = statistics.median(
            workload.checkpoint_ms)

        embedded = []

        def on_reopen(db):
            for __ in range(trivial_repeats):
                embedded.append(_timed(lambda: db.execute(TRIVIAL_SQL)))

        attempted, failed = workload.epilogue(on_reopen)
        values["storage.recovery_ms"] = workload.recovery_ms
        values["server.wire_overhead_ms"] = (
            _median_ms(wire) - _median_ms(embedded))
        values["storage.disk_bytes_per_user_byte"] = (
            _dir_bytes(os.path.join(workdir, "db")) / _user_bytes(plan))
    finally:
        workload.teardown()
    return layers, recorder, logs, workload, (attempted, failed)


def _server_counters(values, plan, stats0, stats1, rounds: int,
                     wire_bytes: int) -> None:
    def delta(section, key):
        return (stats1.get(section, {}).get(key, 0)
                - stats0.get(section, {}).get(key, 0))

    statements = rounds * plan.statements_per_round
    cache = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    if cache:
        values["sql.plancache_hit_rate"] = delta("plan_cache", "hits") / cache
    fetches = delta("pool", "hits") + delta("pool", "misses")
    if fetches:
        values["storage.pool_fetches_per_round"] = fetches / rounds
        values["storage.pool_hit_rate"] = delta("pool", "hits") / fetches
        values["storage.pool_evictions_per_round"] = (
            delta("pool", "evictions") / rounds)
    writes = delta("wal", "statements_logged")
    if writes:
        # Per joint round each connection writes a 4-row INSERT (12
        # values) and a 4-row UPDATE (4 values); DELETE writes none.
        user_bytes = rounds * 2 * 16 * USER_BYTES_PER_VALUE
        values["storage.wal_bytes_per_user_byte"] = (
            delta("wal", "bytes_appended") / user_bytes)
        values["storage.wal_fsyncs_per_write"] = (
            delta("wal", "fsyncs") / writes)
        batches = delta("wal", "commit_batches")
        values["storage.wal_mean_commit_batch"] = (
            writes / batches if batches else 0.0)
    installs = delta("mvcc", "installs")
    if installs:
        values["storage.mvcc_pages_copied_per_write"] = (
            delta("mvcc", "pages_copied") / installs)
    admitted = delta("admission", "admitted")
    refused = delta("admission", "refused")
    if admitted + refused:
        values["server.admission_refused_share"] = (
            refused / (admitted + refused))
    values["server.bytes_per_stmt"] = wire_bytes / statements
