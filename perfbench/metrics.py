"""Every metric the benchmark reports: name, unit, direction.

``BENCHMARK.json`` lists the same names (tests/test_selfcheck.py holds the
two together); definitions are in the README.
"""

DESIGNS = (
    "native_integrated", "native_sfi", "native_isolated",
    "sandbox_jit", "sandbox_interp", "sandbox_isolated",
)
SQL_READ_CLASSES = (
    "point", "range", "coldscan", "groupby", "join", "topn", "lob",
)
SERVER_CLASSES = (
    "select_point", "select_group", "select_join", "udf_select", "insert",
    "update", "select_own", "delete", "select_other",
)

#: (name, unit, better); bounds live in BENCHMARK.json, derived from AA.json.
END_TO_END = (
    ("round_p50_ms", "ms", "lower"),
    ("round_p95_ms", "ms", "lower"),
    ("stmts_per_s", "1/s", "higher"),
    ("cpu_ms_per_stmt", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER = (
    # sql
    ("sql.parse_us_per_stmt", "us", "lower"),
    ("sql.plan_us_per_stmt", "us", "lower"),
    ("sql.exec_us_per_stmt", "us", "lower"),
    ("sql.plancache_hit_rate", "ratio", "higher"),
    *((f"sql.class_p50_ms.{cls}", "ms", "lower")
      for cls in SQL_READ_CLASSES + SERVER_CLASSES),
    # core
    *((f"core.invoke_us_per_row.{d}", "us", "lower") for d in DESIGNS),
    *((f"core.stmt_p50_ms.{d}", "ms", "lower") for d in DESIGNS),
    ("core.shm_msgs_per_row", "count", "lower"),
    ("core.shm_chunks_per_row", "count", "lower"),
    # vm
    ("vm.call_us.interp", "us", "lower"),
    ("vm.call_us.jit", "us", "lower"),
    ("vm.entry_us.interp", "us", "lower"),
    ("vm.entry_us.jit", "us", "lower"),
    ("vm.body_share", "ratio", "lower"),
    # analysis
    ("analysis.create_function_ms", "ms", "lower"),
    # storage
    ("storage.pool_fetches_per_round", "count", "lower"),
    ("storage.pool_hit_rate", "ratio", "higher"),
    ("storage.pool_evictions_per_round", "count", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal_fsyncs_per_write", "ratio", "lower"),
    ("storage.wal_mean_commit_batch", "count", "higher"),
    ("storage.mvcc_pages_copied_per_write", "count", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.recovery_ms", "ms", "lower"),
    ("storage.disk_bytes_per_user_byte", "ratio", "lower"),
    # server
    ("server.wire_overhead_ms", "ms", "lower"),
    ("server.conn_round_p50_ms.a", "ms", "lower"),
    ("server.conn_round_p50_ms.b", "ms", "lower"),
    ("server.admission_refused_share", "ratio", "lower"),
    ("server.bytes_per_stmt", "count", "lower"),
    # obs
    ("obs.metrics_on_overhead_share", "ratio", "lower"),
    # the harness itself
    ("harness.quiet_share", "ratio", "higher"),
    ("harness.kernel_ref_ms", "ms", "lower"),
    ("harness.host_factor", "ratio", "lower"),
    ("harness.rounds_measured", "count", "higher"),
    ("harness.round_p50_raw_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("ledger.coverage_share", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, __ in END_TO_END + PER_LAYER}
