#!/usr/bin/env python3
"""Concurrent-server sweep: wire throughput vs number of clients.

A read-heavy sandboxed-UDF workload is issued over real TCP connections
against one :class:`~repro.server.server.DatabaseServer` at 1, 2,
4, and 8 clients.  Reads pin MVCC snapshots and run concurrently on the
worker pool, so on a multi-core host total throughput at 4+ clients
should be at least 2x the single-client throughput.  The sweep also
isolates the shared plan cache's effect: the same planning-heavy
statement is timed with the cache defeated (cleared before every
execution) and hitting — the hit must be measurably cheaper on *any*
host, single-core included, because it skips parse/plan/optimize
entirely.

The sweep records ``meta.cpu_count``.  **On a single-core host the
throughput gate is physically unattainable** (concurrent statements
time-slice one core); the script then reports honest ≈1.0x numbers and
exits 0 with a warning instead of failing, and the pytest gate skips.
CI runs this on a multi-core runner, which is the meaningful gate.
The plan-cache gate applies everywhere.

Run::

    python benchmarks/test_server.py                        # full sweep
    python benchmarks/test_server.py --smoke                # CI sanity run
    python benchmarks/test_server.py --out BENCH_server.json
    pytest benchmarks/test_server.py                        # assertions only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.figures import run_server  # noqa: E402

#: Acceptance thresholds.
GATE_THROUGHPUT_C4 = 2.0   # multi-core hosts only
GATE_PLAN_CACHE = 0.9      # hit latency / miss latency, any host


def multicore() -> bool:
    return (os.cpu_count() or 1) >= 2


def run(smoke: bool = False) -> dict:
    """Execute the sweep and return a JSON-ready result dict."""
    result = run_server(
        cardinality=1000 if smoke else 2000,
        client_counts=(1, 2) if smoke else (1, 2, 4, 8),
        statements_per_client=20 if smoke else 60,
        scan_limit=128 if smoke else 256,
    )
    series = {
        label: [{"clients": x, "value": v} for x, v in points]
        for label, points in result.series.items()
    }
    throughput = dict(result.series["throughput stmt/s"])
    base = throughput.get(1) or 0.0
    scaling = {
        f"c{clients}": (value / base if base else 0.0)
        for clients, value in sorted(throughput.items())
        if clients != 1
    }
    out = {
        "experiment": "server",
        "cpu_count": os.cpu_count(),
        "meta": result.meta,
        "series": series,
        "throughput_vs_1_client": scaling,
    }
    for clients, value in sorted(throughput.items()):
        p95 = dict(result.series["p95 latency s"]).get(clients, 0.0)
        extra = (
            f"  ({scaling[f'c{clients}']:.2f}x vs 1 client)"
            if clients != 1 else ""
        )
        print(
            f"clients={clients}: {value:8.1f} stmt/s, "
            f"p95 {p95 * 1e3:7.2f} ms{extra}"
        )
    cache = result.meta["plan_cache_latency"]
    print(
        f"plan cache: miss {cache['miss_median_s'] * 1e3:.3f} ms, "
        f"hit {cache['hit_median_s'] * 1e3:.3f} ms "
        f"({cache['hit_over_miss']:.2f}x)"
    )
    return out


# -- pytest entry points ------------------------------------------------------

def test_throughput_scales_with_clients():
    """Acceptance: ≥2x total throughput at 4 clients vs 1 client."""
    if not multicore():
        import pytest

        pytest.skip("single-core host: concurrent speedup unattainable")
    results = run(smoke=False)
    assert (
        results["throughput_vs_1_client"]["c4"] >= GATE_THROUGHPUT_C4
    ), results["throughput_vs_1_client"]


def test_plan_cache_hit_is_measurably_cheaper():
    """A plan-cache hit skips parse/plan/optimize on any host."""
    results = run(smoke=True)
    cache = results["meta"]["plan_cache_latency"]
    assert cache["hit_over_miss"] <= GATE_PLAN_CACHE, cache


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two client counts and a smaller workload (CI sanity run)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write results as JSON to this path",
    )
    opts = parser.parse_args(argv)
    results = run(smoke=opts.smoke)
    if opts.out is not None:
        opts.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {opts.out}")
    cache_ok = (
        results["meta"]["plan_cache_latency"]["hit_over_miss"]
        <= GATE_PLAN_CACHE
    )
    if not multicore():
        print(
            "WARNING: single-core host (cpu_count="
            f"{os.cpu_count()}); concurrent-client speedup is "
            "physically unattainable here, skipping the throughput "
            "gate.  Run on a multi-core machine (CI does) for the "
            "real numbers."
        )
        return 0 if cache_ok else 1
    top = max(
        (ratio for key, ratio in results["throughput_vs_1_client"].items()
         if key in ("c4", "c8")),
        default=0.0,
    )
    return 0 if cache_ok and top >= GATE_THROUGHPUT_C4 else 1


if __name__ == "__main__":
    sys.exit(main())
