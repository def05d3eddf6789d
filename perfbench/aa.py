"""A/A check: two sets of N full runs on the same code.

For every end-to-end metric x workload it prints the two medians, how far
apart they are, the spread inside each set (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives it) and the bound
from BENCHMARK.json, and writes all of it to ``perfbench/AA.json``.  The
bounds in BENCHMARK.json are derived from that file (README, "Bounds").

Each run is a fresh ``run.py`` process with its own seed, as the driver
runs it.  One traced run per workload and set, on the same seed, checks
that the single-client count metrics repeat exactly.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udf_invoke", "udf_compute", "sql_read", "server_mixed")
#: Per-layer metrics that are counts a single client must repeat exactly.
#: (server_mixed has two racing clients; its counts are not held to this.)
EXACT_COUNTS = (
    "storage.pool_fetches_per_round", "storage.pool_evictions_per_round",
    "storage.pool_hit_rate", "storage.wal_bytes_per_user_byte",
    "storage.wal_fsyncs_per_write", "storage.disk_bytes_per_user_byte",
    "core.shm_msgs_per_row", "core.shm_chunks_per_row",
)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode == 3:
        return None                     # too noisy to report; the caller counts it
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(
            f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def load_bounds() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            document = json.load(handle)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in document["end_to_end"]}


def main(n: int, seconds: float) -> int:
    bounds = load_bounds()
    sets = {"a": {}, "b": {}}
    counts = {"a": {}, "b": {}}
    failed = too_noisy = 0
    walls = []
    seed = 0
    for label in ("a", "b"):
        for repeat in range(n):
            for workload in WORKLOADS:
                seed += 1
                result = run(workload, seed, seconds, trace=0)
                while result is None:   # exit 3: say so, and run it again
                    too_noisy += 1
                    print(f"set {label} {workload} seed {seed}: too noisy "
                          f"to report, running it again", file=sys.stderr)
                    result = run(workload, seed, seconds, trace=0)
                failed += result["failed"]
                walls.append(result["wall_s"])
                for name, entry in result["metrics"].items():
                    sets[label].setdefault(workload, {}).setdefault(
                        name, []).append(entry["value"])
                print(f"set {label} run {repeat + 1}/{n} {workload} "
                      f"seed {seed}: {result['wall_s']:.1f} s, "
                      f"failed {result['failed']}", file=sys.stderr)
        for workload in WORKLOADS:
            result = run(workload, 1, seconds, trace=1)
            failed += result["failed"]
            counts[label][workload] = {
                name: result["metrics"][name]["value"]
                for name in EXACT_COUNTS
            }

    document = {
        "host": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": _commit(),
        },
        "runs_per_set": n, "seconds": seconds, "failed": failed,
        "runs_too_noisy_to_report": too_noisy,
        "run_wall_s_max": max(walls), "end_to_end": {}, "counts": {},
    }
    print(f"{'workload':13} {'metric':16} {'median a':>11} {'median b':>11} "
          f"{'b worse by':>10} {'spread a':>9} {'spread b':>9} {'bound':>6}")
    status = 0 if failed == 0 else 1
    for workload in WORKLOADS:
        rows = document["end_to_end"][workload] = {}
        for name, __, better in metrics.END_TO_END:
            first, second = sets["a"][workload][name], sets["b"][workload][name]
            entry = rows[name] = {
                "a": first, "b": second,
                "median_a": statistics.median(first),
                "median_b": statistics.median(second),
                "spread_a": spread(first), "spread_b": spread(second),
                "bound": bounds.get(name),
            }
            entry["b_worse_by"] = worse_by(
                entry["median_a"], entry["median_b"], better)
            print(f"{workload:13} {name:16} {entry['median_a']:11.4f} "
                  f"{entry['median_b']:11.4f} {entry['b_worse_by']:10.2%} "
                  f"{entry['spread_a']:9.2%} {entry['spread_b']:9.2%} "
                  f"{entry['bound'] if entry['bound'] is not None else '-':>6}")
            bound = entry["bound"]
            if bound is not None and (
                    abs(entry["b_worse_by"]) > bound
                    or (name != "setup_s" and max(
                        entry["spread_a"], entry["spread_b"]) > bound)):
                status = 1
        if workload == "server_mixed":
            continue
        same = document["counts"][workload] = {}
        for name in EXACT_COUNTS:
            first = counts["a"][workload][name]
            second = counts["b"][workload][name]
            same[name] = {"a": first, "b": second,
                          "identical": first == second}
            if first != second:
                status = 1
                print(f"{workload}: count {name} differs: {first} != {second}")
    with open(os.path.join(HERE, "AA.json"), "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"failed statements: {failed}; runs too noisy to report: "
          f"{too_noisy}; longest run {max(walls):.1f} s; "
          f"{'agrees within the bounds' if status == 0 else 'DISAGREES'}")
    return status


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"
