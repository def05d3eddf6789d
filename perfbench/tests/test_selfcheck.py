"""Self-check of the benchmark's own plumbing.

    python -m pytest perfbench/tests

Not part of tier-1: it starts the engine several times (about 20 s).
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import aa  # noqa: E402
import metrics  # noqa: E402
import run as cli  # noqa: E402


def perfbench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    done = perfbench("--smoke", "--seed", "7")
    return last_json(done), time.perf_counter() - started


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_smoke_runs_every_workload_within_20_seconds(smoke):
    document, elapsed = smoke
    assert tuple(document) == cli.WORKLOADS
    assert elapsed <= 20


def test_output_schema(smoke):
    for entry in smoke[0].values():
        for kind in ("end_to_end", "traced"):
            result = entry[kind]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True
            assert result["failed"] == 0
            assert isinstance(result["attempted"], int)
            assert result["attempted"] >= 1
            for value in result["metrics"].values():
                assert set(value) == {"value", "unit"}
                assert isinstance(value["value"], (int, float))
        for value in entry["end_to_end"]["metrics"].values():
            assert value["value"] > 0       # the contract: never 0


def test_names_and_units_match_benchmark_json(smoke, benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        cli.WORKLOADS)
    assert benchmark_json["run_seconds"] == cli.DEFAULT_SECONDS
    declared = {
        "end_to_end": {m["name"]: m["unit"]
                       for m in benchmark_json["end_to_end"]},
        "traced": {m["name"]: m["unit"]
                   for m in benchmark_json["per_layer"]},
    }
    for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        listed = [m for kind in ("end_to_end", "per_layer")
                  for m in benchmark_json[kind] if m["name"] == name]
        assert len(listed) == 1 and listed[0]["better"] == better, name
    for entry in smoke[0].values():
        for kind, names in declared.items():
            emitted = {name: value["unit"]
                       for name, value in entry[kind]["metrics"].items()}
            assert emitted == names


def test_same_seed_same_schedule_and_exact_counts(smoke):
    for workload in ("udf_invoke", "sql_read"):
        again = last_json(perfbench(
            "--smoke", "--seed", "7", "--workload", workload, "--trace", "1"))
        first = smoke[0][workload]["traced"]["metrics"]
        for name in aa.EXACT_COUNTS:
            assert again["metrics"][name] == first[name], name
    for workload in cli.WORKLOADS:
        plan, __ = cli.build(workload, 7, smoke=True)
        assert plan.schedule_hash() == smoke[0][workload]["schedule_hash"]


def test_other_seed_other_literals_equal_work(smoke):
    for workload in cli.WORKLOADS:
        plan, __ = cli.build(workload, 8, smoke=True)
        entry = smoke[0][workload]
        assert plan.schedule_hash() != entry["schedule_hash"]
        shape = [[list(pair) for pair in round_] for round_ in
                 plan.work_shape()]
        assert shape == entry["shape"]
        assert [len(t.rows) for t in plan.tables] == [
            len(t.rows) for t in cli.build(workload, 7, True)[0].tables]


def test_too_few_quiet_rounds_exits_nonzero_without_a_result():
    done = perfbench("--smoke", "--workload", "udf_compute",
                     "--min-quiet", "100000")
    assert done.returncode == 3
    assert done.stdout.strip() == ""
    assert "too noisy" in done.stderr
