"""Shared benchmark fixtures.

The workload scale is environment-tunable::

    REPRO_BENCH_CARDINALITY=2000 pytest benchmarks/ --benchmark-only

Defaults keep the whole suite to a few minutes; EXPERIMENTS.md records
the scale used for the reported numbers.
"""

import os

import pytest

from repro.bench.harness import Timer
from repro.bench.workload import BenchmarkWorkload

CARDINALITY = int(os.environ.get("REPRO_BENCH_CARDINALITY", "300"))


@pytest.fixture(scope="session")
def workload():
    with BenchmarkWorkload(cardinality=CARDINALITY) as wl:
        yield wl


@pytest.fixture(scope="session")
def timer():
    # Best of 5: the shape tests compare single points that can differ
    # by a few tenths of a millisecond (Figure 4's Rel10000 at 3 vs 300
    # calls), which one timed run cannot resolve on a busy host.
    return Timer(repeat=5, warmup=1)


def once(benchmark, fn):
    """Run a whole sweep exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
