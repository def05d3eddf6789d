"""Benchmark harness regenerating every table and figure of the paper.

Run everything (prints paper-style series)::

    python -m repro.bench                      # scaled-down default workload
    python -m repro.bench --cardinality 10000  # the paper's relation size
    python -m repro.bench --figures table1,7   # a subset
"""

from .figures import (
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
)
from .harness import ExperimentResult, Timer
from .workload import BenchmarkWorkload

__all__ = [
    "BenchmarkWorkload",
    "ExperimentResult",
    "Timer",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_table1",
]
