"""Measurement harness.

The paper's method (Section 5.2): measure the full query response time,
separately measure the base cost of scanning and qualifying the same
tuples with a trivial UDF, and subtract, so the figures isolate the cost
attributable to UDF execution.  :class:`Timer` and
:func:`measure_udf_cost` implement exactly that protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .workload import BenchmarkWorkload


class Timer:
    """Best-of-N wall-clock timing for a nullary callable."""

    def __init__(self, repeat: int = 3, warmup: int = 1):
        self.repeat = repeat
        self.warmup = warmup

    def time(self, fn: Callable[[], object]) -> float:
        return self.time_each([fn])[0]

    def time_each(self, fns: List[Callable[[], object]]) -> List[float]:
        """Best-of-N of each callable, timed round-robin: a slow stretch
        of a shared host then slows every callable's runs alike instead
        of only the one timed during it."""
        for fn in fns:
            for __ in range(self.warmup):
                fn()
        best = [float("inf")] * len(fns)
        for __ in range(self.repeat):
            for index, fn in enumerate(fns):
                start = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - start
                best[index] = min(best[index], elapsed)
        return best


@dataclass
class ExperimentResult:
    """One figure/table worth of measurements.

    ``series`` maps a line label (e.g. ``"JNI"``) to ``[(x, seconds)]``
    points, matching the paper's log-log plots; ``meta`` records the
    scale the experiment actually ran at.
    """

    experiment: str
    title: str
    x_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def add_point(self, label: str, x: float, seconds: float) -> None:
        self.series.setdefault(label, []).append((x, seconds))

    def relative_to(self, reference_label: str) -> "ExperimentResult":
        """The paper's lower panels: every series divided by a reference."""
        relative = ExperimentResult(
            experiment=self.experiment + "-relative",
            title=f"{self.title} (relative to {reference_label})",
            x_label=self.x_label,
            meta=dict(self.meta),
        )
        reference = dict(self.series[reference_label])
        for label, points in self.series.items():
            for x, seconds in points:
                base = reference.get(x)
                if base and base > 0:
                    relative.add_point(label, x, seconds / base)
        return relative


def time_query(
    workload: BenchmarkWorkload, sql: str, timer: Optional[Timer] = None
) -> float:
    timer = timer or Timer()
    return timer.time(lambda: workload.db.execute(sql))


def measure_udf_cost(
    workload: BenchmarkWorkload,
    size: int,
    udf_name: str,
    invocations: int,
    num_indep: int = 0,
    num_dep: int = 0,
    num_callbacks: int = 0,
    timer: Optional[Timer] = None,
    base_cache: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    """Query time minus the base (no-UDF) time for the same tuples.

    ``base_cache`` lets a sweep reuse base measurements across designs,
    as the paper does ("these numbers represent the basic system costs
    that we subtract from the later measured timings").
    """
    timer = timer or Timer()
    sql = workload.udf_query(
        size, udf_name, invocations, num_indep, num_dep, num_callbacks
    )
    total = time_query(workload, sql, timer)
    key = (size, invocations)
    if base_cache is not None and key in base_cache:
        base = base_cache[key]
    else:
        base = time_query(workload, workload.base_query(size, invocations), timer)
        if base_cache is not None:
            base_cache[key] = base
    return max(total - base, 0.0)
