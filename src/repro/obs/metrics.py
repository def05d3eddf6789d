"""Process-local metrics primitives: counters, histograms, span timers.

The registry is the single allocation point: callers ask it for a named
:class:`Counter` or :class:`Histogram` *once* (per query, per UDF, per
operator) and then update the returned handle directly — attribute
arithmetic on a pre-bound object, never a per-row dict lookup.  That is
the "allocation-light hot path" contract the executors rely on: with
observability off they skip even the handle lookup, and with it on the
per-batch cost is one ``perf_counter_ns`` pair plus a few attribute
increments.

Histograms keep exact aggregate moments (count/sum/min/max) plus a
bounded sample buffer for quantiles.  The buffer is a deterministic
ring: once ``sample_cap`` observations have been made, new samples
overwrite the oldest, so quantiles reflect the most recent window and
memory stays bounded no matter how long the process runs.  Quantiles
use the nearest-rank definition — for sample sets under the cap they
are exact, which is what the accuracy tests pin down.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

#: Ring-buffer size for histogram quantile samples.  4096 recent samples
#: give stable p99s while bounding memory at a few tens of KB per
#: histogram.
DEFAULT_SAMPLE_CAP = 4096


class Counter:
    """A monotonically growing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Aggregate moments plus a bounded sample ring for quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_cap", "_next")

    def __init__(self, name: str, sample_cap: int = DEFAULT_SAMPLE_CAP):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._cap = max(1, sample_cap)
        self._next = 0  # ring write position once the buffer is full

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        samples = self._samples
        if len(samples) < self._cap:
            samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._cap

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the retained samples.

        Exact while fewer than ``sample_cap`` values have been observed;
        afterwards it is the quantile of the most recent window.
        """
        samples = self._samples
        if not samples:
            return None
        ordered = sorted(samples)
        # Integer ceil of q*n without float-rounding surprises at the
        # common q values (0.5, 0.95, 0.99).
        rank = min(len(ordered), max(1, _ceil_rank(q, len(ordered))))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """JSON-able aggregate view: moments plus p50/p95/p99."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _ceil_rank(q: float, n: int) -> int:
    """ceil(q * n) computed in integers (q given to 3 decimal places)."""
    q_milli = int(round(q * 1000))
    return -(-q_milli * n // 1000)


class Span:
    """A context-managed wall-time measurement feeding a histogram."""

    __slots__ = ("histogram", "_start")

    def __init__(self, histogram: Histogram):
        self.histogram = histogram
        self._start = 0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.histogram.observe(time.perf_counter_ns() - self._start)


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    One registry per database (cumulative ``db.stats()``) plus one per
    ``EXPLAIN ANALYZE`` run (so the rendered numbers are that query's
    own).  ``snapshot()`` is ``db.stats()["metrics"]``.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def histogram(
        self, name: str, sample_cap: int = DEFAULT_SAMPLE_CAP
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, sample_cap=sample_cap)
            self._histograms[name] = histogram
        return histogram

    def span(self, name: str) -> Span:
        """``with registry.span("phase"):`` — time a block into a histogram."""
        return Span(self.histogram(name))

    def snapshot(self) -> dict:
        """JSON-able dump of every metric (histograms as summaries)."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }
