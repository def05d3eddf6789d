"""Runtime observability: metrics, per-query profiles, adaptive feedback.

Three consumers sit on top of this package:

* ``EXPLAIN ANALYZE`` — executes the query under a forced
  :class:`~repro.obs.profile.QueryProfile` and renders actual rows,
  time, and per-UDF profiles next to the optimizer's estimates;
* ``db.stats()`` — the cumulative
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot;
* the adaptive cost pass — observed per-call UDF cost and predicate
  selectivity (:class:`~repro.obs.adaptive.AdaptiveFeedback`) override
  static :class:`~repro.core.udf.CostHints` once trusted.

All of it defaults off; see :class:`~repro.obs.profile.Observability`.
"""

from .adaptive import MIN_CALLS, MIN_ROWS, AdaptiveFeedback
from .metrics import Counter, Histogram, MetricsRegistry, Span
from .profile import (
    Observability,
    OperatorStats,
    PredicateProbe,
    QueryProfile,
    UDFProfile,
)

__all__ = [
    "AdaptiveFeedback",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MIN_CALLS",
    "MIN_ROWS",
    "Observability",
    "OperatorStats",
    "PredicateProbe",
    "QueryProfile",
    "Span",
    "UDFProfile",
]
