"""Adaptive cost feedback: observed UDF cost and predicate selectivity.

The optimizer plans from static :class:`~repro.core.udf.CostHints`
(declared at CREATE FUNCTION or derived from bytecode).  Those hints can
be *wrong* — the paper itself costs the designs by measuring them.  This
store accumulates what execution actually observed:

* per-UDF mean wall time per call, converted to the optimizer's
  abstract cost units via the calibration **1 cost unit = 1 microsecond
  of wall time** (a cheap built-in predicate costs ~1 unit = ~1 us of
  interpreted Python);
* per-predicate observed selectivity, keyed by the predicate's rendered
  SQL text, counted over the rows the predicate actually saw.

Overrides only engage once enough evidence exists (``MIN_CALLS`` calls
for cost, ``MIN_ROWS`` input rows for selectivity) so one unlucky
invocation cannot flip a plan.  ``Database(adaptive=True)`` opts in;
the default leaves planning fully static and seed-identical.

Entries are mutable objects handed out once and updated with attribute
arithmetic — the same pre-bound-handle discipline as the metrics
registry, so the execution hot path never does a dict lookup per row.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Observed per-call cost overrides the static hint only after this many
#: recorded invocations.
MIN_CALLS = 32

#: Observed selectivity overrides the static estimate only after the
#: predicate has been evaluated over this many input rows.
MIN_ROWS = 64

#: Calibration between wall time and the optimizer's abstract cost
#: units: 1 unit per microsecond.
NS_PER_COST_UNIT = 1000.0


class UDFCostEntry:
    """Running (calls, total wall ns) for one UDF."""

    __slots__ = ("calls", "total_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0

    def record(self, calls: int, elapsed_ns: int) -> None:
        self.calls += calls
        self.total_ns += elapsed_ns

    @property
    def mean_cost(self) -> Optional[float]:
        """Mean per-call cost in abstract units (us), or None if empty."""
        if self.calls == 0:
            return None
        return self.total_ns / self.calls / NS_PER_COST_UNIT


class SelectivityEntry:
    """Running (rows seen, rows passed) for one predicate."""

    __slots__ = ("rows_in", "rows_true")

    def __init__(self):
        self.rows_in = 0
        self.rows_true = 0

    def record(self, rows_in: int, rows_true: int) -> None:
        self.rows_in += rows_in
        self.rows_true += rows_true

    @property
    def selectivity(self) -> Optional[float]:
        if self.rows_in == 0:
            return None
        return self.rows_true / self.rows_in


class AdaptiveFeedback:
    """Per-database observed statistics feeding the cost oracle.

    Observations from query N adjust the plan of query N+1: the oracle
    consults :meth:`observed_cost` / :meth:`observed_selectivity` at
    planning time, and both return ``None`` until the evidence
    thresholds are met, leaving the static estimate in charge.
    """

    def __init__(self, min_calls: int = MIN_CALLS, min_rows: int = MIN_ROWS):
        self.min_calls = min_calls
        self.min_rows = min_rows
        self._udfs: Dict[str, UDFCostEntry] = {}
        self._predicates: Dict[str, SelectivityEntry] = {}

    # -- recording (pre-bound entry handles) ------------------------------

    def udf_entry(self, name: str) -> UDFCostEntry:
        entry = self._udfs.get(name)
        if entry is None:
            entry = UDFCostEntry()
            self._udfs[name] = entry
        return entry

    def predicate_entry(self, key: str) -> SelectivityEntry:
        entry = self._predicates.get(key)
        if entry is None:
            entry = SelectivityEntry()
            self._predicates[key] = entry
        return entry

    # -- planning-time queries --------------------------------------------

    def observed_cost(self, name: str) -> Optional[float]:
        """Mean observed per-call cost (abstract units), once trusted."""
        entry = self._udfs.get(name)
        if entry is None or entry.calls < self.min_calls:
            return None
        return entry.mean_cost

    def observed_selectivity(self, key: str) -> Optional[float]:
        """Observed pass fraction for a predicate, once trusted."""
        entry = self._predicates.get(key)
        if entry is None or entry.rows_in < self.min_rows:
            return None
        return entry.selectivity

    def snapshot(self) -> dict:
        """JSON-able dump for ``db.stats()``."""
        return {
            "udfs": {
                name: {
                    "calls": entry.calls,
                    "total_ns": entry.total_ns,
                    "mean_cost": entry.mean_cost,
                    "trusted": entry.calls >= self.min_calls,
                }
                for name, entry in sorted(self._udfs.items())
            },
            "predicates": {
                key: {
                    "rows_in": entry.rows_in,
                    "rows_true": entry.rows_true,
                    "selectivity": entry.selectivity,
                    "trusted": entry.rows_in >= self.min_rows,
                }
                for key, entry in sorted(self._predicates.items())
            },
        }
