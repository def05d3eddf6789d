"""Per-query profiles: what one query's execution actually did.

A :class:`QueryProfile` is created by the statement executor when
observability is collecting (``Database(metrics=True)``,
``Database(adaptive=True)``, or an ``EXPLAIN ANALYZE``) and threaded
through every layer:

* each per-query UDF executor gets a pre-bound :class:`UDFProfile`
  keyed by (function, design).  The UDF call site
  (:class:`~repro.sql.expressions.UDFCallSite`), where every design's
  batches cross, records invocation wall time, batch sizes and
  crash/refusal counts around the executor's ``invoke_batch``, and for
  an in-process sandbox the fuel and heap its account was charged over
  the batch.  The executor runs the same code, profiled or not; only
  the isolated design adds a figure of its own, the per-shard shm round
  trip;
* each physical operator gets an :class:`OperatorStats` recording rows
  and batches produced and cumulative (inclusive) wall time, keyed by
  the logical plan node so ``EXPLAIN ANALYZE`` can annotate the plan;
* each compiled predicate gets a :class:`PredicateProbe` counting rows
  in/out for the adaptive selectivity store.

Everything is pre-bound at query setup: the execution hot path updates
plain attributes on objects it already holds.  With observability off no
profile exists and every instrumentation site is a single ``is None``
branch per batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ResourceExhausted, UDFCrashed
from .adaptive import AdaptiveFeedback
from .metrics import MetricsRegistry


class UDFProfile:
    """Pre-bound per-(function, design) instrumentation handles."""

    __slots__ = ("name", "design", "calls", "batches", "total_ns",
                 "invoke_ns", "batch_rows", "fuel_used", "heap_used",
                 "crashes", "refusals", "round_trip_ns",
                 "_adaptive_entry")

    def __init__(
        self,
        name: str,
        design: str,
        registry: MetricsRegistry,
        adaptive: Optional[AdaptiveFeedback],
    ):
        self.name = name
        self.design = design
        prefix = f"udf.{name}.{design}"
        self.calls = registry.counter(f"{prefix}.calls")
        self.batches = registry.counter(f"{prefix}.batches")
        self.total_ns = registry.counter(f"{prefix}.total_ns")
        #: Per-invocation wall time: one sample per batch (the batch's
        #: mean per call), exact at batch size 1.
        self.invoke_ns = registry.histogram(f"{prefix}.invoke_ns")
        self.batch_rows = registry.histogram(f"{prefix}.batch_rows")
        #: What the in-process sandbox account was charged (zero for
        #: native code and for isolated workers, whose account is
        #: theirs): the certified bound where the path prepays it (a
        #: kernel, a certified clone, a prepaid frame), else the metered
        #: count; heap net of the arena's refunds.
        self.fuel_used = registry.counter(f"{prefix}.fuel_used")
        self.heap_used = registry.counter(f"{prefix}.heap_used")
        self.crashes = registry.counter(f"{prefix}.crashes")
        self.refusals = registry.counter(f"{prefix}.refusals")
        #: Isolated design only, recorded by its executor: the
        #: send-to-result shm round trip, per shard.
        self.round_trip_ns = registry.histogram(f"{prefix}.round_trip_ns")
        self._adaptive_entry = (
            adaptive.udf_entry(name) if adaptive is not None else None
        )

    def record_invocations(self, count: int, elapsed_ns: int) -> None:
        """One executed batch of ``count`` calls taking ``elapsed_ns``."""
        self.calls.inc(count)
        self.batches.inc(1)
        self.total_ns.inc(elapsed_ns)
        self.invoke_ns.observe(elapsed_ns / count)
        self.batch_rows.observe(count)
        if self._adaptive_entry is not None:
            self._adaptive_entry.record(count, elapsed_ns)

    def record_resources(self, fuel: int, heap: int) -> None:
        self.fuel_used.inc(fuel)
        self.heap_used.inc(heap)

    def record_error(self, exc: BaseException) -> None:
        if isinstance(exc, UDFCrashed):
            self.crashes.inc(1)
        elif isinstance(exc, ResourceExhausted):
            self.refusals.inc(1)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "design": self.design,
            "calls": self.calls.value,
            "batches": self.batches.value,
            "total_ns": self.total_ns.value,
            "invoke_ns": self.invoke_ns.summary(),
            "batch_rows": self.batch_rows.summary(),
            "fuel_used": self.fuel_used.value,
            "heap_used": self.heap_used.value,
            "crashes": self.crashes.value,
            "refusals": self.refusals.value,
            "round_trip_ns": self.round_trip_ns.summary(),
        }


class OperatorStats:
    """Rows/batches produced and cumulative inclusive wall time."""

    __slots__ = ("label", "rows", "batches", "time_ns")

    def __init__(self, label: str):
        self.label = label
        self.rows = 0
        self.batches = 0
        self.time_ns = 0


class PredicateProbe:
    """Wraps one compiled conjunct, counting rows in and rows passing.

    Transparent to evaluation: a batch goes to the inner batch -> column
    function unchanged, so UDF call-site batching, memoization, and NULL
    semantics are exactly what they were without the probe.
    """

    __slots__ = ("fn", "entry")

    def __init__(self, fn, entry):
        self.fn = fn
        self.entry = entry

    def __call__(self, rows: Sequence[Sequence[object]]) -> List[object]:
        values = self.fn(rows)
        passed = 0
        for value in values:
            if value is True:
                passed += 1
        self.entry.record(len(values), passed)
        return values


class QueryProfile:
    """Everything observed while executing one query."""

    def __init__(
        self,
        registry: MetricsRegistry,
        adaptive: Optional[AdaptiveFeedback] = None,
        track_operators: bool = True,
    ):
        self.registry = registry
        self.adaptive = adaptive
        self.track_operators = track_operators
        self.udfs: Dict[Tuple[str, str], UDFProfile] = {}
        self.inlined_udfs: Dict[str, object] = {}
        self._operators: Dict[int, OperatorStats] = {}
        self._operator_order: List[OperatorStats] = []

    # -- UDF layer --------------------------------------------------------

    def udf(self, name: str, design: str) -> UDFProfile:
        key = (name, design)
        profile = self.udfs.get(key)
        if profile is None:
            profile = UDFProfile(name, design, self.registry, self.adaptive)
            self.udfs[key] = profile
        return profile

    def inlined(self, name: str):
        """Counter of rows an inlined (former) call site evaluated.

        Deliberately NOT a :class:`UDFProfile` and NOT adaptive-fed: an
        inlined body is native SQL evaluation, so counting it as UDF
        ``calls`` would double-book work the VM never did, and feeding
        its (near-zero) timings into the adaptive store would corrupt
        the observed per-call cost of the designs that still execute
        the UDF for real.
        """
        counter = self.inlined_udfs.get(name)
        if counter is None:
            counter = self.registry.counter(f"udf.{name}.inlined_calls")
            self.inlined_udfs[name] = counter
        return counter

    # -- operator layer ---------------------------------------------------

    def operator(self, node: object, label: str) -> OperatorStats:
        """Stats slot for the physical operator built from ``node``.

        Keyed by the logical plan node's identity so ``EXPLAIN ANALYZE``
        can line annotations up with the rendered plan.
        """
        stats = self._operators.get(id(node))
        if stats is None:
            stats = OperatorStats(label)
            self._operators[id(node)] = stats
            self._operator_order.append(stats)
        return stats

    def operator_stats(self, node: object) -> Optional[OperatorStats]:
        return self._operators.get(id(node))

    # -- predicate layer --------------------------------------------------

    @property
    def wants_selectivity(self) -> bool:
        return self.adaptive is not None

    def predicate_probe(self, key: str, fn):
        return PredicateProbe(fn, self.adaptive.predicate_entry(key))

    # -- teardown ---------------------------------------------------------

    def finish(self) -> None:
        """Fold per-operator totals into the registry as counters."""
        registry = self.registry
        for stats in self._operator_order:
            prefix = f"op.{stats.label}"
            registry.counter(f"{prefix}.rows").inc(stats.rows)
            registry.counter(f"{prefix}.batches").inc(stats.batches)
            registry.counter(f"{prefix}.time_ns").inc(stats.time_ns)


class Observability:
    """Database-level observability switchboard.

    ``metrics`` turns on cumulative collection into :attr:`registry`
    (surfaced by ``db.stats()``); ``adaptive`` turns on the feedback
    store the optimizer consults (and implies collection).  Both off —
    the default — means :meth:`query_profile` returns ``None`` and the
    engine takes its seed code paths untouched.
    """

    def __init__(self, metrics: bool = False, adaptive: bool = False):
        self.enabled = bool(metrics)
        self.registry = MetricsRegistry() if metrics else None
        self.adaptive = AdaptiveFeedback() if adaptive else None

    @property
    def collecting(self) -> bool:
        return self.enabled or self.adaptive is not None

    def query_profile(self, force: bool = False) -> Optional[QueryProfile]:
        """A profile for one query, or ``None`` when nothing collects.

        ``force`` (EXPLAIN ANALYZE) always profiles, into a private
        registry so the rendered numbers are that one run's — adaptive
        feedback still accumulates, since the query really executed.
        Operator wrapping is skipped for adaptive-only profiles: the
        feedback store needs UDF costs and predicate counts, not
        per-operator row totals.
        """
        if force:
            return QueryProfile(MetricsRegistry(), self.adaptive)
        if self.enabled:
            return QueryProfile(self.registry, self.adaptive)
        if self.adaptive is not None:
            return QueryProfile(
                MetricsRegistry(), self.adaptive, track_operators=False
            )
        return None

    def stats(self) -> dict:
        """The ``db.stats()`` JSON dump."""
        return {
            "metrics": (
                self.registry.snapshot() if self.registry is not None else None
            ),
            "adaptive": (
                self.adaptive.snapshot() if self.adaptive is not None else None
            ),
        }
