"""Physical (Volcano-style) operators, batch-at-a-time.

Each operator exposes ``batches()``, a generator of *batches* (lists of
value-list rows), plus ``rows()``, the flattened per-row view.  PREDATOR
"is not a parallel OR-DBMS ... all expressions (including UDFs) are
evaluated in a serial manner" — and so are these: batching changes how
rows are *grouped* between operators (so fixed per-invocation UDF costs
amortize, see ``repro.core.factory.UDFExecutor.invoke_batch``), never
the order rows flow in or the rows produced.

A concrete operator must implement at least one of ``rows``/``batches``;
the base class derives the other (chunking or flattening respectively).
``batch_size`` is configurable per operator (the executor threads the
database's setting through); size 1 degenerates to exact tuple-at-a-time
behaviour.

The scans decode records with the table's codec; large
byte-array values surface as :class:`~repro.storage.lob.LOBRef` and stay
lazy until an expression needs them (by value or by handle).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns
from typing import Callable, Iterator, List, Optional, Sequence

from ..errors import ExecutionError
from ..storage.btree import BPlusTree
from .expressions import EvalFn, eval_batch

Row = List[object]
Batch = List[Row]

#: Default number of rows per batch.  Chosen so per-invocation UDF
#: overhead (IPC hand-off, marshalling, VM entry) amortizes well while
#: batches of 10 KB byte arrays still fit comfortably in memory.
DEFAULT_BATCH_SIZE = 64


def apply_predicates(
    predicates: Sequence[EvalFn], rows: Batch
) -> Batch:
    """Filter a batch through conjuncts, batch-wise, in rank order.

    Each predicate is evaluated over the survivors of the previous one —
    exactly the rows a per-tuple conjunction would have evaluated it on,
    so UDF invocation counts are identical to tuple-at-a-time execution.
    Only strict ``True`` passes (SQL WHERE treats NULL as false).
    """
    for predicate in predicates:
        if not rows:
            break
        values = eval_batch(predicate, rows)
        rows = [row for row, value in zip(rows, values) if value is True]
    return rows


class PhysicalOp:
    batch_size: int = DEFAULT_BATCH_SIZE

    def rows(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch

    def batches(self) -> Iterator[Batch]:
        # Fallback for sources that only implement rows() (tests, ad-hoc
        # operators): chunk the row stream at this operator's batch size.
        batch: Batch = []
        size = max(1, self.batch_size)
        for row in self.rows():
            batch.append(row)
            if len(batch) >= size:
                yield batch
                batch = []
        if batch:
            yield batch


def instrument_operator(op: PhysicalOp, stats) -> PhysicalOp:
    """Shadow ``op.batches`` with a counting/timing wrapper (EXPLAIN
    ANALYZE support).

    ``stats`` is any object with mutable ``rows``/``batches``/``time_ns``
    attributes (see :class:`repro.obs.profile.OperatorStats`).  The
    wrapper measures *inclusive* time — this operator plus everything
    below it — per ``next()`` and counts the batches and rows produced.
    It shadows ``batches`` on the instance, so the class stays pristine
    and ``rows()`` (which calls ``self.batches()``) flows through it
    too.  Uninstrumented operators pay nothing: the wrapper only exists
    on plans built under an active query profile.
    """
    inner = op.batches

    def batches() -> Iterator[Batch]:
        iterator = inner()
        while True:
            started = perf_counter_ns()
            try:
                batch = next(iterator)
            except StopIteration:
                stats.time_ns += perf_counter_ns() - started
                return
            stats.time_ns += perf_counter_ns() - started
            stats.batches += 1
            stats.rows += len(batch)
            yield batch

    op.batches = batches
    return op


def _set_batch_size(op: PhysicalOp, batch_size: Optional[int]) -> None:
    if batch_size is not None:
        if batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {batch_size}")
        op.batch_size = batch_size


def _filtered_batches(
    predicates: Sequence[EvalFn], size: int, pages: Iterator[Batch]
) -> Iterator[Batch]:
    """Regroup rows arriving a page at a time into batches of ``size``
    (the last may be short), each filtered through ``predicates``."""
    pending: Batch = []
    for rows in pages:
        pending += rows
        if len(pending) < size:
            continue
        cut = len(pending) - len(pending) % size
        for start in range(0, cut, size):
            batch = apply_predicates(predicates, pending[start:start + size])
            if batch:
                yield batch
        pending = pending[cut:]
    if pending:
        batch = apply_predicates(predicates, pending)
        if batch:
            yield batch


class SeqScan(PhysicalOp):
    """Full scan of a heap file with optional residual predicates.

    Each page is decoded in place by the table's codec under one pin,
    and its rows are handed on together; no RID is built.  Under a
    pinned :class:`~repro.storage.mvcc.Snapshot` the scan reads the
    table's frozen page image instead of the live heap — same records,
    same storage order, but never touching the buffer pool, so snapshot
    readers cannot block on (or observe) the serialized writer.
    """

    def __init__(self, table_info, predicates: Sequence[EvalFn] = (),
                 batch_size: Optional[int] = None, snapshot=None):
        self.table_info = table_info
        self.predicates = list(predicates)
        self.snapshot = snapshot
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        source = self.table_info.heap
        if self.snapshot is not None:
            image = self.snapshot.image_for(self.table_info.name)
            if image is not None:
                source = image
        return _filtered_batches(
            self.predicates, max(1, self.batch_size),
            source.scan_rows(self.table_info.codec.decode),
        )


class IndexScan(PhysicalOp):
    """B+-tree range scan feeding record fetches.

    Under a pinned snapshot the B+-tree (whose pages version with the
    live heap, not with any image) cannot be walked; instead the frozen
    table image is scanned and key order is recovered with a stable sort
    on the indexed column — identical output for the append-ordered,
    unique-rid trees this engine builds, without touching live pages.
    """

    def __init__(
        self,
        pool,
        table_info,
        index_info,
        lo: Optional[int],
        hi: Optional[int],
        predicates: Sequence[EvalFn] = (),
        batch_size: Optional[int] = None,
        snapshot=None,
    ):
        self.pool = pool
        self.table_info = table_info
        self.index_info = index_info
        self.lo = lo
        self.hi = hi
        self.predicates = list(predicates)
        self.snapshot = snapshot
        _set_batch_size(self, batch_size)

    def _rows_in_key_order(self) -> Iterator[Batch]:
        decode = self.table_info.codec.decode
        if self.snapshot is not None:
            image = self.snapshot.image_for(self.table_info.name)
            if image is not None:
                position = self.table_info.column_index(
                    self.index_info.column
                )
                lo, hi = self.lo, self.hi
                selected = []
                for rows in image.scan_rows(decode):
                    for row in rows:
                        key = row[position]
                        if key is None:  # NULL keys are not indexed
                            continue
                        if lo is not None and key < lo:
                            continue
                        if hi is not None and key > hi:
                            continue
                        selected.append(row)
                selected.sort(key=lambda row: row[position])
                yield selected
                return
        tree = BPlusTree(self.pool, self.index_info.root_page)
        heap = self.table_info.heap
        for __, rid in tree.range_scan(self.lo, self.hi):
            yield [heap.get(rid, decode)]

    def batches(self) -> Iterator[Batch]:
        return _filtered_batches(
            self.predicates, max(1, self.batch_size),
            self._rows_in_key_order(),
        )


class Filter(PhysicalOp):
    def __init__(self, child: PhysicalOp, predicates: Sequence[EvalFn],
                 batch_size: Optional[int] = None):
        self.child = child
        self.predicates = list(predicates)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        predicates = self.predicates
        for batch in self.child.batches():
            batch = apply_predicates(predicates, batch)
            if batch:
                yield batch


class Project(PhysicalOp):
    def __init__(self, child: PhysicalOp, exprs: Sequence[EvalFn],
                 batch_size: Optional[int] = None):
        self.child = child
        self.exprs = list(exprs)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        exprs = self.exprs
        for batch in self.child.batches():
            columns = [eval_batch(fn, batch) for fn in exprs]
            yield [
                [column[index] for column in columns]
                for index in range(len(batch))
            ]


class NestedLoopJoin(PhysicalOp):
    """Block nested-loop cross join with optional join predicates.

    The right input is materialized once (PREDATOR's serial executor did
    the same for its inner relations).  Combined rows accumulate into
    batches so join predicates — including UDF predicates — evaluate
    batch-wise.
    """

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        predicates: Sequence[EvalFn] = (),
        batch_size: Optional[int] = None,
    ):
        self.left = left
        self.right = right
        self.predicates = list(predicates)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        inner = [list(row) for row in self.right.rows()]
        predicates = self.predicates
        size = max(1, self.batch_size)
        pending: Batch = []
        for left_batch in self.left.batches():
            for left_row in left_batch:
                for right_row in inner:
                    pending.append(left_row + right_row)
                    if len(pending) >= size:
                        batch = apply_predicates(predicates, pending)
                        pending = []
                        if batch:
                            yield batch
        if pending:
            batch = apply_predicates(predicates, pending)
            if batch:
                yield batch


class Aggregate(PhysicalOp):
    """Hash aggregation over group keys."""

    def __init__(
        self,
        child: PhysicalOp,
        group_fns: Sequence[EvalFn],
        agg_specs: Sequence[tuple],  # (func, arg_fn|None, distinct)
        batch_size: Optional[int] = None,
    ):
        self.child = child
        self.group_fns = list(group_fns)
        self.agg_specs = list(agg_specs)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        groups = {}
        order: List[tuple] = []
        group_fns = self.group_fns
        agg_specs = self.agg_specs
        for batch in self.child.batches():
            # Group keys and aggregate arguments evaluate batch-wise, so
            # a UDF inside SUM(udf(x)) or GROUP BY udf(x) amortizes too.
            key_columns = [eval_batch(fn, batch) for fn in group_fns]
            arg_columns = [
                eval_batch(arg_fn, batch) if arg_fn is not None else None
                for __, arg_fn, __ in agg_specs
            ]
            for index in range(len(batch)):
                key = tuple(column[index] for column in key_columns)
                state = groups.get(key)
                if state is None:
                    state = [_AggState(func, distinct)
                             for func, __, distinct in agg_specs]
                    groups[key] = state
                    order.append(key)
                for agg_state, column in zip(state, arg_columns):
                    value = (
                        column[index] if column is not None else _COUNT_STAR
                    )
                    agg_state.update(value)
        if not order and not self.group_fns:
            # Aggregate over an empty input still yields one row.
            state = [_AggState(func, distinct)
                     for func, __, distinct in self.agg_specs]
            yield [[s.result() for s in state]]
            return
        size = max(1, self.batch_size)
        pending: Batch = []
        for key in order:
            pending.append(list(key) + [s.result() for s in groups[key]])
            if len(pending) >= size:
                yield pending
                pending = []
        if pending:
            yield pending


_COUNT_STAR = object()


class _AggState:
    __slots__ = ("func", "distinct", "count", "total", "extreme", "seen")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = 0.0
        self.extreme = None
        self.seen = set() if distinct else None

    def update(self, value) -> None:
        if value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return  # SQL aggregates skip NULLs
        if self.seen is not None:
            key = value
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total += value
        elif self.func == "min":
            self.extreme = value if self.extreme is None else min(self.extreme, value)
        elif self.func == "max":
            self.extreme = value if self.extreme is None else max(self.extreme, value)

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "avg":
            return (self.total / self.count) if self.count else None
        return self.extreme


class Sort(PhysicalOp):
    """Materializing sort.

    Key evaluation stays row-at-a-time (the ORDER-sensitive path keeps
    the seed semantics exactly); only the *output* is re-batched.
    """

    def __init__(
        self,
        child: PhysicalOp,
        key_fns: Sequence[EvalFn],
        descending: Sequence[bool],
        batch_size: Optional[int] = None,
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.descending = list(descending)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        materialized = list(self.child.rows())
        # Stable multi-key sort: apply keys right-to-left.
        for key_fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            materialized.sort(
                key=lambda row: _null_last(key_fn(row)), reverse=desc
            )
        size = max(1, self.batch_size)
        for start in range(0, len(materialized), size):
            yield materialized[start:start + size]


def _null_last(value):
    """Sort key wrapper: NULLs order after every real value."""
    return (value is None, value)


class Distinct(PhysicalOp):
    def __init__(self, child: PhysicalOp, batch_size: Optional[int] = None):
        self.child = child
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        seen = set()
        for batch in self.child.batches():
            fresh: Batch = []
            for row in batch:
                key = tuple(
                    bytes(v) if isinstance(v, bytearray) else v for v in row
                )
                try:
                    new = key not in seen
                except TypeError:
                    raise ExecutionError(
                        "DISTINCT over unhashable values is not supported"
                    ) from None
                if new:
                    seen.add(key)
                    fresh.append(row)
            if fresh:
                yield fresh


class Exchange(PhysicalOp):
    """Evaluate an expensive stage over child batches on a thread pool.

    The optimizer inserts this above (or inside, for pushed-down scan
    predicates) Filter/Project work whose UDFs are certified safe to run
    concurrently — pure sandboxed UDFs have no shared state, and
    isolated UDFs live in their own worker processes.  ``stage`` maps
    one input batch to one output batch (e.g. an ``apply_predicates``
    closure or a Project's column evaluation).

    Ordering guarantee: batches are dispatched in child order and
    results are *collected* in dispatch order — a FIFO of futures
    absorbs out-of-order completion — so the output row order is
    identical to serial evaluation.  At ``parallelism<=1`` the stage
    runs inline with no pool and no queue: exact serial semantics.

    At most ``parallelism + 1`` batches are in flight, so an early-exit
    consumer (Limit) wastes bounded work and memory stays bounded.
    """

    def __init__(
        self,
        child: PhysicalOp,
        stage: Callable[[Batch], Batch],
        parallelism: int = 1,
        batch_size: Optional[int] = None,
    ):
        self.child = child
        self.stage = stage
        self.parallelism = max(1, parallelism)
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        stage = self.stage
        if self.parallelism <= 1:
            for batch in self.child.batches():
                out = stage(batch)
                if out:
                    yield out
            return
        in_flight_cap = self.parallelism + 1
        with ThreadPoolExecutor(
            max_workers=self.parallelism, thread_name_prefix="exchange"
        ) as pool:
            in_flight: deque = deque()
            for batch in self.child.batches():
                in_flight.append(pool.submit(stage, batch))
                if len(in_flight) >= in_flight_cap:
                    out = in_flight.popleft().result()
                    if out:
                        yield out
            while in_flight:
                out = in_flight.popleft().result()
                if out:
                    yield out


class Limit(PhysicalOp):
    def __init__(self, child: PhysicalOp, limit: int,
                 batch_size: Optional[int] = None):
        self.child = child
        self.limit = limit
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        # Pull the child's lazy row stream, not whole batches: Limit must
        # consume no more child rows than it returns (a Volcano property
        # the tests pin down), so early exit stays row-granular.
        remaining = self.limit
        if remaining <= 0:
            return
        size = max(1, self.batch_size)
        batch: Batch = []
        for row in self.child.rows():
            batch.append(row)
            remaining -= 1
            if remaining == 0 or len(batch) >= size:
                yield batch
                batch = []
            if remaining == 0:
                return
        if batch:
            yield batch
