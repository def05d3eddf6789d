"""Physical (Volcano-style) operators, batch-at-a-time.

Every operator yields *batches* (lists of value-list rows) from
``batches()``, and every operator reads its children through theirs;
``rows()`` is only the flattening a SELECT's result and an UPDATE's or
DELETE's matches are read through.  Expressions are compiled to batch ->
column functions (:mod:`repro.sql.expressions`), so a predicate, a
projection or a sort key crosses into a UDF once per batch.  PREDATOR
"is not a parallel OR-DBMS ... all expressions (including UDFs) are
evaluated in a serial manner" — and so are these: batching changes how
rows are *grouped* between operators (so fixed per-invocation UDF costs
amortize, see ``repro.core.factory.UDFExecutor.invoke_batch``), never
the order rows flow in or the rows produced.  Every operator runs on
the statement's own thread.  The one parallel path is inside an
isolated UDF's executor, which splits a batch across its worker
processes and returns the results in input order
(``repro.core.isolated.RemoteExecutor.invoke_batch``).

``batch_size`` is configurable per operator (the executor threads the
database's setting through); size 1 degenerates to exact tuple-at-a-time
behaviour.

The scans decode records with the table's codec; large
byte-array values surface as :class:`~repro.storage.lob.LOBRef` and stay
lazy until an expression needs them (by value or by handle).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from time import perf_counter_ns
from typing import Iterator, List, Optional, Sequence

from ..errors import ExecutionError
from ..storage.btree import BPlusTree
from .expressions import INT_HI, INT_LO, EvalFn, int_overflow

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
        values = predicate(rows)
        rows = [row for row, value in zip(rows, values) if value is True]
    return rows


def eval_column(fn: EvalFn, rows: Batch, size: int) -> List[object]:
    """``fn`` over materialized ``rows`` (a sort's input, an UPDATE's
    matches), ``size`` rows per batch."""
    return [
        value for start in range(0, len(rows), size)
        for value in fn(rows[start:start + size])
    ]


def _flatten(op: "PhysicalOp") -> Batch:
    return [row for batch in op.batches() for row in batch]


class PhysicalOp:
    batch_size: int = DEFAULT_BATCH_SIZE

    def batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """The batches flattened (a SELECT's result, DML's matches)."""
        for batch in self.batches():
            yield from batch


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


def _pinned_image(snapshot, table_info):
    """The snapshot's frozen image of the table, or None to read live
    pages (no snapshot, or a table created after the pin)."""
    if snapshot is None:
        return None
    return snapshot.image_for(table_info.name)


class SeqScan(PhysicalOp):
    """Full scan of a heap file with optional residual predicates.

    Each page's rows come from one pool read, decoded by the table's
    codec: a resident page's kept rows (copied, so nothing the scan or
    its consumers do can reach the frame), else a decode in place under
    one pin.  They are handed on together; no RID is built unless
    ``with_rids`` ends each row with its own (UPDATE, DELETE).  Past a
    quarter of the pool, a page the scan misses is read into the scan's
    own page buffer and takes no frame, so it does not evict the hot
    pages.  Under a pinned
    :class:`~repro.storage.mvcc.Snapshot` the scan reads the heap handle
    over the table's frozen image instead of the live one — same
    records, same storage order, but never touching the buffer pool, so
    snapshot readers cannot block on (or observe) the serialized writer.
    """

    def __init__(self, table_info, predicates: Sequence[EvalFn] = (),
                 batch_size: Optional[int] = None, snapshot=None,
                 with_rids: bool = False):
        self.table_info = table_info
        self.predicates = list(predicates)
        self.snapshot = snapshot
        self.with_rids = with_rids
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        image = _pinned_image(self.snapshot, self.table_info)
        heap = self.table_info.heap if image is None else image.heap
        return _filtered_batches(
            self.predicates, max(1, self.batch_size),
            heap.scan_rows(self.table_info.codec.decode, self.with_rids),
        )


class IndexScan(PhysicalOp):
    """B+-tree range scan feeding record fetches.

    The source is picked once: the live pool and heap, or, under a
    pinned snapshot, the table's frozen image, which carries every
    index's tree pages and root as of its install.  Either way the same
    descent and leaf walk run, and only the records the range returns
    are decoded: one heap-page pin per run of them on the same page,
    handed on as one list, in key order.  ``with_rids`` is as for
    :class:`SeqScan`.
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
        with_rids: bool = False,
    ):
        self.pool = pool
        self.table_info = table_info
        self.index_info = index_info
        self.lo = lo
        self.hi = hi
        self.predicates = list(predicates)
        self.snapshot = snapshot
        self.with_rids = with_rids
        _set_batch_size(self, batch_size)

    def _rows_in_key_order(self) -> Iterator[Batch]:
        image = _pinned_image(self.snapshot, self.table_info)
        if image is None:
            source, heap = self.pool, self.table_info.heap
            root = self.index_info.root_page
        else:
            source, heap = image, image.heap
            root = image.root_of(self.index_info)
        entries = BPlusTree(source, root).range_scan(self.lo, self.hi)
        return heap.read_runs(
            (rid for __, rid in entries), self.table_info.codec.decode,
            self.with_rids,
        )

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
            columns = [fn(batch) for fn in exprs]
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
        inner = [list(row) for row in _flatten(self.right)]
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
    """Hash aggregation over group keys.

    Each batch's group keys are zipped once, into one tuple per row;
    each aggregate then folds its whole argument column into the groups
    with the accumulator its function picked when the operator was
    built.  Without GROUP BY there is one group, and a fold is one call
    over the column (``sum``, ``min``, ``max``, ``len``).  The group
    dict keeps first-seen order, which is the output order.
    """

    def __init__(
        self,
        child: PhysicalOp,
        group_fns: Sequence[EvalFn],
        agg_specs: Sequence[tuple],  # (func, arg_fn|None, distinct)
        batch_size: Optional[int] = None,
    ):
        self.child = child
        self.group_fns = list(group_fns)
        self.arg_fns = [arg_fn for __, arg_fn, __ in agg_specs]
        self.accumulators = [
            _CountRows if arg_fn is None
            else partial(_Distinct, _FOLDS[func]) if distinct
            else _FOLDS[func]
            for func, arg_fn, distinct in agg_specs
        ]
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        group_fns = self.group_fns
        # Without GROUP BY the one group exists even over no rows.
        groups = {} if group_fns else {_ONE: None}
        keys = None
        accumulators = [make() for make in self.accumulators]
        work = list(zip(self.arg_fns, accumulators))
        for batch in self.child.batches():
            # Group keys and aggregate arguments evaluate batch-wise, so
            # a UDF inside SUM(udf(x)) or GROUP BY udf(x) amortizes too.
            if group_fns:
                keys = list(zip(*[fn(batch) for fn in group_fns]))
                groups.update(dict.fromkeys(keys))
            for arg_fn, accumulator in work:
                accumulator.fold(
                    keys, batch if arg_fn is None else arg_fn(batch)
                )
        columns = [accumulator.results(groups) for accumulator in accumulators]
        rows = [[*key, *values] for key, *values in zip(groups, *columns)]
        size = max(1, self.batch_size)
        for start in range(0, len(rows), size):
            yield rows[start:start + size]


#: The group key of an aggregate without GROUP BY.
_ONE = ()


class _Count:
    """COUNT: the non-NULL values per group."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = Counter()

    def fold(self, keys, column) -> None:
        if keys is None:
            self.counts[_ONE] += len(column) - column.count(None)
        else:
            self.counts.update(
                [key for key, value in zip(keys, column) if value is not None]
            )

    def results(self, keys) -> list:
        counts = self.counts
        return [counts[key] for key in keys]


class _CountRows(_Count):
    """COUNT(*): the rows per group (its column is the batch itself)."""

    __slots__ = ()

    def fold(self, keys, column) -> None:
        if keys is None:
            self.counts[_ONE] += len(column)
        else:
            self.counts.update(keys)


class _Sum:
    """SUM: a running total per group, an int over INT values so that it
    stays exact, refused once it leaves the INT domain."""

    __slots__ = ("totals",)

    def __init__(self):
        self.totals = {}

    def fold(self, keys, column) -> None:
        totals = self.totals
        if keys is None:
            values = [value for value in column if value is not None]
            if values:
                totals[_ONE] = sum(values, totals.get(_ONE, 0))
            return
        get = totals.get
        for key, value in zip(keys, column):
            if value is not None:
                totals[key] = get(key, 0) + value

    def results(self, keys) -> list:
        totals = [self.totals.get(key) for key in keys]
        for total in totals:
            if total.__class__ is int and not INT_LO <= total <= INT_HI:
                raise int_overflow("sum", total)
        return totals


class _Avg(_Sum):
    """AVG: SUM's exact total over a count of the values."""

    __slots__ = ("counts",)

    def __init__(self):
        super().__init__()
        self.counts = _Count()

    def fold(self, keys, column) -> None:
        super().fold(keys, column)
        self.counts.fold(keys, column)

    def results(self, keys) -> list:
        totals, counts = self.totals, self.counts.counts
        return [
            totals[key] / counts[key] if key in totals else None
            for key in keys
        ]


class _Extreme:
    """MIN and MAX: the least or greatest value per group."""

    __slots__ = ("pick", "best")

    def __init__(self, pick):
        self.pick = pick
        self.best = {}

    def fold(self, keys, column) -> None:
        best, pick = self.best, self.pick
        if keys is None:
            values = [value for value in column if value is not None]
            if values:
                value = pick(values)
                current = best.get(_ONE)
                best[_ONE] = value if current is None else pick(current, value)
            return
        for key, value in zip(keys, column):
            if value is not None:
                current = best.get(key)
                best[key] = value if current is None else pick(current, value)

    def results(self, keys) -> list:
        return list(map(self.best.get, keys))


class _Distinct:
    """An aggregate over DISTINCT values: each group keeps its set, and
    its function folds the set once, at the result."""

    __slots__ = ("make", "seen")

    def __init__(self, make):
        self.make = make
        self.seen = {}

    def fold(self, keys, column) -> None:
        seen = self.seen
        if keys is None:
            seen.setdefault(_ONE, set()).update(column)
            return
        for key, value in zip(keys, column):
            values = seen.get(key)
            if values is None:
                seen[key] = values = set()
            values.add(value)

    def results(self, keys) -> list:
        results = []
        for key in keys:
            accumulator = self.make()
            accumulator.fold(None, list(self.seen.get(key, ())))
            results += accumulator.results([_ONE])
        return results


#: Each aggregate function's accumulator, built once per execution.
_FOLDS = {
    "count": _Count,
    "sum": _Sum,
    "avg": _Avg,
    "min": partial(_Extreme, min),
    "max": partial(_Extreme, max),
}


class Sort(PhysicalOp):
    """Materializing, stable multi-key sort.

    Keys apply right to left, each over the order the previous one
    left.  A key column is computed batch by batch over the
    materialized rows before its sort, so a UDF in ORDER BY crosses once
    per batch and sees the rows in input order.
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
        materialized = _flatten(self.child)
        size = max(1, self.batch_size)
        for key_fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            keys = eval_column(key_fn, materialized, size)
            if None in keys:
                keys = [_null_last(key) for key in keys]
            order = sorted(range(len(keys)), key=keys.__getitem__,
                           reverse=desc)
            materialized = [materialized[index] for index in order]
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


class Limit(PhysicalOp):
    def __init__(self, child: PhysicalOp, limit: int,
                 batch_size: Optional[int] = None):
        self.child = child
        self.limit = limit
        _set_batch_size(self, batch_size)

    def batches(self) -> Iterator[Batch]:
        # Stop pulling as soon as the limit is met: Limit consumes no
        # child batch past the one that holds its last row.
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.child.batches():
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch
