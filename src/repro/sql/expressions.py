"""Expression compilation and evaluation.

SQL expressions compile to Python closures over the row (a plain list of
values), once per query — not interpreted per tuple.  Three-valued NULL
logic follows SQL: NULL propagates through arithmetic and comparisons,
``AND``/``OR`` use Kleene logic, and WHERE treats NULL as false.

UDF invocation happens here: a :class:`UDFCallSite` closes over the
executor chosen for the query (one of the six designs) and the argument
closures.  Byte-array arguments are materialized from LOB storage when
the UDF takes them *by value*; parameters declared ``handle`` instead
register the object with the query's callback binding and pass a small
integer — the two access strategies whose trade-off Section 5.5
measures.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ArithmeticFault, ExecutionError, PlanError
from ..storage.lob import LOBRef
from ..vm.values import f2i, idiv, imod
from . import ast_nodes as A
from .types import RowSchema, SQLType

EvalFn = Callable[[Sequence[object]], object]

#: Aggregate function names (handled by the Aggregate operator, never
#: compiled as scalar calls).
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def eval_batch(fn: EvalFn, rows: Sequence[Sequence[object]]) -> List[object]:
    """Evaluate a compiled expression over a batch of rows.

    Expressions that carry a vectorized entry point (``fn.eval_batch``)
    — UDF call sites and the operators composed over them — evaluate the
    whole batch at once, amortizing per-invocation overhead; everything
    else falls back to one Python-level loop over the per-row closure.
    """
    batch_fn = getattr(fn, "eval_batch", None)
    if batch_fn is not None:
        return batch_fn(rows)
    return [fn(row) for row in rows]


def _attach_batch(fn: EvalFn, children: Sequence[EvalFn],
                  combine: Callable) -> EvalFn:
    """Give ``fn`` a batch entry point when any child has one.

    ``combine`` maps one value per child to the node's result.  Plain
    column/literal trees stay un-annotated so the scalar fast path is
    untouched; only trees that actually contain a batchable node (a UDF
    call site) grow the vectorized form.
    """
    if any(getattr(child, "eval_batch", None) is not None
           for child in children):
        def batch(rows):
            columns = [eval_batch(child, rows) for child in children]
            return [combine(*values) for values in zip(*columns)]

        fn.eval_batch = batch
    return fn


class QueryRuntime:
    """Per-query services expression evaluation needs.

    * LOB materialization for by-value byte arguments;
    * handle registration for handle-mode UDF arguments;
    * the UDF executors selected for this query.
    """

    def __init__(self, lobs=None, binding=None):
        self.lobs = lobs
        self.binding = binding
        self._next_handle = 1
        self.udf_executors = {}

    def materialize(self, value: object) -> object:
        """Resolve a stored LOB reference into bytes (by-value access)."""
        if isinstance(value, LOBRef):
            if self.lobs is None:
                raise ExecutionError(
                    "LOB value encountered without a LOB manager"
                )
            return self.lobs.read(value)
        return value

    def make_handle(self, value: object) -> int:
        """Register an object for callback access; returns the handle."""
        if self.binding is None:
            raise ExecutionError(
                "handle-mode UDF argument without a callback binding"
            )
        if isinstance(value, LOBRef):
            if self.lobs is None:
                raise ExecutionError("LOB handle without a LOB manager")
            value = self.lobs.handle(value)
        handle = self._next_handle
        self._next_handle += 1
        self.binding.add_handle(handle, value)
        return handle


class UDFCallSite:
    """A compiled UDF call within an expression.

    Call sites of UDFs the load-time analyzer proved *pure* memoize
    results by argument tuple: repeated values in a column (the common
    case for low-cardinality predicates) then cost one sandbox crossing
    per distinct value instead of one per tuple.  The cache lives and
    dies with the call site, i.e. with one query's compiled expression.
    The memo is adaptive: once enough probes have gone by without a
    single hit (a high-cardinality argument column), it is dropped for
    the rest of the query so distinct-heavy scans stop paying the
    per-row hashing tax for a cache that never pays off.
    """

    __slots__ = (
        "name", "executor", "param_types", "arg_fns", "runtime", "_memo",
        "_memo_probes", "_memo_hits", "_passthrough",
    )

    #: Probes without a hit before an adaptive memo gives up (2 batches
    #: at the default batch size of 64).
    MEMO_PROBE_LIMIT = 128

    def __init__(self, name, executor, param_types, arg_fns, runtime):
        self.name = name
        self.executor = executor
        self.param_types = param_types
        self.arg_fns = arg_fns
        self.runtime = runtime
        definition = getattr(executor, "definition", None)
        pure = bool(definition is not None and
                    getattr(definition, "is_pure", False))
        self._memo: Optional[dict] = {} if pure else None
        self._memo_probes = 0
        self._memo_hits = 0
        # No bytes/handle/float parameter anywhere: a row's raw values
        # are already in argument form, so batch assembly can skip the
        # per-row _coerce_args call entirely.
        self._passthrough = not any(
            pt in ("bytes", "handle", "float") for pt in param_types
        )

    def __call__(self, row: Sequence[object]) -> object:
        args = []
        for fn, param_type in zip(self.arg_fns, self.param_types):
            value = fn(row)
            if value is None:
                return None  # strict NULL semantics for UDFs
            if param_type == "bytes":
                value = self.runtime.materialize(value)
            elif param_type == "handle":
                value = self.runtime.make_handle(value)
            elif param_type == "float" and isinstance(value, int):
                value = float(value)
            args.append(value)
        memo = self._memo
        if memo is None:
            return self.executor.invoke(args)
        try:
            key = tuple(args)
            if key in memo:
                return memo[key]
        except TypeError:  # unhashable argument (e.g. bytearray)
            return self.executor.invoke(args)
        result = self.executor.invoke(args)
        memo[key] = result
        return result

    def _coerce_args(self, raw: Sequence[object]) -> List[object]:
        """Materialize/handle/widen one row's argument values, in order."""
        args = []
        runtime = self.runtime
        for value, param_type in zip(raw, self.param_types):
            if param_type == "bytes":
                value = runtime.materialize(value)
            elif param_type == "handle":
                value = runtime.make_handle(value)
            elif param_type == "float" and isinstance(value, int):
                value = float(value)
            args.append(value)
        return args

    def eval_batch(self, rows: Sequence[Sequence[object]]) -> List[object]:
        """Evaluate the call over a batch of rows.

        Argument subexpressions are themselves evaluated batch-wise (so
        nested UDF calls amortize too), NULL rows short out without an
        invocation, pure-UDF memoization dedupes *within* the batch as
        well as across batches, and everything left crosses the design
        boundary in one :meth:`~repro.core.factory.UDFExecutor.invoke_batch`
        call — the per-invocation marshalling/IPC tax is paid once per
        batch instead of once per tuple.
        """
        arg_columns = [eval_batch(fn, rows) for fn in self.arg_fns]
        results: List[object] = [None] * len(rows)
        call_slots: List[int] = []
        call_args: List[List[object]] = []
        passthrough = self._passthrough
        if len(arg_columns) == 1:
            # Single-argument fast path: no per-row row assembly.
            for index, value in enumerate(arg_columns[0]):
                if value is None:
                    continue  # strict NULL semantics for UDFs
                call_slots.append(index)
                call_args.append(
                    [value] if passthrough else self._coerce_args([value])
                )
        else:
            for index in range(len(rows)):
                raw = [column[index] for column in arg_columns]
                if any(value is None for value in raw):
                    continue  # strict NULL semantics for UDFs
                call_slots.append(index)
                call_args.append(
                    raw if passthrough else self._coerce_args(raw)
                )
        memo = self._memo
        key_by_slot: Dict[int, tuple] = {}
        if memo is not None and call_slots:
            pending_slots: List[int] = []
            pending_args: List[List[object]] = []
            first_slot_by_key: Dict[tuple, int] = {}
            dup_of: Dict[int, int] = {}  # slot -> earlier slot, same key
            for slot, args in zip(call_slots, call_args):
                key = tuple(args)
                try:
                    if key in memo:
                        results[slot] = memo[key]
                        self._memo_hits += 1
                        continue
                    earlier = first_slot_by_key.get(key)
                except TypeError:  # unhashable argument (e.g. bytearray)
                    pending_slots.append(slot)
                    pending_args.append(args)
                    continue
                if earlier is not None:
                    dup_of[slot] = earlier
                    self._memo_hits += 1
                    continue
                first_slot_by_key[key] = slot
                key_by_slot[slot] = key
                pending_slots.append(slot)
                pending_args.append(args)
            self._memo_probes += len(call_slots)
            if (self._memo_hits == 0
                    and self._memo_probes >= self.MEMO_PROBE_LIMIT):
                self._memo = None  # adaptive: cache never pays off here
            call_slots, call_args = pending_slots, pending_args
        else:
            dup_of = {}
        if call_args:
            values = self.executor.invoke_batch(call_args)
            for slot, value in zip(call_slots, values):
                results[slot] = value
                if memo is not None:
                    key = key_by_slot.get(slot)
                    if key is not None:
                        memo[key] = value
        for slot, earlier in dup_of.items():
            results[slot] = results[earlier]
        return results


class FunctionResolver:
    """Maps function names in expressions to call sites.

    The default resolver knows only built-ins; the executor subclasses
    it with UDF knowledge (registry + per-query executors).
    """

    def resolve_udf(self, name: str):
        """Return (executor, param_type_names) or None."""
        return None

    def udf_ret_type(self, name: str) -> Optional[str]:
        """SQL-facing return type name of a registered UDF, or None.

        Used by type inference at planning time.  The default derives it
        from :meth:`resolve_udf`; resolvers backed by a registry override
        this to answer without instantiating an executor (an inlined
        call site must not spawn a per-query process just to be typed).
        """
        udf = self.resolve_udf(name)
        if udf is None:
            return None
        executor, __ = udf
        return executor.definition.signature.ret_type


def compile_expr(
    expr: A.Expr,
    schema: RowSchema,
    resolver: Optional[FunctionResolver] = None,
    runtime: Optional[QueryRuntime] = None,
) -> EvalFn:
    """Compile an expression into a row -> value closure."""
    resolver = resolver or FunctionResolver()
    runtime = runtime or QueryRuntime()
    return _compile(expr, schema, resolver, runtime)


def _compile(expr, schema, resolver, runtime) -> EvalFn:
    if isinstance(expr, A.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, A.ColumnRef):
        index = schema.resolve(expr.name, expr.table)
        return lambda row: row[index]
    if isinstance(expr, A.BinaryOp):
        return _compile_binary(expr, schema, resolver, runtime)
    if isinstance(expr, A.UnaryOp):
        operand = _compile(expr.operand, schema, resolver, runtime)
        if expr.op == "-":
            return _attach_batch(
                lambda row: None if (v := operand(row)) is None else -v,
                [operand],
                lambda v: None if v is None else -v,
            )
        if expr.op == "not":
            def negate(row):
                value = operand(row)
                return None if value is None else not value
            return _attach_batch(
                negate, [operand],
                lambda v: None if v is None else not v,
            )
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, A.IsNull):
        operand = _compile(expr.operand, schema, resolver, runtime)
        if expr.negated:
            return _attach_batch(
                lambda row: operand(row) is not None,
                [operand], lambda v: v is not None,
            )
        return _attach_batch(
            lambda row: operand(row) is None,
            [operand], lambda v: v is None,
        )
    if isinstance(expr, A.Between):
        operand = _compile(expr.operand, schema, resolver, runtime)
        low = _compile(expr.low, schema, resolver, runtime)
        high = _compile(expr.high, schema, resolver, runtime)
        negated = expr.negated

        def between_values(value, lo, hi):
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if negated else result

        def between(row):
            return between_values(operand(row), low(row), high(row))

        return _attach_batch(between, [operand, low, high], between_values)
    if isinstance(expr, A.InList):
        operand = _compile(expr.operand, schema, resolver, runtime)
        items = [_compile(item, schema, resolver, runtime)
                 for item in expr.items]
        negated = expr.negated

        def in_values(value, *item_values):
            if value is None:
                return None
            found = any(item == value for item in item_values)
            return (not found) if negated else found

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            found = any(fn(row) == value for fn in items)
            return (not found) if negated else found

        return _attach_batch(in_list, [operand] + items, in_values)
    if isinstance(expr, A.FuncCall):
        return _compile_call(expr, schema, resolver, runtime)
    if isinstance(expr, A.Case):
        return _compile_case(expr, schema, resolver, runtime)
    if isinstance(expr, A.Inlined):
        return _compile_inlined(expr, schema, resolver, runtime)
    if isinstance(expr, A.ParamRef):
        raise PlanError(
            f"unsubstituted inline-template parameter ${expr.index + 1}"
        )
    if isinstance(expr, A.Star):
        raise PlanError("'*' is only valid in SELECT lists and COUNT(*)")
    raise PlanError(f"cannot compile expression {expr!r}")


def _compile_case(expr: A.Case, schema, resolver, runtime) -> EvalFn:
    when_fns = [
        (_compile(cond, schema, resolver, runtime),
         _compile(value, schema, resolver, runtime))
        for cond, value in expr.whens
    ]
    default_fn = (
        _compile(expr.default, schema, resolver, runtime)
        if expr.default is not None else None
    )

    if len(when_fns) == 1 and default_fn is not None:
        # The common shape — notably the NULL guard wrapped around
        # every inlined UDF body — deserves a branch, not a loop.
        ((cond_fn, value_fn),) = when_fns

        def case(row):
            return value_fn(row) if cond_fn(row) is True else default_fn(row)
    else:
        def case(row):
            for cond_fn, value_fn in when_fns:
                if cond_fn(row) is True:
                    return value_fn(row)
            return default_fn(row) if default_fn is not None else None

    children = [fn for pair in when_fns for fn in pair]
    if default_fn is not None:
        children.append(default_fn)
    if any(getattr(child, "eval_batch", None) is not None
           for child in children):
        if expr.trap_safe and len(when_fns) == 1 and default_fn is not None:
            # Trap-free fast path (flow-certified): no branch can trap,
            # and every scalar op / builtin is NULL-strict, so running
            # both branches over the whole batch and selecting per row
            # is observationally identical to partitioning — minus the
            # per-branch row-list rebuilds.
            ((cond_fn0, value_fn0),) = when_fns

            def case_batch_trapfree(rows):
                conds = eval_batch(cond_fn0, rows)
                defaults = eval_batch(default_fn, rows)
                if True not in conds:
                    # Nobody took the WHEN branch (for the inliner's
                    # NULL guard: a batch with no NULL arguments) — the
                    # defaults ARE the results, no per-row selection.
                    return defaults
                values = eval_batch(value_fn0, rows)
                return [
                    v if c is True else d
                    for c, v, d in zip(conds, values, defaults)
                ]

            case.eval_batch = case_batch_trapfree
            return case

        # Short-circuit batch form: each branch value is evaluated only
        # on the rows whose condition selected it (mirroring the scalar
        # path), so trapping expressions stay behind their guards.
        def case_batch(rows):
            results: List[object] = [None] * len(rows)
            pending = list(range(len(rows)))
            for cond_fn, value_fn in when_fns:
                if not pending:
                    break
                conds = eval_batch(cond_fn, [rows[i] for i in pending])
                taken = [i for i, c in zip(pending, conds) if c is True]
                pending = [i for i, c in zip(pending, conds)
                           if c is not True]
                if taken:
                    values = eval_batch(value_fn, [rows[i] for i in taken])
                    for i, value in zip(taken, values):
                        results[i] = value
            if pending and default_fn is not None:
                values = eval_batch(default_fn, [rows[i] for i in pending])
                for i, value in zip(pending, values):
                    results[i] = value
            return results

        case.eval_batch = case_batch
    return case


def _compile_inlined(expr: A.Inlined, schema, resolver, runtime) -> EvalFn:
    body = _compile(expr.body, schema, resolver, runtime)
    profile = getattr(resolver, "profile", None)
    counter = (
        profile.inlined(expr.name) if profile is not None else None
    )
    if counter is None:
        return body  # fully transparent: the body *is* the call

    def inlined(row):
        counter.inc(1)
        return body(row)

    def inlined_batch(rows):
        counter.inc(len(rows))
        return eval_batch(body, rows)

    inlined.eval_batch = inlined_batch
    return inlined


def _compile_binary(expr, schema, resolver, runtime) -> EvalFn:
    op = expr.op
    left = _compile(expr.left, schema, resolver, runtime)
    right = _compile(expr.right, schema, resolver, runtime)

    if op == "and":
        def kleene_and(row):
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True
        return _attach_short_circuit(
            kleene_and, left, right, short_value=False,
        )
    if op == "or":
        def kleene_or(row):
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False
        return _attach_short_circuit(
            kleene_or, left, right, short_value=True,
        )
    if op == "like":
        return _compile_like(left, right)

    arith = _ARITH.get(op)
    if arith is not None:
        def arith_values(a, b):
            if a is None or b is None:
                return None
            return arith(a, b)

        def arithmetic(row):
            return arith_values(left(row), right(row))
        return _attach_batch(arithmetic, [left, right], arith_values)
    compare = _COMPARE.get(op)
    if compare is not None:
        def compare_values(a, b):
            if a is None or b is None:
                return None
            return compare(a, b)

        def comparison(row):
            return compare_values(left(row), right(row))
        return _attach_batch(comparison, [left, right], compare_values)
    raise PlanError(f"unknown binary operator {op!r}")


def _attach_short_circuit(fn, left, right, short_value):
    """Batch form of Kleene AND/OR.

    The right side is evaluated only on the sub-batch the left side did
    not decide (``short_value`` is the absorbing element) — the same
    rows a per-tuple evaluation would touch, so batching never changes
    how often a UDF on the right-hand side runs.
    """
    if (getattr(left, "eval_batch", None) is None
            and getattr(right, "eval_batch", None) is None):
        return fn

    def batch(rows):
        left_values = eval_batch(left, rows)
        results = [short_value] * len(rows)
        pending = [i for i, a in enumerate(left_values)
                   if a is not short_value]
        if pending:
            right_values = eval_batch(right, [rows[i] for i in pending])
            for i, b in zip(pending, right_values):
                if b is short_value:
                    results[i] = short_value
                elif left_values[i] is None or b is None:
                    results[i] = None
                else:
                    results[i] = not short_value
        return results

    fn.eval_batch = batch
    return fn


def _sql_div(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _sql_mod(a, b):
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _sql_div,
    "%": _sql_mod,
}

_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compile_like(left: EvalFn, right: EvalFn) -> EvalFn:
    def like_values(value, pattern):
        if value is None or pattern is None:
            return None
        regex = _like_regex(pattern)
        return regex.fullmatch(value) is not None

    def like(row):
        return like_values(left(row), right(row))

    return _attach_batch(like, [left, right], like_values)


def _like_regex(pattern: str) -> "re.Pattern":
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL)


# ---------------------------------------------------------------------------
# Scalar built-ins
# ---------------------------------------------------------------------------

def _patbytes(n: int, seed: int) -> bytes:
    """Deterministic pseudo-random bytes (LCG) for workload building."""
    out = bytearray(n)
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF
    for index in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out[index] = (state >> 16) & 0xFF
    return bytes(out)


def _length(value) -> int:
    if isinstance(value, LOBRef):
        # Large objects know their length without being materialized.
        return value.length
    return len(value)


def _vm_builtin(primitive):
    """A JaguarVM arithmetic primitive as a SQL builtin.

    The decompiler emits ``idiv``/``imod``/``trunc`` (not SQL ``/``,
    ``%``) for the VM's IDIV/IMOD/F2I opcodes: SQL division floors while
    the VM truncates toward zero.  The semantics live in
    :mod:`repro.vm.values`; only the trap is translated, since SQL
    expressions fail with :class:`ExecutionError`.
    """
    def call(*args):
        try:
            return primitive(*args)
        except ArithmeticFault as exc:
            raise ExecutionError(str(exc)) from None
    return call


_BUILTINS = {
    "abs": (1, abs),
    "length": (1, _length),
    "upper": (1, lambda s: s.upper()),
    "lower": (1, lambda s: s.lower()),
    "sqrt": (1, lambda x: float(x) ** 0.5),
    "floor": (1, lambda x: int(x // 1)),
    "ceil": (1, lambda x: int(-((-x) // 1))),
    "round": (1, lambda x: round(x)),
    "zerobytes": (1, lambda n: bytes(int(n))),
    "patbytes": (2, _patbytes),
    # VM-semantics helpers emitted by the UDF decompiler; also usable
    # directly from SQL.
    "idiv": (2, _vm_builtin(idiv)),
    "imod": (2, _vm_builtin(imod)),
    "float": (1, float),
    "trunc": (1, _vm_builtin(f2i)),
}


def _compile_call(expr: A.FuncCall, schema, resolver, runtime) -> EvalFn:
    name = expr.name.lower()
    if name in AGGREGATE_NAMES:
        raise PlanError(
            f"aggregate {name!r} is not allowed in this context"
        )
    udf = resolver.resolve_udf(name)
    if udf is not None:
        executor, param_types = udf
        if len(expr.args) != len(param_types):
            raise PlanError(
                f"UDF {name!r} takes {len(param_types)} arguments, "
                f"got {len(expr.args)}"
            )
        arg_fns = [
            _compile(arg, schema, resolver, runtime) for arg in expr.args
        ]
        return UDFCallSite(name, executor, param_types, arg_fns, runtime)
    builtin = _BUILTINS.get(name)
    if builtin is not None:
        arity, fn = builtin
        if len(expr.args) != arity:
            raise PlanError(
                f"{name}() takes {arity} argument(s), got {len(expr.args)}"
            )
        arg_fns = [
            _compile(arg, schema, resolver, runtime) for arg in expr.args
        ]

        def call_values(*args):
            if any(a is None for a in args):
                return None
            return fn(*args)

        def call(row):
            return call_values(*[f(row) for f in arg_fns])

        return _attach_batch(call, arg_fns, call_values)
    raise PlanError(f"unknown function {expr.name!r}")


# ---------------------------------------------------------------------------
# Light type inference (for output schemas)
# ---------------------------------------------------------------------------

def infer_type(
    expr: A.Expr, schema: RowSchema, resolver: Optional[FunctionResolver] = None
) -> SQLType:
    """Best-effort static type; falls back to NULL for unknowns."""
    if isinstance(expr, A.Literal):
        value = expr.value
        if isinstance(value, bool):
            return SQLType.BOOL
        if isinstance(value, int):
            return SQLType.INT
        if isinstance(value, float):
            return SQLType.FLOAT
        if isinstance(value, str):
            return SQLType.STRING
        return SQLType.NULL
    if isinstance(expr, A.ColumnRef):
        index = schema.resolve(expr.name, expr.table)
        return schema.columns[index].sql_type
    if isinstance(expr, A.BinaryOp):
        if expr.op in ("and", "or", "like") or expr.op in _COMPARE:
            return SQLType.BOOL
        left = infer_type(expr.left, schema, resolver)
        right = infer_type(expr.right, schema, resolver)
        if SQLType.FLOAT in (left, right):
            return SQLType.FLOAT
        if left is SQLType.INT and right is SQLType.INT:
            return SQLType.INT
        return left if left is not SQLType.NULL else right
    if isinstance(expr, A.UnaryOp):
        if expr.op == "not":
            return SQLType.BOOL
        return infer_type(expr.operand, schema, resolver)
    if isinstance(expr, (A.IsNull, A.Between, A.InList)):
        return SQLType.BOOL
    if isinstance(expr, A.FuncCall):
        return _infer_call_type(expr, resolver)
    if isinstance(expr, A.Case):
        for __, value in expr.whens:
            inferred = infer_type(value, schema, resolver)
            if inferred is not SQLType.NULL:
                return inferred
        if expr.default is not None:
            return infer_type(expr.default, schema, resolver)
        return SQLType.NULL
    if isinstance(expr, A.Inlined):
        return infer_type(expr.body, schema, resolver)
    return SQLType.NULL


_UDF_RESULT_TYPES = {
    "int": SQLType.INT,
    "float": SQLType.FLOAT,
    "bool": SQLType.BOOL,
    "str": SQLType.STRING,
    "bytes": SQLType.BYTES,
    "farr": SQLType.FLOATARR,
    "handle": SQLType.INT,
}

_BUILTIN_RESULT_TYPES = {
    "abs": SQLType.FLOAT,
    "length": SQLType.INT,
    "upper": SQLType.STRING,
    "lower": SQLType.STRING,
    "sqrt": SQLType.FLOAT,
    "floor": SQLType.INT,
    "ceil": SQLType.INT,
    "round": SQLType.INT,
    "zerobytes": SQLType.BYTES,
    "patbytes": SQLType.BYTES,
    "idiv": SQLType.INT,
    "imod": SQLType.INT,
    "float": SQLType.FLOAT,
    "trunc": SQLType.INT,
}


def _infer_call_type(expr: A.FuncCall, resolver) -> SQLType:
    name = expr.name.lower()
    if name == "count":
        return SQLType.INT
    if name in ("sum", "avg", "min", "max"):
        return SQLType.FLOAT
    if resolver is not None:
        ret = resolver.udf_ret_type(name)
        if ret is not None:
            return _UDF_RESULT_TYPES.get(ret, SQLType.NULL)
    return _BUILTIN_RESULT_TYPES.get(name, SQLType.NULL)
