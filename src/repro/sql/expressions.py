"""Expression compilation and evaluation.

SQL expressions compile once per query — not interpreted per tuple —
into one form: a function from a *batch* (a list of rows, each a plain
list of values) to a *column* (a list holding one value per row).  Every
node kind is written once, over columns.  Three-valued NULL logic
follows SQL: NULL propagates through arithmetic and comparisons,
``AND``/``OR`` use Kleene logic, and WHERE treats NULL as false.

``AND``, ``OR``, ``CASE`` and ``IN`` evaluate a later operand only over
the rows the earlier ones left undecided, so an operand behind a guard
(a division, a UDF call) sees exactly the rows a tuple-at-a-time
evaluation would show it, whatever the batch size.

UDF invocation happens here: a :class:`UDFCallSite` closes over the
executor chosen for the query (one of the six designs) and the argument
functions.  Byte-array arguments are materialized from LOB storage when
the UDF takes them *by value*; parameters declared ``handle`` instead
register the object with the query's callback binding and pass a small
integer — the two access strategies whose trade-off Section 5.5
measures.
"""

from __future__ import annotations

import operator
import re
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence

from ..core.udf import conform_results
from ..errors import ArithmeticFault, ExecutionError, PlanError
from ..storage.lob import LOBRef
from ..vm.values import f2i, idiv, imod, wrap_int
from . import ast_nodes as A
from ..types import TYPES
from .types import RowSchema, SQLType

Batch = Sequence[Sequence[object]]
EvalFn = Callable[[Batch], List[object]]

#: Aggregate function names (handled by the Aggregate operator, never
#: compiled as scalar calls).
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


class QueryRuntime:
    """Per-query services expression evaluation needs.

    * LOB materialization for by-value byte arguments;
    * handle registration for handle-mode UDF arguments;
    * the UDF executors selected for this query;
    * ``params``, the values a template's :class:`~repro.sql.ast_nodes.Slot`
      leaves bind to in this execution.
    """

    def __init__(self, lobs=None, binding=None, params=()):
        self.lobs = lobs
        self.binding = binding
        self.params = params
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


def _sql_type(name) -> SQLType:
    """A declared UDF type, given as a member or as any spelling."""
    return name if isinstance(name, SQLType) else SQLType(name)


#: Per type, for call sites: the classes an argument is widened from
#: (an INT for a FLOAT), and the classes a result may have as it is,
#: NULL included (any other goes through the row's ``conform``).
_ARG_WIDENS = {
    t: tuple(c for c in row.accepts if c is not row.canonical)
    for t, row in TYPES.items()
}
_RESULT_PLAIN = {
    t: frozenset({type(None)} | ({row.canonical} - set(row.accepts)))
    for t, row in TYPES.items()
}


class UDFCallSite:
    """A compiled UDF call within an expression.

    Every design's batches cross here, so this is where a batch is
    checked and observed, the same way for all six: each result must be
    a value of the UDF's declared type or NULL (else
    :class:`~repro.errors.UDFInvocationError`), and leaves in that
    type's canonical class (:meth:`~repro.types.TypeRow.conform`: a
    sandbox's ``bytearray`` is ``bytes``, a float list an
    ``array('d')``, whichever design ran it), and when the query
    collects a profile, the batch's wall time, calls, errors and, for
    an in-process sandbox, the fuel and heap its account was charged are
    recorded around the executor's unchanged ``invoke_batch``.

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
        "_memo_probes", "_memo_hits", "_coercers", "_profile",
        "_ret_row", "_ret_plain", "_ret_domain",
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
        # Per parameter: LOB materialization (by-value BYTES), handle
        # minting (HANDLE), or widening (an INT value for a FLOAT
        # parameter); None when a row's raw values are already in
        # argument form, which skips the per-row _coerce_args call.
        coercers = [self._coercer(_sql_type(t)) for t in param_types]
        self._coercers = coercers if any(coercers) else None
        # The resolver attaches the query's profile before compiling
        # any call site of the executor.
        self._profile = getattr(executor, "profile", None)
        self._ret_row = None
        if definition is not None:
            ret = _sql_type(definition.signature.ret_type)
            self._ret_row = TYPES[ret]
            self._ret_plain = _RESULT_PLAIN[ret]
            self._ret_domain = self._ret_row.domain

    def _coercer(self, param: SQLType):
        if param is SQLType.BYTES:
            return self.runtime.materialize
        if param is SQLType.HANDLE:
            return self.runtime.make_handle
        widens = _ARG_WIDENS[param]
        if not widens:
            return None
        normalise = TYPES[param].normalise
        return lambda value: (
            normalise(value) if value.__class__ in widens else value
        )

    def _coerce_args(self, raw: Sequence[object]) -> List[object]:
        """Materialize/handle/widen one row's argument values, in order."""
        args = []
        for value, coerce in zip(raw, self._coercers):
            args.append(value if coerce is None else coerce(value))
        return args

    def __call__(self, rows: Batch) -> List[object]:
        """Evaluate the call over a batch of rows.

        Argument subexpressions are themselves evaluated batch-wise (so
        nested UDF calls amortize too), NULL rows short out without an
        invocation, pure-UDF memoization dedupes *within* the batch as
        well as across batches, and everything left crosses the design
        boundary in one :meth:`~repro.core.factory.UDFExecutor.invoke_batch`
        call — the per-invocation marshalling/IPC tax is paid once per
        batch instead of once per tuple.
        """
        arg_columns = [fn(rows) for fn in self.arg_fns]
        results: List[object] = [None] * len(rows)
        call_slots: List[int] = []
        call_args: List[List[object]] = []
        passthrough = self._coercers is None
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
            if self._profile is None:
                values = self.executor.invoke_batch(call_args)
            else:
                values = self._invoke_profiled(call_args)
            if self._ret_row is not None:
                values = self._checked(values)
            for slot, value in zip(call_slots, values):
                results[slot] = value
                if memo is not None:
                    key = key_by_slot.get(slot)
                    if key is not None:
                        memo[key] = value
        for slot, earlier in dup_of.items():
            results[slot] = results[earlier]
        return results

    def _invoke_profiled(self, call_args: List[List[object]]) -> list:
        """``invoke_batch`` recorded into the query's profile."""
        executor = self.executor
        prof = self._profile
        account = executor.account
        if account is not None:
            fuel, heap = account.charged
        started = perf_counter_ns()
        try:
            values = executor.invoke_batch(call_args)
        except BaseException as exc:
            prof.record_error(exc)
            raise
        finally:
            elapsed = perf_counter_ns() - started
            if account is not None:
                fuel_now, heap_now = account.charged
                prof.record_resources(fuel_now - fuel, heap_now - heap)
        prof.record_invocations(len(call_args), elapsed)
        return values

    def _checked(self, values: list) -> list:
        """``values`` if each is NULL or its type's canonical value as it
        is; else each conformed to the declared type, or a
        :class:`~repro.errors.UDFInvocationError` for the first that is
        not one (:func:`~repro.core.udf.conform_results`)."""
        plain, domain = self._ret_plain, self._ret_domain
        if domain is None:
            for value in values:
                if value.__class__ not in plain:
                    break
            else:
                return values
        else:
            low, high = domain
            for value in values:
                if value.__class__ not in plain or (
                    value is not None and not low <= value <= high
                ):
                    break
            else:
                return values
        return conform_results(self.name, self._ret_row.sql_type, values)


class FunctionResolver:
    """Maps function names in expressions to call sites.

    The default resolver knows only built-ins; the executor subclasses
    it with UDF knowledge (registry + per-query executors).
    """

    def resolve_udf(self, name: str):
        """Return (executor, param_type_names) or None."""
        return None

    def udf_ret_type(self, name: str):
        """Declared return type of a registered UDF, or None.

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
    """Compile an expression into a batch -> column function."""
    resolver = resolver or FunctionResolver()
    runtime = runtime or QueryRuntime()
    return _compile(expr, schema, resolver, runtime)


def _compile(expr, schema, resolver, runtime) -> EvalFn:
    if isinstance(expr, (A.Literal, A.Slot)):
        value = (
            expr.value if isinstance(expr, A.Literal)
            else runtime.params[expr.index]
        )
        return lambda rows: [value] * len(rows)
    if isinstance(expr, A.ColumnRef):
        index = schema.resolve(expr.name, expr.table)
        return lambda rows: [row[index] for row in rows]
    if isinstance(expr, A.BinaryOp):
        return _compile_binary(expr, schema, resolver, runtime)
    if isinstance(expr, A.UnaryOp):
        operand = _compile(expr.operand, schema, resolver, runtime)
        if expr.op == "-":
            return _int_result("-", _strict(operator.neg, [operand]))
        if expr.op == "not":
            return _strict(operator.not_, [operand])
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, A.IsNull):
        operand = _compile(expr.operand, schema, resolver, runtime)
        if expr.negated:
            return lambda rows: [v is not None for v in operand(rows)]
        return lambda rows: [v is None for v in operand(rows)]
    if isinstance(expr, A.Between):
        negated = expr.negated

        def between(value, lo, hi):
            result = lo <= value <= hi
            return (not result) if negated else result

        return _strict(between, [
            _compile(node, schema, resolver, runtime)
            for node in (expr.operand, expr.low, expr.high)
        ])
    if isinstance(expr, A.InList):
        return _compile_in(expr, schema, resolver, runtime)
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


def _strict(fn: Callable, children: Sequence[EvalFn]) -> EvalFn:
    """``fn`` mapped over the children's columns; NULL wherever any
    argument is NULL.  Every child runs over the whole batch."""
    if len(children) == 1:
        (child,) = children
        return lambda rows: [
            None if value is None else fn(value) for value in child(rows)
        ]
    if len(children) == 2:
        left, right = children
        return lambda rows: [
            None if a is None or b is None else fn(a, b)
            for a, b in zip(left(rows), right(rows))
        ]
    return lambda rows: [
        None if any(value is None for value in args) else fn(*args)
        for args in zip(*[child(rows) for child in children])
    ]


def _take(rows: Batch, indexes: List[int]) -> Batch:
    """The rows at ``indexes`` (ascending): the batch itself when that is
    every row."""
    if len(indexes) == len(rows):
        return rows
    return [rows[index] for index in indexes]


def _compile_in(expr: A.InList, schema, resolver, runtime) -> EvalFn:
    """``IN`` evaluates each item only over the rows whose operand is
    non-NULL and that no earlier item matched."""
    operand = _compile(expr.operand, schema, resolver, runtime)
    items = [_compile(item, schema, resolver, runtime) for item in expr.items]
    negated = expr.negated

    def in_list(rows):
        values = operand(rows)
        results = [None if value is None else negated for value in values]
        pending = [i for i, value in enumerate(values) if value is not None]
        for item in items:
            if not pending:
                break
            unmatched = []
            for i, item_value in zip(pending, item(_take(rows, pending))):
                if item_value == values[i]:
                    results[i] = not negated
                else:
                    unmatched.append(i)
            pending = unmatched
        return results

    return in_list


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

    if expr.trap_safe and len(when_fns) == 1 and default_fn is not None:
        # Trap-free fast path (flow-certified): no branch can trap, and
        # every scalar op / builtin is NULL-strict, so running both
        # branches over the whole batch and selecting per row is
        # observationally identical to partitioning — minus the
        # per-branch row-list rebuilds.
        ((cond_fn, value_fn),) = when_fns

        def case_trapfree(rows):
            conds = cond_fn(rows)
            defaults = default_fn(rows)
            if True not in conds:
                # Nobody took the WHEN branch (for the inliner's NULL
                # guard: a batch with no NULL arguments) — the defaults
                # ARE the results, no per-row selection.
                return defaults
            values = value_fn(rows)
            return [
                v if c is True else d
                for c, v, d in zip(conds, values, defaults)
            ]

        return case_trapfree

    # Each branch value is evaluated only on the rows whose condition
    # selected it, so trapping expressions stay behind their guards.
    def case(rows):
        results: List[object] = [None] * len(rows)
        pending = list(range(len(rows)))
        for cond_fn, value_fn in when_fns:
            if not pending:
                break
            conds = cond_fn(_take(rows, pending))
            taken = [i for i, c in zip(pending, conds) if c is True]
            pending = [i for i, c in zip(pending, conds) if c is not True]
            if taken:
                for i, value in zip(taken, value_fn(_take(rows, taken))):
                    results[i] = value
        if pending and default_fn is not None:
            for i, value in zip(pending, default_fn(_take(rows, pending))):
                results[i] = value
        return results

    return case


def _compile_inlined(expr: A.Inlined, schema, resolver, runtime) -> EvalFn:
    body = _compile(expr.body, schema, resolver, runtime)
    profile = getattr(resolver, "profile", None)
    if profile is None:
        return body  # fully transparent: the body *is* the call
    counter = profile.inlined(expr.name)

    def inlined(rows):
        counter.inc(len(rows))
        return body(rows)

    return inlined


def _compile_binary(expr, schema, resolver, runtime) -> EvalFn:
    op = expr.op
    left = _compile(expr.left, schema, resolver, runtime)
    right = _compile(expr.right, schema, resolver, runtime)
    if op == "and":
        return _kleene(left, right, short_value=False)
    if op == "or":
        return _kleene(left, right, short_value=True)
    fn = _BINARY.get(op)
    if fn is None:
        raise PlanError(f"unknown binary operator {op!r}")
    column = _strict(fn, [left, right])
    return _int_result(op, column) if op in _OVERFLOWS else column


#: The operators whose INT result can leave the INT type's domain
#: (``/`` only as ``-9223372036854775808 / -1``).
_OVERFLOWS = ("+", "-", "*", "/")
INT_LO, INT_HI = TYPES[SQLType.INT].domain


def int_overflow(op: str, value: int) -> ExecutionError:
    """The error for an INT result of ``op`` outside the INT domain."""
    return ExecutionError(
        f"integer overflow: '{op}' gives {value}, outside the 64-bit INT "
        f"range"
    )


def _int_result(op: str, column: EvalFn) -> EvalFn:
    """``column`` refusing an int outside the INT domain with a named
    :class:`ExecutionError`, embedded and over the wire alike.  The
    unchecked column stays on ``.wrapping`` for ``wrap64(...)``, the
    VM's wrapping arithmetic, which inlined UDF bodies are built from."""
    def checked(rows):
        values = column(rows)
        for value in values:
            if value.__class__ is int and not INT_LO <= value <= INT_HI:
                raise int_overflow(op, value)
        return values

    checked.wrapping = column
    return checked


def _kleene(left: EvalFn, right: EvalFn, short_value: bool) -> EvalFn:
    """Kleene AND (``short_value`` False) or OR (True).

    The right side is evaluated only on the rows the left side did not
    decide (``short_value`` is the absorbing element), so a UDF on the
    right runs on the rows a per-tuple evaluation would show it.
    """
    def kleene(rows):
        left_values = left(rows)
        results = [short_value] * len(rows)
        pending = [i for i, a in enumerate(left_values)
                   if a is not short_value]
        if pending:
            right_values = right(_take(rows, pending))
            for i, b in zip(pending, right_values):
                if b is short_value:
                    continue
                if left_values[i] is None or b is None:
                    results[i] = None
                else:
                    results[i] = not short_value
        return results

    return kleene


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


def _like(value, pattern) -> bool:
    return _like_regex(pattern).fullmatch(value) is not None


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _sql_div,
    "%": _sql_mod,
}

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Every NULL-strict binary operator.
_BINARY = {**_ARITH, **_COMPARE, "like": _like}


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
    the VM truncates toward zero.  It wraps IADD/ISUB/IMUL/INEG results
    in ``wrap64``, the VM's 64-bit two's-complement reduction.  The semantics live in
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
    "wrap64": (1, wrap_int),
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
        if name == "wrap64":
            arg_fns = [getattr(arg, "wrapping", arg) for arg in arg_fns]
        return _strict(fn, arg_fns)
    raise PlanError(f"unknown function {expr.name!r}")


# ---------------------------------------------------------------------------
# Light type inference (for output schemas)
# ---------------------------------------------------------------------------

#: The type of a literal: the storable type of its canonical class.
_LITERAL_TYPES = {
    row.canonical: t for t, row in TYPES.items() if row.storable
}


def infer_type(
    expr: A.Expr, schema: RowSchema, resolver: Optional[FunctionResolver] = None
) -> SQLType:
    """Best-effort static type; falls back to NULL for unknowns."""
    if isinstance(expr, A.Literal):
        return _LITERAL_TYPES.get(expr.value.__class__, SQLType.NULL)
    if isinstance(expr, A.Slot):
        return expr.sql_type
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
        return _infer_call_type(expr, schema, resolver)
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
    "wrap64": SQLType.INT,
}


def aggregate_type(name: str, arg_type: SQLType) -> SQLType:
    """The result type of aggregate ``name`` over an argument of
    ``arg_type``: COUNT is INT and AVG FLOAT; SUM is INT over INT and
    FLOAT otherwise; MIN and MAX take their argument's type."""
    if name == "count":
        return SQLType.INT
    if name == "sum":
        return SQLType.INT if arg_type is SQLType.INT else SQLType.FLOAT
    if name == "avg":
        return SQLType.FLOAT
    return arg_type


def _infer_call_type(expr: A.FuncCall, schema, resolver) -> SQLType:
    name = expr.name.lower()
    if name in AGGREGATE_NAMES:
        arg_type = (
            SQLType.NULL if expr.star or not expr.args
            else infer_type(expr.args[0], schema, resolver)
        )
        return aggregate_type(name, arg_type)
    if resolver is not None:
        ret = resolver.udf_ret_type(name)
        if ret is not None:
            return SQLType(ret).row.value_type
    return _BUILTIN_RESULT_TYPES.get(name, SQLType.NULL)
