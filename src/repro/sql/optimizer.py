"""Rule-based optimizer.

Four rewrites, each motivated by the paper's setting:

1. **Predicate pushdown** — single-table conjuncts move from filters and
   joins down to their scans, so UDF predicates apply "at the early
   stages of a query evaluation plan at the server" (Section 2.2's
   stated motivation for server-side UDFs).
2. **Constant folding of pure UDFs** — a UDF the load-time analyzer
   proved pure (no callbacks, the Froid insight applied to bytecode),
   applied to all-literal arguments, is evaluated once at plan time and
   replaced by its result; the per-tuple sandbox crossing disappears
   entirely.
3. **Expensive-predicate ordering** — within each conjunct list,
   predicates are ordered by Hellerstein's rank, (selectivity - 1) /
   cost-per-tuple [Hel95, Jhi88].  Cheap selective predicates run before
   expensive UDFs, which is exactly how the paper's benchmark queries
   use "restrictive (and inexpensive) predicates in the WHERE clause"
   to control how many tuples reach the UDF.
4. **Index selection** — equality and range conjuncts over an indexed
   integer column turn the scan into one B+-tree range scan over the
   intersection of their bounds.

Cost and selectivity for UDFs come from their registration's
:class:`~repro.core.udf.CostHints` — declared by the operator, or
derived from bytecode by the static analyzer when the registration
omitted them; built-in comparisons use standard textbook heuristics.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from . import ast_nodes as A
from .expressions import infer_type
from .types import SQLType
from .planner import (
    IndexBound,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    SlotValues,
)

#: What the rewrites treat as a literal: a template's slot stands for
#: one, of its type.
_LITERALS = (A.Literal, A.Slot)

#: Default heuristics for built-in predicate shapes.
_EQ_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 0.3
_DEFAULT_SELECTIVITY = 0.5
_BUILTIN_COST = 1.0


class CostOracle:
    """Answers cost/selectivity questions about predicates.

    ``udf_hints(name)`` should return a
    :class:`~repro.core.udf.CostHints` or None; the executor wires this
    to the UDF registry.  ``udf_definition(name)`` exposes the full
    :class:`~repro.core.udf.UDFDefinition` (for purity facts) and
    ``fold_udf(name, args)`` evaluates a pure UDF at plan time — the
    base oracle knows no UDFs, so folding never triggers on it.
    """

    def udf_hints(self, name: str):
        return None

    def udf_definition(self, name: str):
        return None

    def udf_entry(self, name: str):
        """A sandboxed UDF's loaded entry function (its ``certificate``
        and ``flows``); None for native designs and the base oracle."""
        return None

    def fold_udf(self, name: str, args: List[object]) -> object:
        raise NotImplementedError(
            "this oracle cannot evaluate UDFs at plan time"
        )

    # -- inlining ---------------------------------------------------------

    def inline_template(self, name: str):
        """The UDF's :class:`~repro.analysis.decompile.InlineTemplate`,
        or None when it cannot (or must not) be inlined.  The executor's
        oracle answers from the registry when ``Database(inlining=True)``;
        the base oracle never inlines."""
        return None

    def inline_refusal(self, name: str) -> Optional[str]:
        """The refusal reason code for a non-inlinable UDF, or None.

        Only answered when inlining is enabled, so EXPLAIN output with
        inlining off is byte-identical to the seed.
        """
        return None

    def udf_tier(self, name: str) -> Optional[str]:
        """``kernel`` or ``tier0(<refusal>)`` for a sandboxed UDF, as
        decided at CREATE FUNCTION; None for native designs (and for
        the base oracle, which knows no UDFs)."""
        return None

    def udf_workers(self, name: str) -> Optional[int]:
        """How many worker processes an isolated UDF's executor would
        start; None for in-process designs (and for the base oracle)."""
        return None

    # -- adaptive feedback ------------------------------------------------

    def observed_cost(self, name: str) -> Optional[float]:
        """Measured per-call cost for a UDF, or None to stay static.

        The executor's oracle wires this to the database's
        :class:`~repro.obs.adaptive.AdaptiveFeedback` store when
        ``Database(adaptive=True)``; the base oracle never adapts.
        """
        return None

    def observed_selectivity(self, key: str) -> Optional[float]:
        """Measured selectivity for a predicate (keyed by its rendered
        SQL text), or None to stay static."""
        return None

    # -- predicate metrics ------------------------------------------------

    def udf_cost(self, name: str) -> Optional[float]:
        """Per-call cost for one UDF: observed if trusted, else hinted."""
        hints = self.udf_hints(name)
        if hints is None:
            return None
        observed = self.observed_cost(name)
        return observed if observed is not None else hints.cost_per_call

    def predicate_cost(self, expr: A.Expr) -> float:
        cost = _BUILTIN_COST
        for call in _function_calls(expr):
            per_call = self.udf_cost(call.name.lower())
            if per_call is not None:
                cost += per_call
        return cost

    def predicate_selectivity(self, expr: A.Expr) -> float:
        from .explain import render_expr

        observed = self.observed_selectivity(render_expr(expr))
        if observed is not None:
            return observed
        for call in _function_calls(expr):
            hints = self.udf_hints(call.name.lower())
            if hints is not None:
                return hints.selectivity
        if isinstance(expr, A.BinaryOp):
            if expr.op == "=":
                return _EQ_SELECTIVITY
            if expr.op in ("<", "<=", ">", ">="):
                return _RANGE_SELECTIVITY
        if isinstance(expr, A.Between):
            return _RANGE_SELECTIVITY
        return _DEFAULT_SELECTIVITY

    def rank(self, expr: A.Expr) -> float:
        """Hellerstein's rank: run predicates in increasing rank order."""
        cost = self.predicate_cost(expr)
        selectivity = self.predicate_selectivity(expr)
        return (selectivity - 1.0) / cost


def optimize(
    plan: LogicalPlan,
    oracle: Optional[CostOracle] = None,
    parallelism: int = 1,
    inlining: bool = False,
    slots: Optional[SlotValues] = None,
) -> LogicalPlan:
    """Apply all rewrites; returns the (mutated) plan.

    ``inlining`` enables the Froid rewrite (rewrite 0): UDF call sites
    with an :class:`~repro.analysis.decompile.InlineTemplate` are
    replaced by the lifted expression *before* the other rewrites, so
    pushdown, folding, and rank ordering all see through the call.

    A template's :class:`~repro.sql.ast_nodes.Slot` is a literal here:
    every rewrite decides the same for it as for a literal of its type,
    and index bounds keep it symbolic.  The rewrites that need a
    literal's value (folding, float widening of an inlined argument)
    read it from ``slots``, which makes the plan non-generic.

    ``parallelism`` is accepted and ignored: no rewrite depends on it,
    since it only sizes an isolated UDF's worker pool when the executor
    starts one.  The keyword stays because callers written against the
    older signature (perfbench's ``engine_api``) still pass it.
    """
    oracle = oracle or CostOracle()
    if inlining:
        _inline_udfs(plan, oracle, slots)
    plan = _pushdown(plan)
    _fold_constants(plan, oracle, slots)
    _order_predicates(plan, oracle)
    _select_indexes(plan)
    return plan


# ---------------------------------------------------------------------------
# Rewrite 0: Froid-style UDF inlining
# ---------------------------------------------------------------------------

def _takes(param: SQLType, arg: SQLType) -> bool:
    """Whether a value of SQL type ``arg`` is a value of ``param`` once
    normalised: the same canonical class, or one ``param`` widens (an
    INT for a FLOAT parameter).  NULL (statically unknown) always is."""
    cls = arg.row.canonical
    return (arg is SQLType.NULL or cls is param.row.canonical
            or cls in param.row.accepts)


def _inline_udfs(
    plan: LogicalPlan, oracle: CostOracle, slots: Optional[SlotValues]
) -> None:
    """Replace inlinable UDF call sites with their lifted expressions.

    Runs before every other rewrite, on the freshly planned tree, so
    the downstream passes (pushdown, folding, Hellerstein ordering,
    index selection) treat the lifted expression like native SQL —
    which is the whole point.
    """
    if isinstance(plan, (LogicalScan, LogicalJoin)):
        plan.predicates = [
            _inline_expr(p, oracle, plan.schema, slots)
            for p in plan.predicates
        ]
    elif isinstance(plan, LogicalFilter):
        plan.predicates = [
            _inline_expr(p, oracle, plan.child.schema, slots)
            for p in plan.predicates
        ]
    if isinstance(plan, LogicalProject):
        plan.exprs = [
            _inline_expr(e, oracle, plan.child.schema, slots)
            for e in plan.exprs
        ]
    if isinstance(plan, LogicalSort):
        plan.keys = [
            _inline_expr(k, oracle, plan.child.schema, slots)
            for k in plan.keys
        ]
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _inline_udfs(child, oracle, slots)


def _inline_expr(
    expr: A.Expr, oracle: CostOracle, schema, slots: Optional[SlotValues]
) -> A.Expr:
    """Bottom-up call-site replacement (nested inlinable calls work:
    the inner call becomes an :class:`~repro.sql.ast_nodes.Inlined`
    subtree, transparent to the outer call's argument checks)."""
    def visit(node: A.Expr) -> A.Expr:
        if isinstance(node, A.FuncCall):
            return _try_inline_call(node, oracle, schema, slots)
        return node

    return A.transform(expr, visit)


def _try_inline_call(
    call: A.FuncCall, oracle: CostOracle, schema,
    slots: Optional[SlotValues],
) -> A.Expr:
    if call.star or call.distinct:
        return call
    name = call.name.lower()
    template = oracle.inline_template(name)
    if template is None:
        return call
    params = oracle.udf_definition(name).signature.param_types
    if len(call.args) != len(params):
        return call
    if all(isinstance(arg, _LITERALS) for arg in call.args):
        # All-literal call sites are better served by rewrite 2: one
        # plan-time VM invocation folds to a literal, which beats
        # evaluating even an inlined guard per row.
        return call
    substituted: List[A.Expr] = []
    guards: List[A.Expr] = []
    for arg, param in zip(call.args, params):
        if _contains_udf_call(arg, oracle):
            # Substitution duplicates the argument expression once per
            # ParamRef occurrence plus the NULL guard; a UDF inside it
            # would multiply sandbox crossings.  Keep the site opaque.
            return call
        if isinstance(arg, A.Literal) and arg.value is None:
            # Strict NULL semantics: the whole call is NULL, always.
            return A.Inlined(name, A.Literal(None))
        # An argument whose inferred type is not a value of the
        # parameter's keeps its opaque call site: the call path would
        # reject the marshalling at run time, and inlining must not
        # silently compute where the call would have errored.
        inferred = infer_type(arg, schema, None)
        if not _takes(param, inferred):
            return call  # ill-typed call: let the call path report it
        if param is SQLType.FLOAT and inferred is not SQLType.FLOAT:
            # The call path widens int arguments at marshalling; the
            # lifted float arithmetic needs the same widening.
            if isinstance(arg, A.Slot):
                arg = A.Literal(slots.read(arg))
            if isinstance(arg, A.Literal) and isinstance(arg.value, int):
                arg = A.Literal(float(arg.value))
            else:
                arg = A.FuncCall("float", (arg,))
        substituted.append(arg)
        if not isinstance(arg, _LITERALS) and A.IsNull(arg) not in guards:
            # Dedup: f(x, x) needs one NULL test on x, not two.
            guards.append(A.IsNull(arg))
    body = _substitute_params(template.expr, substituted)
    if guards:
        # Strict NULL semantics at the (former) call boundary: any NULL
        # argument yields NULL without evaluating the body, exactly as
        # the call path shorts out before invoking the VM.  When the
        # flow certifier proved the UDF trap-free, the guard CASE is
        # marked so batch evaluation can run the body over the whole
        # batch and select, instead of partitioning rows per branch.
        flows = getattr(oracle.udf_entry(name), "flows", None)
        condition = guards[0]
        for guard in guards[1:]:
            condition = A.BinaryOp("or", condition, guard)
        body = A.Case(
            whens=((condition, A.Literal(None)),),
            default=body,
            trap_safe=bool(flows is not None and flows.trap_free),
        )
    return A.Inlined(name, body)


def _contains_udf_call(expr: A.Expr, oracle: CostOracle) -> bool:
    return any(
        oracle.udf_definition(call.name.lower()) is not None
        for call in _function_calls(expr)
    )


def _substitute_params(expr: A.Expr, args: List[A.Expr]) -> A.Expr:
    """Replace every :class:`ParamRef` leaf with its argument expression."""
    def visit(node: A.Expr) -> A.Expr:
        if isinstance(node, A.ParamRef):
            return args[node.index]
        return node

    return A.transform(expr, visit)


# ---------------------------------------------------------------------------
# Rewrite 1: predicate pushdown
# ---------------------------------------------------------------------------

def _pushdown(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, LogicalFilter):
        child = _pushdown(plan.child)
        remaining = [
            predicate for predicate in plan.predicates
            if not _try_push(child, predicate)
        ]
        if not remaining:
            return child
        plan.child = child
        plan.predicates = remaining
        return plan
    if isinstance(plan, LogicalJoin):
        plan.left = _pushdown(plan.left)
        plan.right = _pushdown(plan.right)
        remaining = [
            predicate for predicate in plan.predicates
            if not (
                _try_push(plan.left, predicate)
                or _try_push(plan.right, predicate)
            )
        ]
        plan.predicates = remaining
        return plan
    for attr in ("child",):
        child = getattr(plan, attr, None)
        if child is not None:
            setattr(plan, attr, _pushdown(child))
    return plan


def _try_push(plan: LogicalPlan, predicate: A.Expr) -> bool:
    """Push a conjunct to the deepest node that can evaluate it."""
    tables = _referenced_tables(predicate)
    if isinstance(plan, LogicalScan):
        if tables <= {plan.alias.lower()} or not tables:
            plan.predicates.append(predicate)
            return True
        return False
    if isinstance(plan, LogicalJoin):
        if _try_push(plan.left, predicate):
            return True
        if _try_push(plan.right, predicate):
            return True
        left_labels = _plan_labels(plan.left)
        right_labels = _plan_labels(plan.right)
        if tables <= (left_labels | right_labels):
            plan.predicates.append(predicate)
            return True
        return False
    if isinstance(plan, LogicalFilter):
        if _try_push(plan.child, predicate):
            return True
        plan.predicates.append(predicate)
        return True
    return False


def _referenced_tables(expr: A.Expr) -> Set[str]:
    """Aliases a predicate references; unqualified refs count as 'any'.

    An unqualified column could belong to any input, so predicates with
    unqualified references are treated as multi-table and stay put
    unless the plan has exactly one table (handled by the scan case
    accepting empty sets only for single-scan plans).
    """
    tables: Set[str] = set()
    for node in A.walk(expr):
        if isinstance(node, A.ColumnRef):
            tables.add(
                node.table.lower() if node.table else "*unqualified*"
            )
    return tables


def _plan_labels(plan: LogicalPlan) -> Set[str]:
    if isinstance(plan, LogicalScan):
        return {plan.alias.lower()}
    labels: Set[str] = set()
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            labels |= _plan_labels(child)
    return labels


# ---------------------------------------------------------------------------
# Rewrite 2: constant folding of pure UDFs
# ---------------------------------------------------------------------------

#: SQL-facing types whose values survive as plan-time literals.  LOB
#: handles and byte/float arrays are query-runtime objects and stay out.
_FOLDABLE_TYPES = frozenset(
    {SQLType.INT, SQLType.FLOAT, SQLType.BOOL, SQLType.STRING}
)


def _fold_constants(
    plan: LogicalPlan, oracle: CostOracle, slots: Optional[SlotValues]
) -> None:
    """Replace pure-UDF calls over literal args with their results."""
    if isinstance(plan, (LogicalScan, LogicalFilter, LogicalJoin)):
        plan.predicates = [
            _fold_expr(predicate, oracle, slots)
            for predicate in plan.predicates
        ]
    if isinstance(plan, LogicalProject):
        plan.exprs = [_fold_expr(expr, oracle, slots) for expr in plan.exprs]
    if isinstance(plan, LogicalSort):
        plan.keys = [_fold_expr(key, oracle, slots) for key in plan.keys]
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _fold_constants(child, oracle, slots)


def _fold_expr(
    expr: A.Expr, oracle: CostOracle, slots: Optional[SlotValues]
) -> A.Expr:
    """Bottom-up: arguments fold before the call that takes them."""
    def visit(node: A.Expr) -> A.Expr:
        if isinstance(node, A.FuncCall):
            return _try_fold_call(node, oracle, slots)
        return node

    return A.transform(expr, visit)


def _try_fold_call(
    call: A.FuncCall, oracle: CostOracle, slots: Optional[SlotValues]
) -> A.Expr:
    if call.star or call.distinct:
        return call
    definition = oracle.udf_definition(call.name.lower())
    if definition is None or not definition.is_pure:
        return call
    signature = definition.signature
    if signature.ret_type not in _FOLDABLE_TYPES:
        return call
    if any(t not in _FOLDABLE_TYPES for t in signature.param_types):
        return call
    if len(call.args) != len(signature.param_types):
        return call
    if not all(isinstance(arg, _LITERALS) for arg in call.args):
        return call
    values = [
        slots.read(arg) if isinstance(arg, A.Slot) else arg.value
        for arg in call.args
    ]
    if any(value is None for value in values):
        # Strict NULL semantics: no need to run the UDF at all.
        return A.Literal(None)
    try:
        result = oracle.fold_udf(call.name.lower(), values)
    except Exception:
        # Plan-time evaluation is an optimization, never an obligation:
        # a UDF that traps on these constants keeps its call site (and
        # will trap identically, attributably, at execution).
        return call
    return A.Literal(result)


# ---------------------------------------------------------------------------
# Rewrite 3: expensive-predicate ordering
# ---------------------------------------------------------------------------

def _order_predicates(plan: LogicalPlan, oracle: CostOracle) -> None:
    if isinstance(plan, (LogicalScan, LogicalFilter, LogicalJoin)):
        plan.predicates.sort(key=oracle.rank)
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _order_predicates(child, oracle)


# ---------------------------------------------------------------------------
# Rewrite 4: index selection
# ---------------------------------------------------------------------------

def _select_indexes(plan: LogicalPlan) -> None:
    if isinstance(plan, LogicalScan) and plan.table_info.indexes:
        _choose_index(plan)
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _select_indexes(child)


def _choose_index(scan: LogicalScan) -> None:
    """Scan the index of the first indexable conjunct over the
    intersection of every conjunct's range on that index.

    The index enforces those conjuncts, so all of them leave the
    residual; conjuncts on other columns stay.  ``lo > hi`` (e.g.
    ``k > 9 AND k < 3``) is an empty range the B+-tree answers without
    reading a page.  A template's slot stays symbolic in the bounds
    (:class:`~repro.sql.planner.IndexBound`), resolved per execution.
    """
    indexed = {index.column.lower(): index for index in scan.table_info.indexes}
    chosen = None
    lows: List[Tuple[object, int]] = []
    highs: List[Tuple[object, int]] = []
    residual = []
    for predicate in scan.predicates:
        bounds = _index_bounds(predicate, indexed, scan.alias)
        if bounds is None or (chosen is not None and bounds[0] is not chosen):
            residual.append(predicate)
            continue
        chosen, low, high = bounds
        if low is not None:
            lows.append(low)
        if high is not None:
            highs.append(high)
    if chosen is None:
        return
    scan.index = chosen
    scan.index_lo = IndexBound.of(lows, max)
    scan.index_hi = IndexBound.of(highs, min)
    scan.predicates[:] = residual


def _index_bounds(predicate: A.Expr, indexed: dict, alias: str):
    """``(index, low, high)`` for a conjunct the index can enforce, each
    end an ``(operand, offset)`` term or None (unbounded); else None."""
    if isinstance(predicate, A.BinaryOp) and predicate.op in (
        "=", "<", "<=", ">", ">=",
    ):
        column, operand, op = _column_and_literal(predicate, alias)
        if column is None or column.lower() not in indexed:
            return None
        index_info = indexed[column.lower()]
        if op == "=":
            return index_info, (operand, 0), (operand, 0)
        if op in ("<", "<="):
            return index_info, None, (operand, 0 if op == "<=" else -1)
        return index_info, (operand, 0 if op == ">=" else 1), None
    if isinstance(predicate, A.Between) and not predicate.negated:
        if not isinstance(predicate.operand, A.ColumnRef):
            return None
        column = predicate.operand
        if column.table and column.table.lower() != alias.lower():
            return None
        if column.name.lower() not in indexed:
            return None
        low = _int_operand(predicate.low, allow_bool=True)
        high = _int_operand(predicate.high, allow_bool=True)
        if low is not None and high is not None:
            return indexed[column.name.lower()], (low, 0), (high, 0)
    return None


def _column_and_literal(
    predicate: A.BinaryOp, alias: str
) -> Tuple[Optional[str], object, Optional[str]]:
    """Normalize ``col OP literal`` / ``literal OP col`` to (col, operand,
    op), the operand an int or an INT slot."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(right, A.ColumnRef) and isinstance(left, _LITERALS):
        left, right, op = right, left, flipped[op]
    elif not (isinstance(left, A.ColumnRef) and isinstance(right, _LITERALS)):
        return None, None, None
    if left.table and left.table.lower() != alias.lower():
        return None, None, None
    operand = _int_operand(right, allow_bool=False)
    if operand is None:
        return None, None, None
    return left.name, operand, op


def _int_operand(expr: A.Expr, allow_bool: bool):
    """An int literal's value or an INT slot, else None."""
    if isinstance(expr, A.Slot):
        return expr if expr.sql_type is SQLType.INT else None
    if not isinstance(expr, A.Literal) or not isinstance(expr.value, int):
        return None
    if isinstance(expr.value, bool) and not allow_bool:
        return None
    return expr.value


def _function_calls(expr: A.Expr) -> List[A.FuncCall]:
    """Every call in ``expr``, outer before inner.

    An :class:`~repro.sql.ast_nodes.Inlined` site is deliberately not
    reported as a call, only its body's calls: the body is pure lifted
    SQL (built-ins only), so rank ordering costs it like native
    expressions — the inlining dividend.
    """
    return [node for node in A.walk(expr) if isinstance(node, A.FuncCall)]
