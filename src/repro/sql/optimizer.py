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

import dataclasses

from typing import List, Optional, Set, Tuple

from . import ast_nodes as A
from .expressions import infer_type
from .types import SQLType
from .planner import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalExchange,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)

#: Default heuristics for built-in predicate shapes.
_EQ_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 0.3
_DEFAULT_SELECTIVITY = 0.5
_BUILTIN_COST = 1.0

#: Minimum per-call cost (in the same abstract units as
#: :class:`~repro.core.udf.CostHints`) before a UDF expression is worth
#: an Exchange: cheap in-process calls lose more to thread hand-off than
#: they gain.  Isolated UDFs always count as expensive — every call pays
#: the IPC boundary regardless of declared cost.
_PARALLEL_COST_THRESHOLD = 50.0


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
) -> LogicalPlan:
    """Apply all rewrites; returns the (mutated) plan.

    ``parallelism > 1`` enables the Exchange placement pass (rewrite 5);
    at 1 the plan is untouched by it, reproducing serial plans exactly.
    ``inlining`` enables the Froid rewrite (rewrite 0): UDF call sites
    with an :class:`~repro.analysis.decompile.InlineTemplate` are
    replaced by the lifted expression *before* the other rewrites, so
    pushdown, folding, and rank ordering all see through the call.
    """
    oracle = oracle or CostOracle()
    if inlining:
        _inline_udfs(plan, oracle)
    plan = _pushdown(plan)
    _fold_constants(plan, oracle)
    _order_predicates(plan, oracle)
    _select_indexes(plan)
    if parallelism > 1:
        plan = _place_exchanges(plan, oracle, parallelism)
    return plan


# ---------------------------------------------------------------------------
# Rewrite 0: Froid-style UDF inlining
# ---------------------------------------------------------------------------

#: SQL types acceptable per VM parameter kind.  An argument whose
#: inferred type falls outside the set keeps its opaque call site: the
#: call path would reject the marshalling at run time, and inlining must
#: not silently compute where the call would have errored.  NULL
#: (statically unknown) is always acceptable.
_PARAM_ACCEPTS = {
    "int": frozenset({SQLType.INT}),
    "float": frozenset({SQLType.INT, SQLType.FLOAT}),
    "bool": frozenset({SQLType.BOOL}),
    "str": frozenset({SQLType.STRING}),
    "arr": frozenset({SQLType.BYTES}),
    "farr": frozenset({SQLType.FLOATARR}),
}


def _inline_udfs(plan: LogicalPlan, oracle: CostOracle) -> None:
    """Replace inlinable UDF call sites with their lifted expressions.

    Runs before every other rewrite, on the freshly planned tree, so
    the downstream passes (pushdown, folding, Hellerstein ordering,
    Exchange placement) treat the lifted expression like native SQL —
    which is the whole point.
    """
    if isinstance(plan, LogicalScan):
        plan.predicates = [
            _inline_expr(p, oracle, plan.schema) for p in plan.predicates
        ]
    elif isinstance(plan, LogicalJoin):
        plan.predicates = [
            _inline_expr(p, oracle, plan.schema) for p in plan.predicates
        ]
    elif isinstance(plan, LogicalFilter):
        plan.predicates = [
            _inline_expr(p, oracle, plan.child.schema)
            for p in plan.predicates
        ]
    if isinstance(plan, LogicalProject):
        plan.exprs = [
            _inline_expr(e, oracle, plan.child.schema) for e in plan.exprs
        ]
    if isinstance(plan, LogicalSort):
        plan.keys = [
            _inline_expr(k, oracle, plan.child.schema) for k in plan.keys
        ]
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _inline_udfs(child, oracle)


def _inline_expr(expr: A.Expr, oracle: CostOracle, schema) -> A.Expr:
    """Bottom-up call-site replacement (nested inlinable calls work:
    the inner call becomes an :class:`~repro.sql.ast_nodes.Inlined`
    subtree, transparent to the outer call's argument checks)."""
    if isinstance(expr, A.FuncCall):
        args = tuple(_inline_expr(a, oracle, schema) for a in expr.args)
        if args != expr.args:
            expr = dataclasses.replace(expr, args=args)
        return _try_inline_call(expr, oracle, schema)
    if isinstance(expr, A.BinaryOp):
        return dataclasses.replace(
            expr,
            left=_inline_expr(expr.left, oracle, schema),
            right=_inline_expr(expr.right, oracle, schema),
        )
    if isinstance(expr, A.UnaryOp):
        return dataclasses.replace(
            expr, operand=_inline_expr(expr.operand, oracle, schema)
        )
    if isinstance(expr, A.IsNull):
        return dataclasses.replace(
            expr, operand=_inline_expr(expr.operand, oracle, schema)
        )
    if isinstance(expr, A.Between):
        return dataclasses.replace(
            expr,
            operand=_inline_expr(expr.operand, oracle, schema),
            low=_inline_expr(expr.low, oracle, schema),
            high=_inline_expr(expr.high, oracle, schema),
        )
    if isinstance(expr, A.InList):
        return dataclasses.replace(
            expr,
            operand=_inline_expr(expr.operand, oracle, schema),
            items=tuple(
                _inline_expr(item, oracle, schema) for item in expr.items
            ),
        )
    return expr


def _try_inline_call(
    call: A.FuncCall, oracle: CostOracle, schema
) -> A.Expr:
    if call.star or call.distinct:
        return call
    name = call.name.lower()
    template = oracle.inline_template(name)
    if template is None:
        return call
    if len(call.args) != len(template.param_kinds):
        return call
    if all(isinstance(arg, A.Literal) for arg in call.args):
        # All-literal call sites are better served by rewrite 2: one
        # plan-time VM invocation folds to a literal, which beats
        # evaluating even an inlined guard per row.
        return call
    substituted: List[A.Expr] = []
    guards: List[A.Expr] = []
    for arg, kind in zip(call.args, template.param_kinds):
        if _contains_udf_call(arg, oracle):
            # Substitution duplicates the argument expression once per
            # ParamRef occurrence plus the NULL guard; a UDF inside it
            # would multiply sandbox crossings.  Keep the site opaque.
            return call
        if isinstance(arg, A.Literal) and arg.value is None:
            # Strict NULL semantics: the whole call is NULL, always.
            return A.Inlined(name, A.Literal(None))
        inferred = infer_type(arg, schema, None)
        accepts = _PARAM_ACCEPTS.get(kind)
        if (accepts is not None and inferred is not SQLType.NULL
                and inferred not in accepts):
            return call  # ill-typed call: let the call path report it
        if kind == "float" and inferred is not SQLType.FLOAT:
            # The call path widens int arguments at marshalling; the
            # lifted float arithmetic needs the same widening.
            if isinstance(arg, A.Literal) and isinstance(arg.value, int):
                arg = A.Literal(float(arg.value))
            else:
                arg = A.FuncCall("float", (arg,))
        substituted.append(arg)
        if not isinstance(arg, A.Literal) and A.IsNull(arg) not in guards:
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
        definition = oracle.udf_definition(name)
        flows = getattr(definition, "flows", None)
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
    if isinstance(expr, A.ParamRef):
        return args[expr.index]
    if isinstance(expr, A.Literal):
        return expr
    if isinstance(expr, A.BinaryOp):
        return dataclasses.replace(
            expr,
            left=_substitute_params(expr.left, args),
            right=_substitute_params(expr.right, args),
        )
    if isinstance(expr, A.UnaryOp):
        return dataclasses.replace(
            expr, operand=_substitute_params(expr.operand, args)
        )
    if isinstance(expr, A.FuncCall):
        return dataclasses.replace(
            expr,
            args=tuple(_substitute_params(a, args) for a in expr.args),
        )
    if isinstance(expr, A.Case):
        return dataclasses.replace(
            expr,
            whens=tuple(
                (_substitute_params(c, args), _substitute_params(v, args))
                for c, v in expr.whens
            ),
            default=(
                _substitute_params(expr.default, args)
                if expr.default is not None else None
            ),
        )
    if isinstance(expr, A.IsNull):
        return dataclasses.replace(
            expr, operand=_substitute_params(expr.operand, args)
        )
    if isinstance(expr, A.Inlined):
        return dataclasses.replace(
            expr, body=_substitute_params(expr.body, args)
        )
    return expr


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
    unqualified = [False]

    def walk(node: A.Expr) -> None:
        if isinstance(node, A.ColumnRef):
            if node.table:
                tables.add(node.table.lower())
            else:
                unqualified[0] = True
        elif isinstance(node, A.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, A.UnaryOp):
            walk(node.operand)
        elif isinstance(node, A.IsNull):
            walk(node.operand)
        elif isinstance(node, A.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, A.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, A.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, A.Case):
            for cond, value in node.whens:
                walk(cond)
                walk(value)
            if node.default is not None:
                walk(node.default)
        elif isinstance(node, A.Inlined):
            walk(node.body)

    walk(expr)
    if unqualified[0]:
        tables.add("*unqualified*")
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
_FOLDABLE_TYPES = frozenset({"int", "float", "bool", "str"})


def _fold_constants(plan: LogicalPlan, oracle: CostOracle) -> None:
    """Replace pure-UDF calls over literal args with their results."""
    if isinstance(plan, (LogicalScan, LogicalFilter, LogicalJoin)):
        plan.predicates = [
            _fold_expr(predicate, oracle) for predicate in plan.predicates
        ]
    if isinstance(plan, LogicalProject):
        plan.exprs = [_fold_expr(expr, oracle) for expr in plan.exprs]
    if isinstance(plan, LogicalSort):
        plan.keys = [_fold_expr(key, oracle) for key in plan.keys]
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            _fold_constants(child, oracle)


def _fold_expr(expr: A.Expr, oracle: CostOracle) -> A.Expr:
    """Bottom-up rewrite; expression nodes are frozen, so changed
    subtrees are rebuilt with :func:`dataclasses.replace`."""
    if isinstance(expr, A.FuncCall):
        args = tuple(_fold_expr(arg, oracle) for arg in expr.args)
        if args != expr.args:
            expr = dataclasses.replace(expr, args=args)
        return _try_fold_call(expr, oracle)
    if isinstance(expr, A.BinaryOp):
        return dataclasses.replace(
            expr,
            left=_fold_expr(expr.left, oracle),
            right=_fold_expr(expr.right, oracle),
        )
    if isinstance(expr, A.UnaryOp):
        return dataclasses.replace(
            expr, operand=_fold_expr(expr.operand, oracle)
        )
    if isinstance(expr, A.IsNull):
        return dataclasses.replace(
            expr, operand=_fold_expr(expr.operand, oracle)
        )
    if isinstance(expr, A.Between):
        return dataclasses.replace(
            expr,
            operand=_fold_expr(expr.operand, oracle),
            low=_fold_expr(expr.low, oracle),
            high=_fold_expr(expr.high, oracle),
        )
    if isinstance(expr, A.InList):
        return dataclasses.replace(
            expr,
            operand=_fold_expr(expr.operand, oracle),
            items=tuple(_fold_expr(item, oracle) for item in expr.items),
        )
    if isinstance(expr, A.Case):
        return dataclasses.replace(
            expr,
            whens=tuple(
                (_fold_expr(cond, oracle), _fold_expr(value, oracle))
                for cond, value in expr.whens
            ),
            default=(
                _fold_expr(expr.default, oracle)
                if expr.default is not None else None
            ),
        )
    if isinstance(expr, A.Inlined):
        return dataclasses.replace(expr, body=_fold_expr(expr.body, oracle))
    return expr


def _try_fold_call(call: A.FuncCall, oracle: CostOracle) -> A.Expr:
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
    if not all(isinstance(arg, A.Literal) for arg in call.args):
        return call
    values = [arg.value for arg in call.args]
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
    reading a page.
    """
    indexed = {index.column.lower(): index for index in scan.table_info.indexes}
    chosen = lo = hi = None
    residual = []
    for predicate in scan.predicates:
        bounds = _index_bounds(predicate, indexed, scan.alias)
        if bounds is None or (chosen is not None and bounds[0] is not chosen):
            residual.append(predicate)
            continue
        chosen, p_lo, p_hi = bounds
        if p_lo is not None:
            lo = p_lo if lo is None else max(lo, p_lo)
        if p_hi is not None:
            hi = p_hi if hi is None else min(hi, p_hi)
    if chosen is None:
        return
    scan.index = chosen
    scan.index_lo = lo
    scan.index_hi = hi
    scan.predicates[:] = residual


def _index_bounds(
    predicate: A.Expr, indexed: dict, alias: str
) -> Optional[Tuple[object, Optional[int], Optional[int]]]:
    if isinstance(predicate, A.BinaryOp) and predicate.op in (
        "=", "<", "<=", ">", ">=",
    ):
        column, literal, op = _column_and_literal(predicate, alias)
        if column is None or column.lower() not in indexed:
            return None
        index_info = indexed[column.lower()]
        if op == "=":
            return index_info, literal, literal
        if op in ("<", "<="):
            hi = literal if op == "<=" else literal - 1
            return index_info, None, hi
        lo = literal if op == ">=" else literal + 1
        return index_info, lo, None
    if isinstance(predicate, A.Between) and not predicate.negated:
        if not isinstance(predicate.operand, A.ColumnRef):
            return None
        column = predicate.operand
        if column.table and column.table.lower() != alias.lower():
            return None
        if column.name.lower() not in indexed:
            return None
        low = predicate.low
        high = predicate.high
        if (
            isinstance(low, A.Literal) and isinstance(low.value, int)
            and isinstance(high, A.Literal) and isinstance(high.value, int)
        ):
            return indexed[column.name.lower()], low.value, high.value
    return None


def _column_and_literal(
    predicate: A.BinaryOp, alias: str
) -> Tuple[Optional[str], Optional[int], Optional[str]]:
    """Normalize ``col OP literal`` / ``literal OP col`` to (col, lit, op)."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(right, A.ColumnRef) and isinstance(left, A.Literal):
        left, right, op = right, left, flipped[op]
    elif not (isinstance(left, A.ColumnRef) and isinstance(right, A.Literal)):
        return None, None, None
    if left.table and left.table.lower() != alias.lower():
        return None, None, None
    if isinstance(right.value, bool) or not isinstance(right.value, int):
        return None, None, None
    return left.name, right.value, op


# ---------------------------------------------------------------------------
# Rewrite 5: Exchange placement (parallel UDF evaluation)
# ---------------------------------------------------------------------------

def _read_only_effects(definition) -> bool:
    """True when every statically inferred effect is a read-only callback.

    The Exchange gate used to demand full purity.  The flow pass widens
    it: a UDF whose only effects are read-only server callbacks
    (``cb_lob_read`` and friends — no observable state mutated, no
    ordering to preserve) races on nothing when its invocations
    interleave across threads.  Requires a flow certificate: the flow
    pass ran on the same bytecode the summary describes, so its presence
    certifies the effect set is the analyzer's, not a declaration.
    """
    from ..core.callbacks import READ_ONLY_CALLBACKS

    if getattr(definition, "flows", None) is None:
        return False
    summary = definition.analysis
    if summary is None or getattr(summary, "unknown_effects", True):
        return False
    return frozenset(summary.callbacks) <= READ_ONLY_CALLBACKS


def _parallel_profile(expr: A.Expr, oracle: CostOracle) -> Tuple[bool, bool]:
    """(safe, expensive) for evaluating ``expr`` across Exchange threads.

    *Safe* is gated on the static analyzer's certificates: a pure UDF
    has no shared state to race on, whether it runs in-process (each
    thread gets its own VM context) or in a worker pool; a flow-certified
    UDF whose only effects are *read-only* callbacks is equally
    interleaving-safe (see :func:`_read_only_effects`).  Native and
    effectful UDFs fall back to serial — their visible effect order must
    match tuple-at-a-time execution.  LOB-handle parameters are also
    serial-only: handle minting mutates per-query runtime state.

    *Expensive* decides whether the Exchange is worth its thread
    hand-offs: any isolated UDF qualifies (every call pays the process
    boundary), otherwise the registered per-call cost must clear
    :data:`_PARALLEL_COST_THRESHOLD`.
    """
    safe = True
    expensive = False
    for call in _function_calls(expr):
        definition = oracle.udf_definition(call.name.lower())
        if definition is None:
            continue  # built-in: cheap and thread-safe
        if "handle" in definition.signature.param_types:
            safe = False
            continue
        if not definition.is_pure and not _read_only_effects(definition):
            safe = False
            continue
        per_call = oracle.observed_cost(call.name.lower())
        if per_call is None:
            per_call = definition.cost_hints.cost_per_call
        if (
            definition.design.is_isolated
            or per_call >= _PARALLEL_COST_THRESHOLD
        ):
            expensive = True
    return safe, expensive


def _place_exchanges(
    plan: LogicalPlan, oracle: CostOracle, parallelism: int
) -> LogicalPlan:
    """Wrap expensive, parallel-safe Filter/Project work in Exchanges.

    Children first, so a pushed-down scan predicate and a residual
    filter each get their own region.  Joins and aggregates are left
    serial: their UDF predicates interleave with stateful build/probe
    structures, and the paper's workloads put UDF cost in scans and
    projections.
    """
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if child is not None:
            setattr(plan, attr, _place_exchanges(child, oracle, parallelism))
    if isinstance(plan, LogicalScan):
        return _hoist_scan_suffix(plan, oracle, parallelism)
    if isinstance(plan, LogicalFilter):
        return _split_filter(plan, oracle, parallelism)
    if isinstance(plan, LogicalProject):
        profiles = [_parallel_profile(expr, oracle) for expr in plan.exprs]
        if profiles and all(safe for safe, __ in profiles) and any(
            expensive for __, expensive in profiles
        ):
            return LogicalExchange(plan, parallelism=parallelism)
    return plan


def _parallel_split(
    predicates: List[A.Expr], oracle: CostOracle
) -> Optional[int]:
    """Index where a rank-ordered conjunct list goes parallel, or None.

    The split keeps a serial prefix (cheap and/or unsafe predicates run
    where they always did) and hoists the longest all-safe suffix that
    starts at an expensive predicate.  Conjuncts still apply in rank
    order over each other's survivors, so row sets, row order, and UDF
    invocation patterns match serial evaluation.
    """
    split = len(predicates)
    while split > 0 and _parallel_profile(predicates[split - 1], oracle)[0]:
        split -= 1
    for index in range(split, len(predicates)):
        if _parallel_profile(predicates[index], oracle)[1]:
            return index
    return None


def _hoist_scan_suffix(
    scan: LogicalScan, oracle: CostOracle, parallelism: int
) -> LogicalPlan:
    """Hoist a scan's expensive pushed-down conjuncts into an Exchange.

    Pushdown (rewrite 1) moved UDF predicates into the scan; to evaluate
    them on a thread pool they come back out — as a Filter wrapped in an
    Exchange directly above the scan, which still sees them "at the
    early stages of the plan".  The cheap serial prefix stays in the
    scan, discarding most tuples before they cross a thread boundary.
    """
    start = _parallel_split(scan.predicates, oracle)
    if start is None:
        return scan
    hoisted = scan.predicates[start:]
    scan.predicates = scan.predicates[:start]
    return LogicalExchange(
        LogicalFilter(scan, predicates=hoisted), parallelism=parallelism
    )


def _split_filter(
    node: LogicalFilter, oracle: CostOracle, parallelism: int
) -> LogicalPlan:
    start = _parallel_split(node.predicates, oracle)
    if start is None:
        return node
    if start == 0:
        return LogicalExchange(node, parallelism=parallelism)
    hoisted = node.predicates[start:]
    node.predicates = node.predicates[:start]
    return LogicalExchange(
        LogicalFilter(node, predicates=hoisted), parallelism=parallelism
    )



def _function_calls(expr: A.Expr) -> List[A.FuncCall]:
    calls: List[A.FuncCall] = []

    def walk(node: A.Expr) -> None:
        if isinstance(node, A.FuncCall):
            calls.append(node)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, A.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, A.UnaryOp):
            walk(node.operand)
        elif isinstance(node, A.IsNull):
            walk(node.operand)
        elif isinstance(node, A.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, A.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, A.Case):
            for cond, value in node.whens:
                walk(cond)
                walk(value)
            if node.default is not None:
                walk(node.default)
        elif isinstance(node, A.Inlined):
            # The Inlined name is deliberately NOT reported as a call:
            # the body is pure lifted SQL (built-ins only), so rank
            # ordering and Exchange placement cost it like native
            # expressions — the inlining dividend.
            walk(node.body)

    walk(expr)
    return calls
