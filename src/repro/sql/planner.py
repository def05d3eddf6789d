"""Logical planning: SELECT, UPDATE and DELETE ASTs -> logical
operator trees.

The logical plan is deliberately simple — scans, filters (kept as
*conjunct lists* so the optimizer can reorder them), cross joins,
projection, aggregation, distinct, sort, limit.  The paper's
optimization concern (where to place expensive UDF predicates relative
to cheap ones, after [Hel95]/[Jhi88]) lives entirely in the conjunct
lists, which :mod:`repro.sql.optimizer` reorders by predicate rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..errors import PlanError
from . import ast_nodes as A
from .expressions import AGGREGATE_NAMES, FunctionResolver, infer_type
from .types import RowSchema, SchemaColumn, SQLType, schema_for_table


# ---------------------------------------------------------------------------
# Logical operators
# ---------------------------------------------------------------------------

class LogicalPlan:
    """Base logical node; every node knows its output schema."""

    schema: RowSchema


@dataclass
class LogicalScan(LogicalPlan):
    table_name: str
    alias: str
    table_info: object  # storage TableInfo
    predicates: List[A.Expr] = field(default_factory=list)
    #: Filled by the optimizer when an index serves an equality/range:
    #: each end is an int, None (unbounded) or, in a template whose
    #: slots decide it, an :class:`IndexBound`.
    index: Optional[object] = None
    index_lo: Optional[object] = None
    index_hi: Optional[object] = None
    #: Each row ends with its RID: the scan finds an UPDATE's or a
    #: DELETE's rows.
    with_rids: bool = False

    def __post_init__(self) -> None:
        self.schema = schema_for_table(self.table_info, self.alias)


@dataclass
class LogicalJoin(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    predicates: List[A.Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schema = self.left.schema.concat(self.right.schema)


@dataclass
class LogicalFilter(LogicalPlan):
    child: LogicalPlan
    predicates: List[A.Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class LogicalProject(LogicalPlan):
    child: LogicalPlan
    exprs: List[A.Expr] = field(default_factory=list)
    names: List[str] = field(default_factory=list)
    types: List[SQLType] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schema = RowSchema(
            [
                SchemaColumn(table=None, name=name, sql_type=sql_type)
                for name, sql_type in zip(self.names, self.types)
            ]
        )


@dataclass
class AggregateSpec:
    """One aggregate in the SELECT list."""

    func: str                 # count | sum | avg | min | max
    arg: Optional[A.Expr]     # None for COUNT(*)
    distinct: bool
    name: str
    sql_type: SQLType         # the result's, see aggregate_type


@dataclass
class LogicalAggregate(LogicalPlan):
    child: LogicalPlan
    group_exprs: List[A.Expr] = field(default_factory=list)
    group_names: List[str] = field(default_factory=list)
    group_types: List[SQLType] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        columns = [
            SchemaColumn(table=None, name=name, sql_type=sql_type)
            for name, sql_type in zip(self.group_names, self.group_types)
        ]
        for spec in self.aggregates:
            columns.append(SchemaColumn(
                table=None, name=spec.name, sql_type=spec.sql_type
            ))
        self.schema = RowSchema(columns)


@dataclass
class LogicalDistinct(LogicalPlan):
    child: LogicalPlan

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class LogicalSort(LogicalPlan):
    child: LogicalPlan
    keys: List[A.Expr] = field(default_factory=list)
    descending: List[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    limit: int = 0

    def __post_init__(self) -> None:
        self.schema = self.child.schema


@dataclass
class WritePlan:
    """An INSERT, UPDATE or DELETE, planned against its target table:
    ``scan`` finds an UPDATE's or DELETE's rows (a plan over one
    ``with_rids`` :class:`LogicalScan`, optimized as a SELECT's is),
    ``assignments`` are an UPDATE's ``(column position, SET expression)``
    pairs qualified against it, and ``positions`` are the columns an
    INSERT's VALUES fill."""

    table_info: object
    scan: Optional[LogicalPlan] = None
    assignments: List[Tuple[int, A.Expr]] = field(default_factory=list)
    positions: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Templates: slot values at plan time and in index bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexBound:
    """An index range end that a template's slot values decide.

    ``terms`` are ``(operand, offset)`` pairs in conjunct order, each
    operand a literal's value or an :class:`~repro.sql.ast_nodes.Slot`;
    the end is the running ``pick`` (``max`` for the low end, ``min`` for
    the high end) of ``operand + offset``, folded in the order a plan
    built from literals folds it.
    """

    terms: Tuple[Tuple[object, int], ...]
    pick: Callable

    @staticmethod
    def of(terms, pick):
        """None without terms, the folded end without slots (so plans
        built from literals carry plain ints), else an IndexBound."""
        for operand, __ in terms:
            if isinstance(operand, A.Slot):
                return IndexBound(tuple(terms), pick)
        return _fold_bound(terms, pick, ())

    def resolve(self, params) -> object:
        return _fold_bound(self.terms, self.pick, params)


def _fold_bound(terms, pick, params):
    value = None
    for operand, offset in terms:
        if isinstance(operand, A.Slot):
            operand = params[operand.index]
        if offset:
            operand += offset
        value = operand if value is None else pick(value, operand)
    return value


def resolve_bound(bound, params):
    """An index range end for one execution's slot values."""
    if isinstance(bound, IndexBound):
        return bound.resolve(params)
    return bound


class SlotValues:
    """One execution's slot values while its template is planned.

    Planning treats a slot as a literal of known type and unknown value,
    so the plan serves every value of its shape.  A rewrite that needs a
    value (folding a pure UDF over literal arguments, say) reads it
    through :meth:`read`, which makes the plan *non-generic*: it then
    serves only these values, exactly as if it had been built from their
    text.
    """

    def __init__(self, values: tuple):
        self.values = values
        self.generic = True

    def read(self, slot: A.Slot) -> object:
        self.generic = False
        return self.values[slot.index]

    def bind(self, expr: A.Expr) -> A.Expr:
        """``expr`` with each slot replaced by its value as a literal."""
        return A.transform(expr, self._bind_node)

    def _bind_node(self, node: A.Expr) -> A.Expr:
        if isinstance(node, A.Slot):
            return A.Literal(self.read(node))
        return node


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def plan_select(
    select: A.Select,
    catalog,
    resolver: Optional[FunctionResolver] = None,
    slots: Optional[SlotValues] = None,
) -> LogicalPlan:
    """Build the (unoptimized) logical plan for a SELECT.

    ``slots`` carries the values of a template's slots (None for a
    statement parsed with its literals).
    """
    if not select.tables:
        raise PlanError("SELECT requires a FROM clause")
    seen_labels = set()
    plan: Optional[LogicalPlan] = None
    for table_ref in select.tables:
        label = table_ref.label.lower()
        if label in seen_labels:
            raise PlanError(f"duplicate table alias {table_ref.label!r}")
        seen_labels.add(label)
        scan = LogicalScan(
            table_name=table_ref.name,
            alias=table_ref.label,
            table_info=catalog.get_table(table_ref.name),
        )
        plan = scan if plan is None else LogicalJoin(plan, scan)

    from_schema = plan.schema
    if select.where is not None:
        where = qualify(select.where, from_schema)
        plan = LogicalFilter(plan, predicates=split_conjuncts(where))

    items = [
        item
        if isinstance(item.expr, A.Star)
        else A.SelectItem(qualify(item.expr, from_schema), item.alias)
        for item in select.items
    ]
    if select.group_by:
        select = replace(select, group_by=tuple(
            qualify(expr, from_schema) for expr in select.group_by
        ))
    items = _expand_stars(tuple(items), plan.schema)
    aggregates = _collect_aggregates(items)
    is_aggregate = bool(aggregates or select.group_by)

    # ORDER BY may reference either pre-projection columns (sort runs
    # below the projection) or output aliases (sort runs above); the
    # pre-projection placement is impossible once rows are aggregated.
    sort_below = False
    sort_keys: List[A.Expr] = []
    if select.order_by and not is_aggregate and not select.distinct:
        try:
            sort_keys = [
                qualify(item.expr, plan.schema) for item in select.order_by
            ]
            sort_below = True
        except PlanError:
            sort_below = False
    if sort_below:
        plan = LogicalSort(
            plan,
            keys=sort_keys,
            descending=[item.descending for item in select.order_by],
        )

    if is_aggregate:
        plan = _plan_aggregate(select, items, plan, resolver, slots)
    else:
        exprs = [item.expr for item in items]
        names = [_output_name(item, index)
                 for index, item in enumerate(items)]
        types = [infer_type(e, plan.schema, resolver) for e in exprs]
        plan = LogicalProject(plan, exprs=exprs, names=names, types=types)

    if select.distinct:
        plan = LogicalDistinct(plan)
    if select.order_by and not sort_below:
        plan = LogicalSort(
            plan,
            keys=[item.expr for item in select.order_by],
            descending=[item.descending for item in select.order_by],
        )
    if select.limit is not None:
        plan = LogicalLimit(plan, limit=select.limit)
    return plan


def plan_write(statement: A.Statement, catalog) -> WritePlan:
    """Build the (unoptimized) plan of an INSERT, UPDATE or DELETE:
    the WHERE becomes a filter over a scan of the target table."""
    table = catalog.get_table(statement.table)
    if isinstance(statement, A.Insert):
        return WritePlan(table, positions=[
            table.column_index(name) for name in statement.columns
        ] or list(range(len(table.columns))))
    scan = LogicalScan(table.name, table.name, table, with_rids=True)
    plan: LogicalPlan = scan
    if statement.where is not None:
        where = qualify(statement.where, scan.schema)
        plan = LogicalFilter(scan, predicates=split_conjuncts(where))
    assignments = [
        (table.column_index(name), qualify(expr, scan.schema))
        for name, expr in getattr(statement, "assignments", ())
    ]
    return WritePlan(table, scan=plan, assignments=assignments)


def qualify(expr: A.Expr, schema: RowSchema) -> A.Expr:
    """Rewrite unqualified column references with their table label.

    Resolution against the FROM schema happens once, here, so the
    optimizer can reason about which tables a predicate touches (and
    ambiguous references fail at plan time with a clear error).
    """
    if isinstance(expr, A.ColumnRef):
        index = schema.resolve(expr.name, expr.table)
        column = schema.columns[index]
        return A.ColumnRef(column.name, table=column.table)
    if isinstance(expr, A.BinaryOp):
        return A.BinaryOp(
            expr.op, qualify(expr.left, schema), qualify(expr.right, schema)
        )
    if isinstance(expr, A.UnaryOp):
        return A.UnaryOp(expr.op, qualify(expr.operand, schema))
    if isinstance(expr, A.IsNull):
        return A.IsNull(qualify(expr.operand, schema), expr.negated)
    if isinstance(expr, A.Between):
        return A.Between(
            qualify(expr.operand, schema),
            qualify(expr.low, schema),
            qualify(expr.high, schema),
            expr.negated,
        )
    if isinstance(expr, A.InList):
        return A.InList(
            qualify(expr.operand, schema),
            tuple(qualify(item, schema) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, A.FuncCall):
        return A.FuncCall(
            expr.name,
            tuple(qualify(arg, schema) for arg in expr.args),
            star=expr.star,
            distinct=expr.distinct,
        )
    return expr


def split_conjuncts(expr: A.Expr) -> List[A.Expr]:
    """Flatten a predicate tree into its top-level AND conjuncts."""
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _expand_stars(
    items: Tuple[A.SelectItem, ...], schema: RowSchema
) -> List[A.SelectItem]:
    expanded: List[A.SelectItem] = []
    for item in items:
        if isinstance(item.expr, A.Star):
            table = item.expr.table
            matched = False
            for column in schema.columns:
                if table is None or (
                    (column.table or "").lower() == table.lower()
                ):
                    matched = True
                    expanded.append(
                        A.SelectItem(
                            A.ColumnRef(column.name, table=column.table)
                        )
                    )
            if not matched:
                raise PlanError(f"no columns match {table}.*")
        else:
            expanded.append(item)
    return expanded


def _output_name(item: A.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, A.ColumnRef):
        return item.expr.name
    if isinstance(item.expr, A.FuncCall):
        return item.expr.name.lower()
    return f"col{index}"


def _collect_aggregates(items: List[A.SelectItem]) -> List[A.FuncCall]:
    found = [
        node for item in items for node in A.walk(item.expr)
        if _is_aggregate(node)
    ]
    for call in found:
        if any(
            _is_aggregate(node) for arg in call.args for node in A.walk(arg)
        ):
            raise PlanError("nested aggregates are not allowed")
    return found


def _is_aggregate(node: A.Expr) -> bool:
    return isinstance(node, A.FuncCall) and node.name.lower() in AGGREGATE_NAMES


def _plan_aggregate(
    select: A.Select,
    items: List[A.SelectItem],
    child: LogicalPlan,
    resolver,
    slots: Optional[SlotValues],
) -> LogicalPlan:
    """GROUP BY / aggregate planning.

    Restriction (documented): with aggregation, every SELECT item must be
    either a group expression or a single aggregate call — arithmetic
    over aggregates (``SUM(x)/COUNT(x)``) is not supported; use AVG.
    """
    group_exprs = list(select.group_by)
    group_names: List[str] = []
    group_types: List[SQLType] = []
    for index, expr in enumerate(group_exprs):
        if isinstance(expr, A.ColumnRef):
            group_names.append(expr.name)
        else:
            group_names.append(f"group{index}")
        group_types.append(infer_type(expr, child.schema, resolver))

    aggregates: List[AggregateSpec] = []
    out_exprs: List[A.Expr] = []
    out_names: List[str] = []
    out_types: List[SQLType] = []
    for index, item in enumerate(items):
        name = _output_name(item, index)
        expr = item.expr
        if isinstance(expr, A.FuncCall) and expr.name.lower() in AGGREGATE_NAMES:
            # Internal names are positional so duplicate aggregates
            # (e.g. two COUNTs) never collide at resolution time.
            spec_name = f"__agg{index}"
            sql_type = infer_type(expr, child.schema, resolver)
            aggregates.append(
                AggregateSpec(
                    func=expr.name.lower(),
                    arg=None if expr.star else (expr.args[0] if expr.args else None),
                    distinct=expr.distinct,
                    name=spec_name,
                    sql_type=sql_type,
                )
            )
            out_exprs.append(A.ColumnRef(spec_name))
            out_names.append(name)
            out_types.append(sql_type)
            continue
        position = _group_position(expr, group_exprs, slots)
        if position is None:
            raise PlanError(
                f"SELECT item {name!r} is neither an aggregate nor in "
                f"GROUP BY"
            )
        out_exprs.append(A.ColumnRef(group_names[position]))
        out_names.append(name)
        out_types.append(group_types[position])

    aggregate = LogicalAggregate(
        child,
        group_exprs=group_exprs,
        group_names=group_names,
        group_types=group_types,
        aggregates=aggregates,
    )
    return LogicalProject(
        aggregate, exprs=out_exprs, names=out_names, types=out_types
    )


def _group_position(
    expr: A.Expr, group_exprs: List[A.Expr], slots: Optional[SlotValues]
) -> Optional[int]:
    for index, group_expr in enumerate(group_exprs):
        if expr == group_expr:
            return index
        # Literals compare by value: so must slots, which reads them.
        if slots is not None and slots.bind(expr) == slots.bind(group_expr):
            return index
    return None
