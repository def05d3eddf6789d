"""Statement execution: ties the planner, optimizer, operators, storage,
and the UDF subsystem together.

One :class:`StatementExecutor` serves one database instance.  For each
SELECT it builds the logical plan, optimizes it, compiles expressions to
batch -> column functions, sets up per-query UDF executors (Design 2/4
executors are *processes created per query*, per the paper), runs the
Volcano tree, and tears everything down.  An UPDATE or DELETE finds its
rows through the same planner, optimizer and scans, and writes only once
it has them all.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError, PlanError
from ..storage.btree import BPlusTree
from ..storage.catalog import Column as CatColumn
from ..storage.catalog import IndexInfo, TableInfo
from ..storage.heapfile import HeapFile
from ..storage.lob import LOBRef
from ..types import SQLType
from . import ast_nodes as A
from .expressions import (
    FunctionResolver,
    QueryRuntime,
    compile_expr,
)
from .operators import (
    Aggregate,
    Distinct,
    Filter,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PhysicalOp,
    Project,
    SeqScan,
    Sort,
    eval_column,
    instrument_operator,
)
from .optimizer import CostOracle, optimize
from .planner import (
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
    WritePlan,
    plan_select,
    plan_write,
    resolve_bound,
)
from .types import RowSchema


@dataclass
class QueryResult:
    """The rows a statement produced (DML reports a rowcount)."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    rowcount: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class _QueryUDFResolver(FunctionResolver):
    """Resolves UDF names to per-query executors, creating them lazily.

    When a :class:`~repro.obs.profile.QueryProfile` is active, each
    executor gets its pre-bound (function, design) profile handle before
    ``begin_query`` — admission refusals at pool setup are recorded too
    — and loses it again at ``finish`` (in-process executors are shared
    across queries; the handle must not outlive this one).

    ``private=True`` requests fresh (unshared) executors even for
    in-process designs — required when statements run concurrently, see
    :meth:`~repro.core.udf.UDFRegistry.executor_for_query`.  ``finish``
    is unchanged for them: ``end_query`` releases everything a private
    executor holds (closing one would unload the UDF from the shared VM).
    """

    def __init__(self, registry, binding, profile=None, private=False):
        self.registry = registry
        self.binding = binding
        self.profile = profile
        self.private = private
        self.executors: Dict[str, object] = {}

    def resolve_udf(self, name: str):
        key = name.lower()
        if self.registry is None or not self.registry.has(key):
            return None
        executor = self.executors.get(key)
        if executor is None:
            executor = self.registry.executor_for_query(
                key, private=self.private
            )
            if self.profile is not None:
                executor.profile = self.profile.udf(
                    key, executor.definition.design.value
                )
            try:
                executor.begin_query(self.binding)
            except BaseException as exc:
                if executor.profile is not None:
                    executor.profile.record_error(exc)
                executor.profile = None
                raise
            self.executors[key] = executor
        return executor, executor.definition.signature.param_types

    def udf_ret_type(self, name: str) -> Optional[SQLType]:
        """Answer result-type questions from the catalog alone.

        Planning must not spin up executors (with inlining on, a call
        site may never execute at all); the registry already knows the
        declared signature.
        """
        key = name.lower()
        if self.registry is None or not self.registry.has(key):
            return None
        return self.registry.get(key).signature.ret_type

    def finish(self) -> None:
        for executor in self.executors.values():
            try:
                executor.end_query()
            finally:
                executor.profile = None
        self.executors.clear()


class _RegistryOracle(CostOracle):
    """Cost oracle over the UDF registry, with optional adaptive feedback.

    ``adaptive`` is the database's
    :class:`~repro.obs.adaptive.AdaptiveFeedback` store (or None); when
    present and an estimate has crossed its evidence threshold, the
    observed number overrides the static hint.
    """

    def __init__(self, registry, adaptive=None, inlining=False,
                 private=False):
        self.registry = registry
        self.adaptive = adaptive
        self.inlining = inlining
        self.private = private

    def _inline(self, name: str):
        """What the decompiler made of the UDF's body, when inlining is
        enabled (so seed EXPLAIN output stays byte-identical with
        inlining off); else None."""
        if not self.inlining:
            return None
        return getattr(self.udf_definition(name), "inline", None)

    def inline_template(self, name: str):
        """The UDF's :class:`~repro.analysis.decompile.InlineTemplate`,
        when the decompiler lifted the body."""
        inline = self._inline(name)
        return inline if hasattr(inline, "expr") else None

    def inline_refusal(self, name: str):
        """The refusal reason code for a non-inlinable UDF."""
        return getattr(self._inline(name), "reason", None)

    def udf_tier(self, name: str):
        definition = self.udf_definition(name)
        if definition is None or not definition.design.is_sandboxed:
            return None
        from ..core.sandbox import batch_tier

        return batch_tier(definition, self.registry.environment)

    def udf_entry(self, name: str):
        definition = self.udf_definition(name)
        if definition is None or not definition.design.is_sandboxed:
            return None
        from ..core.sandbox import loaded_program

        loaded = loaded_program(definition, self.registry.environment)
        return loaded.main_class.functions.get(definition.entry)

    def udf_workers(self, name: str):
        definition = self.udf_definition(name)
        if definition is None or not definition.design.is_isolated:
            return None
        from ..core.isolated import pool_width

        return pool_width(
            definition, self.registry.environment.parallelism
        )

    def observed_cost(self, name: str):
        if self.adaptive is None:
            return None
        return self.adaptive.observed_cost(name)

    def observed_selectivity(self, key: str):
        if self.adaptive is None:
            return None
        return self.adaptive.observed_selectivity(key)

    def udf_hints(self, name: str):
        definition = self.udf_definition(name)
        return None if definition is None else definition.cost_hints

    def udf_definition(self, name: str):
        if self.registry is not None and self.registry.has(name):
            return self.registry.get(name)
        return None

    def fold_udf(self, name: str, args):
        """Evaluate a (pure) UDF once at plan time.

        Arguments are conformed to their parameter types, as on the
        per-tuple call path (an int widens for a FLOAT parameter); one
        outside its type raises, which keeps the call site.
        Isolated-design executors are per query and torn down right
        away; in-process executors are shared with the upcoming
        execution.
        """
        definition = self.registry.get(name)
        coerced = [
            param.row.conform(value)
            for param, value in zip(definition.signature.param_types, args)
        ]
        executor = self.registry.executor_for_query(
            name, private=self.private
        )
        try:
            executor.begin_query()
            return executor.invoke(coerced)
        finally:
            executor.end_query()
            if definition.design.is_isolated:
                executor.close()


class StatementExecutor:
    """Executes parsed statements against a database's internals."""

    def __init__(self, database):
        self.db = database

    # -- dispatch ------------------------------------------------------------

    def execute(
        self, statement: A.Statement, params=(),
        plan: Optional[WritePlan] = None,
    ) -> QueryResult:
        """Everything but SELECT, which ``Database._execute`` hands to
        :meth:`select_with_plan` with its snapshot and cached plan.
        ``plan`` is an INSERT's, UPDATE's or DELETE's cached plan, and
        ``params`` are the values of its template's slots."""
        if isinstance(statement, A.Explain):
            return self.execute_explain(statement)
        if isinstance(statement, A.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, A.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, A.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, (A.Insert, A.Update, A.Delete)):
            return self._write(statement, plan, params)
        if isinstance(statement, A.CreateFunction):
            return self._create_function(statement)
        if isinstance(statement, A.DropFunction):
            return self._drop_function(statement)
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    # -- SELECT ------------------------------------------------------------------

    def plan(
        self,
        statement: A.Statement,
        slots: Optional[SlotValues] = None,
        private: bool = False,
        oracle: Optional[CostOracle] = None,
    ):
        """Plan and optimize a SELECT, INSERT, UPDATE or DELETE: one
        parsed with its literals, or a template with one execution's
        ``slots``.  A SELECT gives a :class:`LogicalPlan`, the others a
        :class:`WritePlan` whose scan is optimized as a SELECT's is.

        Planning spins up no UDF executor (types come from the
        registry); only folding a pure UDF invokes one, ``private`` when
        statements may overlap.
        """
        if oracle is None:
            oracle = _RegistryOracle(
                self.db.registry, self.db.observability.adaptive,
                inlining=self.db.inlining, private=private,
            )
        if isinstance(statement, A.Select):
            return optimize(
                plan_select(
                    statement, self.db.catalog,
                    _QueryUDFResolver(self.db.registry, None), slots,
                ),
                oracle, inlining=self.db.inlining, slots=slots,
            )
        plan = plan_write(statement, self.db.catalog)
        if plan.scan is not None:
            plan.scan = optimize(
                plan.scan, oracle, inlining=self.db.inlining, slots=slots,
            )
        return plan

    def select_with_plan(
        self,
        select: Optional[A.Select],
        snapshot=None,
        plan: Optional[LogicalPlan] = None,
        private: bool = False,
        params: tuple = (),
    ) -> Tuple[QueryResult, LogicalPlan]:
        """Run a SELECT, also returning its optimized logical plan.

        ``plan`` short-circuits planning with a plan-cache hit, in
        which case ``select`` is not needed and may be None (the
        logical plan carries no execution state, so one cached object
        serves any number of concurrent statements); ``params`` are the
        values its slots bind to in this execution.  ``snapshot``
        routes scans to the pinned frozen table images instead of live
        heap pages, and ``private`` gives each UDF a fresh (unshared)
        executor — both required when this statement runs concurrently
        with others.
        """
        profile = self.db.observability.query_profile()
        with self._udfs(params, profile, private) as (resolver, runtime):
            if plan is None:
                plan = self.plan(select, private=private)
            root = self._physical(
                plan, resolver, runtime, profile, snapshot=snapshot
            )
            rows = [tuple(row) for row in root.rows()]
            result = QueryResult(
                columns=plan.schema.names(), rows=rows, rowcount=len(rows)
            )
            return result, plan

    @contextmanager
    def _udfs(self, params=(), profile=None, private=False):
        """One statement's UDF resolver and runtime, sharing one callback
        binding; on exit its executors end their query and ``profile``
        finishes."""
        binding = self.db.broker.bind()
        resolver = _QueryUDFResolver(
            self.db.registry, binding, profile, private=private
        )
        try:
            yield resolver, QueryRuntime(
                lobs=self.db.lobs, binding=binding, params=params
            )
        finally:
            resolver.finish()
            if profile is not None:
                profile.finish()

    def execute_explain(self, statement: A.Explain) -> QueryResult:
        """Plan + optimize (and, for ANALYZE, execute); one row per line.

        ``EXPLAIN ANALYZE`` runs the query against a forced, private
        profile so the rendered actuals are this one run's: operator
        head lines gain ``(actual rows=... time=...)`` and a per-UDF
        profile section follows the plan.  Adaptive feedback (when
        enabled) still accumulates, since the query really executed.
        """
        from .explain import explain_plan, udf_profile_lines

        obs = self.db.observability
        profile = (
            obs.query_profile(force=True) if statement.analyze else None
        )
        oracle = _RegistryOracle(
            self.db.registry, obs.adaptive, inlining=self.db.inlining
        )
        with self._udfs(profile=profile) as (resolver, runtime):
            plan = self.plan(statement.select, oracle=oracle)
            if statement.analyze:
                root = self._physical(
                    plan, resolver, runtime, profile, snapshot=None
                )
                for __ in root.batches():
                    pass
            lines = explain_plan(
                plan, oracle, batch_size=self.db.batch_size,
                analysis=profile,
            )
            if statement.analyze:
                profiled = udf_profile_lines(profile)
                if profiled:
                    lines.append("-- UDF profiles --")
                    lines.extend(profiled)
        return QueryResult(
            columns=["plan"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
        )

    def _physical(
        self,
        plan: LogicalPlan,
        resolver: _QueryUDFResolver,
        runtime: QueryRuntime,
        profile=None,
        snapshot=None,
    ) -> PhysicalOp:
        op = self._build_physical(
            plan, resolver, runtime, profile, snapshot=snapshot
        )
        if profile is not None and profile.track_operators:
            stats = profile.operator(plan, type(op).__name__)
            instrument_operator(op, stats)
        return op

    def _build_physical(
        self,
        plan: LogicalPlan,
        resolver: _QueryUDFResolver,
        runtime: QueryRuntime,
        profile=None,
        snapshot=None,
    ) -> PhysicalOp:
        pool = self.db.pool
        batch_size = self.db.batch_size

        def build(child: LogicalPlan) -> PhysicalOp:
            return self._physical(child, resolver, runtime, profile, snapshot)

        def compile_all(exprs, schema):
            return [compile_expr(e, schema, resolver, runtime) for e in exprs]

        def compile_predicates(exprs, schema):
            """Predicate conjuncts, probed when adaptive feedback wants
            their observed selectivity."""
            fns = compile_all(exprs, schema)
            if profile is not None and profile.wants_selectivity:
                from .explain import render_expr

                fns = [
                    profile.predicate_probe(render_expr(expr), fn)
                    for expr, fn in zip(exprs, fns)
                ]
            return fns

        if isinstance(plan, LogicalScan):
            predicates = compile_predicates(plan.predicates, plan.schema)
            if plan.index is not None:
                return IndexScan(
                    pool, plan.table_info, plan.index,
                    resolve_bound(plan.index_lo, runtime.params),
                    resolve_bound(plan.index_hi, runtime.params),
                    predicates, batch_size=batch_size, snapshot=snapshot,
                    with_rids=plan.with_rids,
                )
            return SeqScan(
                plan.table_info, predicates, batch_size=batch_size,
                snapshot=snapshot, with_rids=plan.with_rids,
            )
        if isinstance(plan, LogicalJoin):
            return NestedLoopJoin(
                build(plan.left), build(plan.right),
                compile_predicates(plan.predicates, plan.schema),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalFilter):
            return Filter(
                build(plan.child),
                compile_predicates(plan.predicates, plan.child.schema),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalProject):
            return Project(
                build(plan.child), compile_all(plan.exprs, plan.child.schema),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalAggregate):
            child, schema = build(plan.child), plan.child.schema
            group_fns = compile_all(plan.group_exprs, schema)
            agg_specs = [
                (
                    spec.func,
                    None if spec.arg is None
                    else compile_expr(spec.arg, schema, resolver, runtime),
                    spec.distinct,
                )
                for spec in plan.aggregates
            ]
            return Aggregate(
                child, group_fns, agg_specs, batch_size=batch_size
            )
        if isinstance(plan, LogicalDistinct):
            return Distinct(build(plan.child), batch_size=batch_size)
        if isinstance(plan, LogicalSort):
            return Sort(
                build(plan.child), compile_all(plan.keys, plan.child.schema),
                plan.descending, batch_size=batch_size,
            )
        if isinstance(plan, LogicalLimit):
            return Limit(build(plan.child), plan.limit, batch_size=batch_size)
        raise ExecutionError(f"no physical operator for {type(plan).__name__}")

    # -- DDL ------------------------------------------------------------------------

    def _create_table(self, statement: A.CreateTable) -> QueryResult:
        if self.db.catalog.has_table(statement.name):
            raise PlanError(f"table {statement.name!r} already exists")
        heap = HeapFile.create(self.db.pool)
        table = TableInfo(
            name=statement.name,
            columns=[
                CatColumn(c.name, c.sql_type, c.nullable)
                for c in statement.columns
            ],
            first_page=heap.first_page,
            heap=heap,
        )
        self.db.catalog.add_table(table)
        return QueryResult()

    def _drop_table(self, statement: A.DropTable) -> QueryResult:
        table = self.db.catalog.get_table(statement.name)
        for rows in table.heap.scan_rows(table.codec.decode):
            for row in rows:
                for value in row:
                    if isinstance(value, LOBRef):
                        self.db.lobs.free(value)
        for index in table.indexes:
            BPlusTree(self.db.pool, index.root_page).drop()
        table.heap.drop()
        self.db.catalog.drop_table(statement.name)
        return QueryResult()

    def _create_index(self, statement: A.CreateIndex) -> QueryResult:
        table = self.db.catalog.get_table(statement.table)
        position = table.column_index(statement.column)
        if table.columns[position].col_type is not SQLType.INT:
            raise PlanError("indexes are supported on INT columns only")
        if any(i.name.lower() == statement.name.lower() for i in table.indexes):
            raise PlanError(f"index {statement.name!r} already exists")
        tree = BPlusTree.create(self.db.pool)
        for rid, row in table.heap.scan(table.codec.decode):
            key = row[position]
            if key is not None:
                tree.insert(key, rid)
        self.db._publish_index(table, IndexInfo(
            statement.name, statement.column, tree.root_page, position
        ))
        return QueryResult()

    def _create_function(self, statement: A.CreateFunction) -> QueryResult:
        from ..core.designs import Design
        from ..core.udf import CostHints, UDFDefinition, UDFSignature

        design = Design(statement.design)
        if statement.language != design.language:
            raise PlanError(
                f"LANGUAGE {statement.language.upper()} does not match "
                f"DESIGN {statement.design.upper()}"
            )
        if design.is_sandboxed:
            entry = statement.entry or statement.name
        else:
            __, __, func_name = statement.payload.partition(":")
            entry = statement.entry or func_name
        if statement.cost is None and statement.selectivity is None:
            # No declared hints: let the registry derive them from the
            # analyzer's static summary (sandboxed designs only).
            hints = None
        else:
            hints = CostHints(
                cost_per_call=(
                    statement.cost if statement.cost is not None else 1000.0
                ),
                selectivity=(
                    statement.selectivity
                    if statement.selectivity is not None else 0.5
                ),
            )
        definition = UDFDefinition(
            name=statement.name,
            signature=UDFSignature(statement.param_types, statement.ret_type),
            design=design,
            payload=statement.payload.encode("utf-8"),
            entry=entry,
            callbacks=statement.callbacks,
            cost=hints,
            fuel=statement.fuel,
            memory=statement.memory,
        )
        self.db.register_udf(definition)
        return QueryResult()

    def _drop_function(self, statement: A.DropFunction) -> QueryResult:
        self.db.unregister_udf(statement.name)
        return QueryResult()

    # -- DML ---------------------------------------------------------------------------

    def _write(
        self, statement: A.Statement, plan: Optional[WritePlan], params
    ) -> QueryResult:
        """Run an INSERT, UPDATE or DELETE under its table's write lock.

        Every value is computed and checked against its column before
        the first write, so a failing expression, or a value outside its
        column's type or NULL in a NOT NULL column, writes nothing: the
        scan (of live pages, snapshots or not) finds every match first,
        which is Halloween protection too, then SET runs over them
        ``db.batch_size`` rows at a time; an INSERT evaluates every
        VALUES row.  One UDF resolver serves all.
        """
        table = self.db.catalog.get_table(statement.table)
        if plan is None or plan.table_info is not table:
            # Planned per execution (a script, adaptive optimization),
            # or the cached plan's table was dropped and re-created.
            plan = self.plan(statement, SlotValues(params),
                             private=self.db.snapshots.enabled)
        check_row = self.db.check_row
        with self._udfs(params) as (resolver, runtime):
            if isinstance(statement, A.Insert):
                rows = [
                    check_row(table, self._values(plan, exprs, resolver,
                                                  runtime))
                    for exprs in statement.rows
                ]
                for values in rows:
                    self.db._write_row_locked(table, values=values)
                return QueryResult(rowcount=len(rows))
            matches = list(self._physical(plan.scan, resolver, runtime).rows())
            columns = [
                (position, eval_column(
                    compile_expr(expr, plan.scan.schema, resolver, runtime),
                    matches, self.db.batch_size,
                ))
                for position, expr in plan.assignments
            ]
        writes = []
        for index, row in enumerate(matches):
            rid = row.pop()
            values = None
            if isinstance(statement, A.Update):
                values = list(row)
                for position, column in columns:
                    values[position] = column[index]
                values = check_row(table, values)
            writes.append((rid, row, values))
        for rid, row, values in writes:
            if values is not None:
                for position, __ in columns:
                    if isinstance(row[position], LOBRef):
                        self.db.lobs.free(row[position])
            self.db._write_row_locked(table, rid, row, values)
        return QueryResult(rowcount=len(matches))

    @staticmethod
    def _values(plan: WritePlan, exprs, resolver, runtime) -> List[object]:
        """One VALUES row of an INSERT, a value per table column, each
        evaluated over a one-row batch."""
        if len(exprs) != len(plan.positions):
            raise PlanError(
                f"INSERT supplies {len(exprs)} values for "
                f"{len(plan.positions)} columns"
            )
        values: List[object] = [None] * len(plan.table_info.columns)
        for position, expr in zip(plan.positions, exprs):
            values[position] = compile_expr(
                expr, _EMPTY_SCHEMA, resolver, runtime
            )([[]])[0]
        return values


_EMPTY_SCHEMA = RowSchema([])
