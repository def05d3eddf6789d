"""Statement execution: ties the planner, optimizer, operators, storage,
and the UDF subsystem together.

One :class:`StatementExecutor` serves one database instance.  For each
SELECT it builds the logical plan, optimizes it, compiles expressions to
closures, sets up per-query UDF executors (Design 2/4 executors are
*processes created per query*, per the paper), runs the Volcano tree,
and tears everything down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, PlanError
from ..storage.btree import BPlusTree
from ..storage.catalog import Column as CatColumn
from ..storage.catalog import IndexInfo, TableInfo
from ..storage.heapfile import HeapFile
from ..storage.lob import LOBRef
from ..storage.record import ColumnType, serialize_record
from . import ast_nodes as A
from .expressions import (
    FunctionResolver,
    QueryRuntime,
    compile_expr,
    eval_batch,
)
from .operators import (
    Aggregate,
    Distinct,
    Exchange,
    Filter,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PhysicalOp,
    Project,
    SeqScan,
    Sort,
    apply_predicates,
    instrument_operator,
)
from .optimizer import CostOracle, optimize
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
    plan_select,
)
from .types import SQLType


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

    def udf_ret_type(self, name: str) -> Optional[str]:
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

    def inline_template(self, name: str):
        """The UDF's :class:`~repro.analysis.decompile.InlineTemplate`,
        when inlining is enabled and the decompiler lifted the body."""
        if not self.inlining:
            return None
        definition = self.udf_definition(name)
        if definition is None:
            return None
        inline = getattr(definition, "inline", None)
        if inline is not None and hasattr(inline, "expr"):
            return inline
        return None

    def inline_refusal(self, name: str):
        """The refusal reason code for a non-inlinable UDF, when
        inlining is enabled (so seed EXPLAIN output stays byte-identical
        with inlining off)."""
        if not self.inlining:
            return None
        definition = self.udf_definition(name)
        if definition is None:
            return None
        inline = getattr(definition, "inline", None)
        if inline is not None and hasattr(inline, "reason"):
            return inline.reason
        return None

    def observed_cost(self, name: str):
        if self.adaptive is None:
            return None
        return self.adaptive.observed_cost(name)

    def observed_selectivity(self, key: str):
        if self.adaptive is None:
            return None
        return self.adaptive.observed_selectivity(key)

    def udf_hints(self, name: str):
        if self.registry is not None and self.registry.has(name):
            return self.registry.get(name).cost_hints
        return None

    def udf_definition(self, name: str):
        if self.registry is not None and self.registry.has(name):
            return self.registry.get(name)
        return None

    def fold_udf(self, name: str, args):
        """Evaluate a (pure) UDF once at plan time.

        Argument coercion mirrors the per-tuple call path: ints widen to
        floats for FLOAT parameters.  Isolated-design executors are per
        query and torn down right away; in-process executors are shared
        with the upcoming execution.
        """
        definition = self.registry.get(name)
        coerced = [
            float(value)
            if declared == "float" and isinstance(value, int)
            and not isinstance(value, bool)
            else value
            for declared, value in zip(
                definition.signature.param_types, args
            )
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

    def execute(self, statement: A.Statement) -> QueryResult:
        """Everything but SELECT, which ``Database._execute`` hands to
        :meth:`select_with_plan` with its snapshot and cached plan."""
        if isinstance(statement, A.Explain):
            return self.execute_explain(statement)
        if isinstance(statement, A.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, A.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, A.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, A.Insert):
            return self._insert(statement)
        if isinstance(statement, A.Update):
            return self._update(statement)
        if isinstance(statement, A.Delete):
            return self._delete(statement)
        if isinstance(statement, A.CreateFunction):
            return self._create_function(statement)
        if isinstance(statement, A.DropFunction):
            return self._drop_function(statement)
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    # -- SELECT ------------------------------------------------------------------

    def select_with_plan(
        self,
        select: Optional[A.Select],
        snapshot=None,
        plan: Optional[LogicalPlan] = None,
        private: bool = False,
    ) -> Tuple[QueryResult, LogicalPlan]:
        """Run a SELECT, also returning its optimized logical plan.

        ``plan`` short-circuits planning with a plan-cache hit, in
        which case ``select`` is not needed and may be None (the
        logical plan carries no execution state, so one cached object
        serves any number of concurrent statements); the returned plan
        is what a caller stores back into the cache on a miss.
        ``snapshot`` routes scans to the pinned frozen table images
        instead of live heap pages, and ``private`` gives each UDF a
        fresh (unshared) executor — both required when this statement
        runs concurrently with others.
        """
        obs = self.db.observability
        profile = obs.query_profile()
        binding = self.db.broker.bind()
        resolver = _QueryUDFResolver(
            self.db.registry, binding, profile, private=private
        )
        runtime = QueryRuntime(lobs=self.db.lobs, binding=binding)
        try:
            if plan is None:
                plan = plan_select(select, self.db.catalog, resolver)
                plan = optimize(
                    plan,
                    _RegistryOracle(
                        self.db.registry, obs.adaptive,
                        inlining=self.db.inlining, private=private,
                    ),
                    parallelism=self.db.parallelism,
                    inlining=self.db.inlining,
                )
            root = self._physical(
                plan, resolver, runtime, profile, snapshot=snapshot
            )
            rows = [tuple(row) for row in root.rows()]
            result = QueryResult(
                columns=plan.schema.names(), rows=rows, rowcount=len(rows)
            )
            return result, plan
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
        binding = self.db.broker.bind()
        resolver = _QueryUDFResolver(self.db.registry, binding, profile)
        runtime = QueryRuntime(lobs=self.db.lobs, binding=binding)
        oracle = _RegistryOracle(
            self.db.registry, obs.adaptive, inlining=self.db.inlining
        )
        try:
            plan = plan_select(statement.select, self.db.catalog, resolver)
            plan = optimize(
                plan, oracle, parallelism=self.db.parallelism,
                inlining=self.db.inlining,
            )
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
        finally:
            resolver.finish()
            if profile is not None:
                profile.finish()
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
                    plan.index_lo, plan.index_hi, predicates,
                    batch_size=batch_size, snapshot=snapshot,
                )
            return SeqScan(
                plan.table_info, predicates, batch_size=batch_size,
                snapshot=snapshot,
            )
        if isinstance(plan, LogicalJoin):
            left = self._physical(plan.left, resolver, runtime, profile,
                                      snapshot=snapshot)
            right = self._physical(plan.right, resolver, runtime, profile,
                                      snapshot=snapshot)
            predicates = compile_predicates(plan.predicates, plan.schema)
            return NestedLoopJoin(
                left, right, predicates, batch_size=batch_size
            )
        if isinstance(plan, LogicalExchange):
            inner = plan.child
            if isinstance(inner, LogicalFilter):
                child = self._physical(
                    inner.child, resolver, runtime, profile,
                    snapshot=snapshot,
                )
                predicates = compile_predicates(
                    inner.predicates, inner.child.schema
                )

                def stage(batch, predicates=predicates):
                    return apply_predicates(predicates, batch)

            elif isinstance(inner, LogicalProject):
                child = self._physical(
                    inner.child, resolver, runtime, profile,
                    snapshot=snapshot,
                )
                exprs = compile_all(inner.exprs, inner.child.schema)

                def stage(batch, exprs=exprs):
                    columns = [eval_batch(fn, batch) for fn in exprs]
                    return [
                        [column[index] for column in columns]
                        for index in range(len(batch))
                    ]

            else:
                # Unknown region shape: run it serially rather than fail.
                return self._build_physical(inner, resolver, runtime, profile,
                                      snapshot=snapshot)
            return Exchange(
                child, stage, parallelism=plan.parallelism,
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalFilter):
            child = self._physical(plan.child, resolver, runtime, profile,
                                      snapshot=snapshot)
            return Filter(
                child, compile_predicates(plan.predicates, plan.child.schema),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalProject):
            child = self._physical(plan.child, resolver, runtime, profile,
                                      snapshot=snapshot)
            return Project(
                child, compile_all(plan.exprs, plan.child.schema),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalAggregate):
            child = self._physical(plan.child, resolver, runtime, profile,
                                      snapshot=snapshot)
            group_fns = compile_all(plan.group_exprs, plan.child.schema)
            agg_specs = [
                (
                    spec.func,
                    (
                        compile_expr(
                            spec.arg, plan.child.schema, resolver, runtime
                        )
                        if spec.arg is not None
                        else None
                    ),
                    spec.distinct,
                )
                for spec in plan.aggregates
            ]
            return Aggregate(
                child, group_fns, agg_specs, batch_size=batch_size
            )
        if isinstance(plan, LogicalDistinct):
            return Distinct(
                self._physical(plan.child, resolver, runtime, profile,
                               snapshot=snapshot),
                batch_size=batch_size,
            )
        if isinstance(plan, LogicalSort):
            child = self._physical(plan.child, resolver, runtime, profile,
                                      snapshot=snapshot)
            key_fns = compile_all(plan.keys, plan.child.schema)
            return Sort(
                child, key_fns, plan.descending, batch_size=batch_size
            )
        if isinstance(plan, LogicalLimit):
            return Limit(
                self._physical(plan.child, resolver, runtime, profile,
                               snapshot=snapshot),
                plan.limit,
                batch_size=batch_size,
            )
        raise ExecutionError(f"no physical operator for {type(plan).__name__}")

    # -- DDL ------------------------------------------------------------------------

    def _create_table(self, statement: A.CreateTable) -> QueryResult:
        if self.db.catalog.has_table(statement.name):
            raise PlanError(f"table {statement.name!r} already exists")
        heap = HeapFile.create(self.db.pool)
        table = TableInfo(
            name=statement.name,
            columns=[
                CatColumn(c.name, c.sql_type.storage_type, c.nullable)
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
        table.heap.drop()
        self.db.catalog.drop_table(statement.name)
        return QueryResult()

    def _create_index(self, statement: A.CreateIndex) -> QueryResult:
        table = self.db.catalog.get_table(statement.table)
        position = table.column_index(statement.column)
        if table.columns[position].col_type is not ColumnType.INT:
            raise PlanError("indexes are supported on INT columns only")
        if any(i.name.lower() == statement.name.lower() for i in table.indexes):
            raise PlanError(f"index {statement.name!r} already exists")
        tree = BPlusTree.create(self.db.pool)
        for rid, row in table.heap.scan(table.codec.decode):
            key = row[position]
            if key is not None:
                tree.insert(key, rid)
        table.indexes.append(
            IndexInfo(statement.name, statement.column, tree.root_page)
        )
        # Cached plans for this table chose their scans without it.
        self.db.catalog.bump_epoch()
        self.db.catalog.save()
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

    def _insert(self, statement: A.Insert) -> QueryResult:
        table = self.db.catalog.get_table(statement.table)
        if statement.columns:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(len(table.columns)))
        empty = _EMPTY_SCHEMA
        resolver = FunctionResolver()
        runtime = QueryRuntime(lobs=self.db.lobs)
        count = 0
        # All rows of one INSERT go in under one hold of the table's
        # write lock and *without* per-row snapshot installs: the
        # statement-level install happens once when the statement
        # finishes, so snapshot readers see a multi-row INSERT
        # atomically.  (Reentrant: the write pipeline already holds it.)
        with self.db.table_write_lock(table.name):
            for value_exprs in statement.rows:
                if len(value_exprs) != len(positions):
                    raise PlanError(
                        f"INSERT supplies {len(value_exprs)} values for "
                        f"{len(positions)} columns"
                    )
                values: List[object] = [None] * len(table.columns)
                provided = [False] * len(table.columns)
                for position, expr in zip(positions, value_exprs):
                    fn = compile_expr(expr, empty, resolver, runtime)
                    values[position] = fn([])
                    provided[position] = True
                self.db._insert_row_locked(table, values)
                count += 1
        return QueryResult(rowcount=count)

    def _collect_matches(
        self, table: TableInfo, where: Optional[A.Expr]
    ) -> List[Tuple[object, List[object]]]:
        binding = self.db.broker.bind()
        resolver = _QueryUDFResolver(self.db.registry, binding)
        runtime = QueryRuntime(lobs=self.db.lobs, binding=binding)
        try:
            predicate = None
            if where is not None:
                from .planner import qualify
                from .types import schema_for_table

                schema = schema_for_table(table)
                predicate = compile_expr(
                    qualify(where, schema), schema, resolver, runtime
                )
            matches = []
            for rid, row in table.heap.scan(table.codec.decode):
                if predicate is None or predicate(row) is True:
                    matches.append((rid, row))
            return matches
        finally:
            resolver.finish()

    def _delete(self, statement: A.Delete) -> QueryResult:
        table = self.db.catalog.get_table(statement.table)
        matches = self._collect_matches(table, statement.where)
        for rid, row in matches:
            for value in row:
                if isinstance(value, LOBRef):
                    self.db.lobs.free(value)
            self._index_remove(table, rid, row)
            table.heap.delete(rid)
        return QueryResult(rowcount=len(matches))

    def _update(self, statement: A.Update) -> QueryResult:
        table = self.db.catalog.get_table(statement.table)
        matches = self._collect_matches(table, statement.where)
        from .planner import qualify
        from .types import schema_for_table

        schema = schema_for_table(table)
        binding = self.db.broker.bind()
        resolver = _QueryUDFResolver(self.db.registry, binding)
        runtime = QueryRuntime(lobs=self.db.lobs, binding=binding)
        try:
            assignments = [
                (
                    table.column_index(name),
                    compile_expr(qualify(expr, schema), schema, resolver, runtime),
                )
                for name, expr in statement.assignments
            ]
            for rid, row in matches:
                new_row = list(row)
                for position, fn in assignments:
                    old = new_row[position]
                    new_value = fn(row)
                    if isinstance(old, LOBRef):
                        self.db.lobs.free(old)
                    new_row[position] = new_value
                self._index_remove(table, rid, row)
                record = self.db.encode_row(table, new_row)
                new_rid = table.heap.update(rid, record)
                self._index_add(table, new_rid, new_row)
        finally:
            resolver.finish()
        return QueryResult(rowcount=len(matches))

    # -- index maintenance -----------------------------------------------------------------

    def _index_add(self, table: TableInfo, rid, row: Sequence[object]) -> None:
        for info in table.indexes:
            key = row[table.column_index(info.column)]
            if key is None:
                continue
            tree = BPlusTree(self.db.pool, info.root_page)
            tree.insert(key, rid)
            if tree.root_page != info.root_page:
                info.root_page = tree.root_page
                self.db.catalog.save()

    def _index_remove(self, table: TableInfo, rid, row: Sequence[object]) -> None:
        for info in table.indexes:
            key = row[table.column_index(info.column)]
            if key is None:
                continue
            BPlusTree(self.db.pool, info.root_page).delete(key, rid)


from .types import RowSchema

_EMPTY_SCHEMA = RowSchema([])
