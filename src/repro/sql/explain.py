"""EXPLAIN: render optimized plans as text.

The interesting part for this paper is *predicate placement*: EXPLAIN
shows the per-scan conjunct lists in their optimized (rank) order, so a
user can see that the cheap ``type = 'tech'`` predicate runs before the
expensive ``InvestVal(history)`` UDF — the [Hel95]/[Jhi88] behaviour the
related-work section describes.

When a :class:`~repro.sql.optimizer.CostOracle` is supplied, each
predicate line that calls a UDF is annotated with the facts the ordering
decision used: the UDF's purity (from the load-time analyzer) and its
cost/selectivity, tagged ``derived`` when the analyzer estimated them
from bytecode rather than the registration declaring them.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as A
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
)


def render_expr(expr: A.Expr) -> str:
    """An expression back to (approximately) its SQL text."""
    if isinstance(expr, A.Literal):
        value = expr.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return repr(value)
    if isinstance(expr, A.ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, A.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, A.BinaryOp):
        op = expr.op.upper() if expr.op in ("and", "or", "like") else expr.op
        return f"({render_expr(expr.left)} {op} {render_expr(expr.right)})"
    if isinstance(expr, A.UnaryOp):
        if expr.op == "not":
            return f"(NOT {render_expr(expr.operand)})"
        return f"({expr.op}{render_expr(expr.operand)})"
    if isinstance(expr, A.IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand)} {suffix})"
    if isinstance(expr, A.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({render_expr(expr.operand)} {word} "
            f"{render_expr(expr.low)} AND {render_expr(expr.high)})"
        )
    if isinstance(expr, A.InList):
        word = "NOT IN" if expr.negated else "IN"
        items = ", ".join(render_expr(item) for item in expr.items)
        return f"({render_expr(expr.operand)} {word} ({items}))"
    if isinstance(expr, A.FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(render_expr(arg) for arg in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, A.Case):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(f"WHEN {render_expr(cond)} THEN {render_expr(value)}")
        if expr.default is not None:
            parts.append(f"ELSE {render_expr(expr.default)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, A.ParamRef):
        # Only visible when pretty-printing an InlineTemplate body
        # (the ``inline:`` line of ``python -m repro.analysis``); planned
        # expressions have every parameter substituted.
        return f"${expr.index + 1}"
    if isinstance(expr, A.Inlined):
        return render_expr(expr.body)
    return repr(expr)


def explain_plan(
    plan: LogicalPlan,
    oracle: Optional[object] = None,
    batch_size: Optional[int] = None,
    analysis: Optional[object] = None,
) -> List[str]:
    """One indented line per plan node, root first.

    ``oracle`` (a :class:`~repro.sql.optimizer.CostOracle`) enables the
    per-predicate UDF purity/cost annotations.  ``batch_size`` (the
    executor setting the plan would run with) annotates every operator
    with its effective batch size so plans are auditable.  ``analysis``
    (a :class:`~repro.obs.profile.QueryProfile` from an ``EXPLAIN
    ANALYZE`` run) appends the actual rows/batches/time each operator
    produced.
    """
    lines: List[str] = []
    _render(plan, 0, lines, oracle, batch_size, analysis)
    return lines


def udf_profile_lines(profile: Optional[object]) -> List[str]:
    """One ``EXPLAIN ANALYZE`` line per (UDF, design) the query ran."""
    lines: List[str] = []
    if profile is None:
        return lines
    for (name, design), udf in sorted(profile.udfs.items()):
        calls = udf.calls.value
        mean_us = udf.total_ns.value / calls / 1000.0 if calls else 0.0
        p95 = udf.invoke_ns.quantile(0.95)
        p95_us = (p95 or 0.0) / 1000.0
        line = (
            f"udf {name} [{design}]: calls={calls} "
            f"batches={udf.batches.value} "
            f"mean={mean_us:.1f}us/call p95={p95_us:.1f}us"
        )
        if udf.fuel_used.value or udf.heap_used.value:
            line += (
                f" fuel={udf.fuel_used.value} heap={udf.heap_used.value}"
            )
        if udf.round_trip_ns.count:
            trip_us = (udf.round_trip_ns.quantile(0.5) or 0.0) / 1000.0
            line += f" round_trip_p50={trip_us:.1f}us"
        if udf.crashes.value or udf.refusals.value:
            line += (
                f" crashes={udf.crashes.value} "
                f"refusals={udf.refusals.value}"
            )
        lines.append(line)
    for name, counter in sorted(
        getattr(profile, "inlined_udfs", {}).items()
    ):
        # Former call sites the optimizer replaced with lifted SQL: the
        # rows are counted, but there were no VM entries to time.
        lines.append(f"udf {name} [inlined]: rows={counter.value}")
    return lines


def _actual(plan: LogicalPlan, analysis: Optional[object]) -> str:
    """`` (actual rows=N batches=M time=T ms)`` from an ANALYZE run."""
    if analysis is None:
        return ""
    stats = analysis.operator_stats(plan)
    if stats is None:
        return ""
    return (
        f" (actual rows={stats.rows} batches={stats.batches} "
        f"time={stats.time_ns / 1e6:.3f} ms)"
    )


def _inlined_names(expr: A.Expr) -> List[str]:
    """Names of UDFs the optimizer inlined within ``expr``, in order."""
    return [node.name for node in A.walk(expr) if isinstance(node, A.Inlined)]


def _inline_notes(exprs: List[A.Expr], oracle: Optional[object]) -> str:
    """Inlining-only annotations for non-predicate expression lists.

    Projection and sort-key lines never carried the cost/selectivity
    notes (those drive predicate ordering, which does not apply), but
    their call sites still need marking: inlined or opaque (inlining
    on), a sandboxed call's ``kernel`` / ``tier0(<refusal>)``, and an
    isolated call's ``workers=N``.
    """
    if oracle is None:
        return ""
    from .optimizer import _function_calls

    notes: List[str] = []
    for expr in exprs:
        for name in _inlined_names(expr):
            notes.append(f"udf {name}: inlined")
        for call in _function_calls(expr):
            name = call.name.lower()
            if getattr(oracle, "udf_definition", lambda n: None)(name) is None:
                continue
            marks = []
            refusal = getattr(oracle, "inline_refusal", lambda n: None)(name)
            if refusal is not None:
                marks.append(f"opaque({refusal})")
            elif getattr(
                oracle, "inline_template", lambda n: None
            )(name) is not None:
                marks.append("opaque(call-site)")
            tier = getattr(oracle, "udf_tier", lambda n: None)(name)
            if tier is not None:
                marks.append(tier)
            workers = getattr(oracle, "udf_workers", lambda n: None)(name)
            if workers is not None:
                marks.append(f"workers={workers}")
            if marks:
                notes.append(f"udf {name}: {', '.join(marks)}")
    if not notes:
        return ""
    return "  -- " + "; ".join(notes)


def _annotate(expr: A.Expr, oracle: Optional[object]) -> str:
    """`` -- udf f: pure, cost≈N (derived), sel=S`` for UDF predicates.

    When the oracle carries trusted adaptive feedback, the measured
    numbers replace the static ones and are marked ``(observed)``.
    """
    if oracle is None:
        return ""
    from .optimizer import _function_calls

    notes = []
    for name in _inlined_names(expr):
        # The call site is gone: the body runs as native SQL, no VM
        # entry, no metering, no marshalling.
        notes.append(f"udf {name}: inlined")
    for call in _function_calls(expr):
        name = call.name.lower()
        definition = getattr(oracle, "udf_definition", lambda n: None)(name)
        if definition is None:
            continue
        hints = definition.cost_hints
        purity = "pure" if definition.is_pure else "impure"
        observed = getattr(oracle, "observed_cost", lambda n: None)(name)
        if observed is not None:
            cost_note = f"cost≈{observed:.0f} (observed)"
        else:
            origin = "derived" if hints.derived else "declared"
            cost_note = f"cost≈{hints.cost_per_call:.0f} ({origin})"
        note = (
            f"udf {definition.name}: {purity}, "
            f"{cost_note}, "
            f"sel={hints.selectivity:.2f}"
        )
        # With inlining on, every surviving call site says why it is
        # still a call: the decompiler's refusal reason, or
        # ``call-site`` when the body lifted but this particular use
        # disqualified (literal args, type mismatch, nested UDF args).
        refusal = getattr(oracle, "inline_refusal", lambda n: None)(name)
        if refusal is not None:
            note += f", opaque({refusal})"
        elif getattr(oracle, "inline_template", lambda n: None)(name) is not None:
            note += ", opaque(call-site)"
        entry = getattr(oracle, "udf_entry", lambda n: None)(name)
        cert = getattr(entry, "certificate", None)
        if cert is not None and (
            cert.fuel_bound is not None or cert.mem_bound is not None
        ):
            from ..analysis.intervals import describe_bound

            note += (
                f", bounded(fuel≤{describe_bound(cert.fuel_bound)}, "
                f"mem≤{describe_bound(cert.mem_bound)})"
            )
        flows = getattr(entry, "flows", None)
        if flows is not None and flows.trap_free:
            # The interval pass proved no instruction can fault, so the
            # executors skip per-row trap partitioning for this UDF.
            note += ", trap-free"
        # Tier 1 was decided at CREATE FUNCTION: the batches of this
        # call site run in the whole-batch kernel, or on tier 0 and why.
        tier = getattr(oracle, "udf_tier", lambda n: None)(name)
        if tier is not None:
            note += f", {tier}"
        # An isolated call's batches are sharded across this many
        # worker processes, the engine's one parallel path.
        workers = getattr(oracle, "udf_workers", lambda n: None)(name)
        if workers is not None:
            note += f", workers={workers}"
        notes.append(note)
    sel_observed = getattr(oracle, "observed_selectivity", lambda k: None)(
        render_expr(expr)
    )
    if sel_observed is not None:
        notes.append(f"sel≈{sel_observed:.2f} (observed)")
    if not notes:
        return ""
    return "  -- " + "; ".join(notes)


def _render(
    plan: LogicalPlan,
    depth: int,
    lines: List[str],
    oracle: Optional[object] = None,
    batch_size: Optional[int] = None,
    analysis: Optional[object] = None,
) -> None:
    pad = "  " * depth
    # The effective batch size the executor would run this operator at,
    # appended to every operator head line so plans are auditable; an
    # ANALYZE run appends what the operator actually produced.
    tag = f" [batch={batch_size}]" if batch_size is not None else ""
    tag += _actual(plan, analysis)
    if isinstance(plan, LogicalScan):
        if plan.index is not None:
            bounds = f"[{plan.index_lo}..{plan.index_hi}]"
            head = (f"IndexScan {plan.table_name} AS {plan.alias} "
                    f"USING {plan.index.name} {bounds}")
        else:
            head = f"SeqScan {plan.table_name} AS {plan.alias}"
        lines.append(pad + head + tag)
        for position, predicate in enumerate(plan.predicates):
            lines.append(
                f"{pad}  filter[{position}]: {render_expr(predicate)}"
                f"{_annotate(predicate, oracle)}"
            )
        return
    if isinstance(plan, LogicalJoin):
        lines.append(pad + "NestedLoopJoin" + tag)
        for position, predicate in enumerate(plan.predicates):
            lines.append(
                f"{pad}  on[{position}]: {render_expr(predicate)}"
                f"{_annotate(predicate, oracle)}"
            )
        _render(plan.left, depth + 1, lines, oracle, batch_size, analysis)
        _render(plan.right, depth + 1, lines, oracle, batch_size, analysis)
        return
    if isinstance(plan, LogicalFilter):
        lines.append(pad + "Filter" + tag)
        for position, predicate in enumerate(plan.predicates):
            lines.append(
                f"{pad}  filter[{position}]: {render_expr(predicate)}"
                f"{_annotate(predicate, oracle)}"
            )
    elif isinstance(plan, LogicalProject):
        rendered = ", ".join(
            f"{render_expr(expr)} AS {name}"
            for expr, name in zip(plan.exprs, plan.names)
        )
        lines.append(
            pad + f"Project [{rendered}]" + tag
            + _inline_notes(plan.exprs, oracle)
        )
    elif isinstance(plan, LogicalAggregate):
        groups = ", ".join(render_expr(e) for e in plan.group_exprs)
        aggs = ", ".join(
            f"{spec.func}({render_expr(spec.arg) if spec.arg else '*'})"
            for spec in plan.aggregates
        )
        lines.append(pad + f"Aggregate groups=[{groups}] aggs=[{aggs}]" + tag)
    elif isinstance(plan, LogicalDistinct):
        lines.append(pad + "Distinct" + tag)
    elif isinstance(plan, LogicalSort):
        keys = ", ".join(
            f"{render_expr(key)} {'DESC' if desc else 'ASC'}"
            for key, desc in zip(plan.keys, plan.descending)
        )
        lines.append(pad + f"Sort [{keys}]" + tag + _inline_notes(plan.keys, oracle))
    elif isinstance(plan, LogicalLimit):
        lines.append(pad + f"Limit {plan.limit}" + tag)
    else:
        lines.append(pad + type(plan).__name__)
    child = getattr(plan, "child", None)
    if child is not None:
        _render(child, depth + 1, lines, oracle, batch_size, analysis)
