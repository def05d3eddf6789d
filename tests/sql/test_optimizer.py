"""Optimizer rewrites: pushdown, expensive-predicate ordering, indexes."""

import pytest

from repro.core.udf import CostHints
from repro.sql import ast_nodes as A
from repro.sql.optimizer import CostOracle, optimize
from repro.sql.parser import parse_statement
from repro.sql.planner import (
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    plan_select,
    split_conjuncts,
)
from repro.storage.catalog import Catalog, Column, IndexInfo, TableInfo
from repro.types import SQLType


def make_catalog():
    catalog = Catalog()
    catalog.add_table(
        TableInfo(
            name="t",
            columns=[
                Column("id", SQLType.INT),
                Column("v", SQLType.INT),
                Column("arr", SQLType.BYTES),
            ],
            first_page=2,
        )
    )
    catalog.add_table(
        TableInfo(
            name="u",
            columns=[Column("id", SQLType.INT),
                     Column("w", SQLType.INT)],
            first_page=3,
        )
    )
    catalog.add_table(
        TableInfo(
            name="indexed",
            columns=[Column("k", SQLType.INT)],
            first_page=4,
            indexes=[IndexInfo("idx_k", "k", 9)],
        )
    )
    return catalog


class FakeOracle(CostOracle):
    """Treats 'expensive_udf' as a known UDF with given hints."""

    def __init__(self, hints):
        self.hints = hints

    def udf_hints(self, name):
        return self.hints.get(name)


def plan(sql, catalog=None):
    return plan_select(parse_statement(sql), catalog or make_catalog())


def find_scans(node, out=None):
    out = out if out is not None else []
    if isinstance(node, LogicalScan):
        out.append(node)
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            find_scans(child, out)
    return out


class TestSplitConjuncts:
    def test_flattens_nested_ands(self):
        where = parse_statement(
            "SELECT id FROM t WHERE id = 1 AND v = 2 AND v = 3"
        ).where
        assert len(split_conjuncts(where)) == 3

    def test_or_not_split(self):
        where = parse_statement(
            "SELECT id FROM t WHERE id = 1 OR v = 2"
        ).where
        assert len(split_conjuncts(where)) == 1


class TestPushdown:
    def test_single_table_filter_reaches_scan(self):
        optimized = optimize(plan("SELECT id FROM t WHERE v = 2 AND id > 1"))
        scans = find_scans(optimized)
        assert len(scans) == 1
        assert len(scans[0].predicates) == 2
        # The filter node disappears entirely.
        node = optimized
        while node is not None:
            assert not isinstance(node, LogicalFilter)
            node = getattr(node, "child", None)

    def test_join_predicates_split_by_side(self):
        optimized = optimize(
            plan(
                "SELECT t.id FROM t, u "
                "WHERE t.v = 1 AND u.w = 2 AND t.id = u.id"
            )
        )
        scans = {scan.alias: scan for scan in find_scans(optimized)}
        assert len(scans["t"].predicates) == 1
        assert len(scans["u"].predicates) == 1
        joins = [
            node for node in _walk(optimized) if isinstance(node, LogicalJoin)
        ]
        assert len(joins) == 1
        assert len(joins[0].predicates) == 1  # the cross-table conjunct

    def test_unqualified_columns_pushed_after_qualification(self):
        optimized = optimize(plan("SELECT id FROM t WHERE v = 2"))
        assert len(find_scans(optimized)[0].predicates) == 1


class TestPredicateOrdering:
    def test_cheap_selective_before_expensive_udf(self):
        hints = {"expensive_udf": CostHints(cost_per_call=10000.0,
                                            selectivity=0.5)}
        catalog = make_catalog()
        statement = parse_statement(
            "SELECT id FROM t WHERE expensive_udf(arr) > 5 AND id = 3"
        )

        class Resolver:
            def resolve_udf(self, name):
                if name == "expensive_udf":
                    return _FakeExecutor(), ("bytes",)
                return None

        logical = plan_select(statement, catalog, Resolver())
        optimized = optimize(logical, FakeOracle(hints))
        predicates = find_scans(optimized)[0].predicates
        assert len(predicates) == 2
        # The id = 3 conjunct must come first (lower rank).
        first = predicates[0]
        assert isinstance(first, A.BinaryOp) and first.op == "="
        assert isinstance(first.left, A.ColumnRef)

    def test_highly_selective_udf_can_run_first(self):
        # rank = (sel - 1) / cost: a nearly-always-false cheap UDF
        # (rank ~ -0.67) should beat an unselective builtin (rank -0.5).
        hints = {"expensive_udf": CostHints(cost_per_call=0.5,
                                            selectivity=0.0)}
        statement = parse_statement(
            "SELECT id FROM t WHERE expensive_udf(arr) > 5 "
            "AND v IS NOT NULL"
        )

        class Resolver:
            def resolve_udf(self, name):
                if name == "expensive_udf":
                    return _FakeExecutor(), ("bytes",)
                return None

        logical = plan_select(statement, make_catalog(), Resolver())
        optimized = optimize(logical, FakeOracle(hints))
        predicates = find_scans(optimized)[0].predicates
        assert isinstance(predicates[0], A.BinaryOp)
        assert predicates[0].op == ">"  # the UDF comparison


class TestIndexSelection:
    def test_equality_uses_index(self):
        optimized = optimize(plan("SELECT k FROM indexed WHERE k = 5"))
        scan = find_scans(optimized)[0]
        assert scan.index is not None
        assert (scan.index_lo, scan.index_hi) == (5, 5)
        assert scan.predicates == []  # conjunct absorbed

    def test_range_uses_index(self):
        optimized = optimize(plan("SELECT k FROM indexed WHERE k >= 10"))
        scan = find_scans(optimized)[0]
        assert (scan.index_lo, scan.index_hi) == (10, None)

    def test_between_uses_index(self):
        optimized = optimize(
            plan("SELECT k FROM indexed WHERE k BETWEEN 3 AND 7")
        )
        scan = find_scans(optimized)[0]
        assert (scan.index_lo, scan.index_hi) == (3, 7)

    def test_flipped_literal_comparison(self):
        optimized = optimize(plan("SELECT k FROM indexed WHERE 5 = k"))
        scan = find_scans(optimized)[0]
        assert (scan.index_lo, scan.index_hi) == (5, 5)

    def test_strict_bounds_tightened(self):
        optimized = optimize(plan("SELECT k FROM indexed WHERE k < 10"))
        scan = find_scans(optimized)[0]
        assert (scan.index_lo, scan.index_hi) == (None, 9)

    def test_unindexed_column_untouched(self):
        optimized = optimize(plan("SELECT id FROM t WHERE id = 5"))
        scan = find_scans(optimized)[0]
        assert scan.index is None
        assert len(scan.predicates) == 1

    def test_residual_predicates_kept(self):
        optimized = optimize(
            plan("SELECT k FROM indexed WHERE k = 5 AND k % 2 = 1")
        )
        scan = find_scans(optimized)[0]
        assert scan.index is not None
        assert len(scan.predicates) == 1


class _FakeExecutor:
    class definition:
        class signature:
            param_types = ("bytes",)
            ret_type = "float"


def _walk(node):
    yield node
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _walk(child)
