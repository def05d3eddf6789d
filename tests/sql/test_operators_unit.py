"""Physical operators, unit-level (fed from lists, no storage)."""

import pytest

from repro.errors import ExecutionError
from repro.sql.operators import (
    Aggregate,
    Distinct,
    Filter,
    Limit,
    NestedLoopJoin,
    PhysicalOp,
    Project,
    Sort,
)
from tests.sql.sources import Rows, column, rowwise


class TestFilterProject:
    def test_filter_requires_strict_true(self):
        # None (SQL NULL) must not pass, only True.
        source = Rows([[1], [None], [3]])
        positive = rowwise(lambda r: None if r[0] is None else r[0] > 0)
        out = list(Filter(source, [positive]).rows())
        assert out == [[1], [3]]

    def test_project_applies_in_order(self):
        source = Rows([[1, 2]])
        exprs = [column(1), rowwise(lambda r: r[0] + 10)]
        out = list(Project(source, exprs).rows())
        assert out == [[2, 11]]


class TestJoin:
    def test_cross_product_order(self):
        left = Rows([[1], [2]])
        right = Rows([["a"], ["b"]])
        out = list(NestedLoopJoin(left, right).rows())
        assert out == [[1, "a"], [1, "b"], [2, "a"], [2, "b"]]

    def test_join_predicate(self):
        left = Rows([[1], [2], [3]])
        right = Rows([[2], [3], [4]])
        equal = rowwise(lambda r: r[0] == r[1])
        out = list(NestedLoopJoin(left, right, [equal]).rows())
        assert out == [[2, 2], [3, 3]]

    def test_empty_sides(self):
        assert list(NestedLoopJoin(Rows([]), Rows([["x"]])).rows()) == []
        assert list(NestedLoopJoin(Rows([["x"]]), Rows([])).rows()) == []


class TestAggregate:
    def agg(self, rows, group_fns, specs):
        return list(Aggregate(Rows(rows), group_fns, specs).rows())

    def test_count_star_vs_count_column(self):
        rows = [[1], [None], [3]]
        out = self.agg(
            rows, [],
            [("count", None, False), ("count", column(0), False)],
        )
        assert out == [[3, 2]]

    def test_sum_avg_skip_nulls(self):
        rows = [[2.0], [None], [4.0]]
        out = self.agg(
            rows, [],
            [("sum", column(0), False), ("avg", column(0), False)],
        )
        assert out == [[6.0, 3.0]]

    def test_min_max(self):
        rows = [[5], [1], [9]]
        out = self.agg(
            rows, [],
            [("min", column(0), False), ("max", column(0), False)],
        )
        assert out == [[1, 9]]

    def test_distinct_aggregation(self):
        rows = [[1], [1], [2]]
        out = self.agg(rows, [], [("sum", column(0), True)])
        assert out == [[3.0]]

    def test_groups_preserve_first_seen_order(self):
        rows = [["b"], ["a"], ["b"], ["c"]]
        out = self.agg(
            rows, [column(0)], [("count", None, False)]
        )
        assert out == [["b", 2], ["a", 1], ["c", 1]]

    def test_empty_input_global_aggregate(self):
        out = self.agg([], [], [("count", None, False),
                                ("sum", column(0), False)])
        assert out == [[0, None]]

    def test_empty_input_grouped(self):
        out = self.agg([], [column(0)], [("count", None, False)])
        assert out == []


class TestSortDistinctLimit:
    def test_multi_key_sort_stability(self):
        rows = [[2, "x"], [1, "y"], [2, "a"], [1, "a"]]
        out = list(
            Sort(
                Rows(rows),
                [column(0), column(1)],
                [False, True],
            ).rows()
        )
        assert out == [[1, "y"], [1, "a"], [2, "x"], [2, "a"]]

    def test_nulls_sort_last_ascending(self):
        rows = [[None], [2], [1]]
        out = list(Sort(Rows(rows), [column(0)], [False]).rows())
        assert out == [[1], [2], [None]]

    def test_distinct_hashable(self):
        rows = [[1, "a"], [1, "a"], [2, "a"]]
        out = list(Distinct(Rows(rows)).rows())
        assert out == [[1, "a"], [2, "a"]]

    def test_distinct_bytearray_normalized(self):
        rows = [[bytearray(b"x")], [bytearray(b"x")]]
        out = list(Distinct(Rows(rows)).rows())
        assert len(out) == 1

    def test_distinct_unhashable_raises(self):
        rows = [[["list"]]]
        with pytest.raises(ExecutionError):
            list(Distinct(Rows(rows)).rows())

    def test_limit(self):
        rows = [[i] for i in range(10)]
        assert len(list(Limit(Rows(rows), 3).rows())) == 3
        assert list(Limit(Rows(rows), 0).rows()) == []
        assert len(list(Limit(Rows(rows), 99).rows())) == 10

    def test_limit_does_not_overconsume(self):
        consumed = []

        class Counting(PhysicalOp):
            def batches(self):
                for i in range(10):
                    consumed.append(i)
                    yield [[i]]

        list(Limit(Counting(), 2).rows())
        assert len(consumed) == 2
