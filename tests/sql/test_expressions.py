"""Expression compilation: nulls, operators, builtins."""

import pytest

from repro.database import Database
from repro.errors import ExecutionError, PlanError
from repro.sql import ast_nodes as A
from repro.sql.expressions import compile_expr, infer_type
from repro.sql.parser import parse_statement
from repro.sql.types import RowSchema, SchemaColumn, SQLType


def schema():
    return RowSchema(
        [
            SchemaColumn("t", "a", SQLType.INT),
            SchemaColumn("t", "b", SQLType.FLOAT),
            SchemaColumn("t", "s", SQLType.STRING),
            SchemaColumn("t", "flag", SQLType.BOOL),
        ]
    )


def evaluate(sql_expr, row):
    stmt = parse_statement(f"SELECT {sql_expr} FROM t")
    fn = compile_expr(stmt.items[0].expr, schema())
    return fn([row])[0]


ROW = [10, 2.5, "hello", True]


class TestOperators:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("a + 1", 11),
            ("a - 1", 9),
            ("a * 2", 20),
            ("a / 4", 2),          # int / int is integer division
            ("b / 2", 1.25),
            ("a % 3", 1),
            ("-a", -10),
            ("a = 10", True),
            ("a != 10", False),
            ("a < 11", True),
            ("a >= 10", True),
            ("s = 'hello'", True),
            ("s LIKE 'he%'", True),
            ("s LIKE 'h_llo'", True),
            ("s LIKE 'x%'", False),
            ("a BETWEEN 5 AND 15", True),
            ("a NOT BETWEEN 5 AND 15", False),
            ("a IN (1, 10, 100)", True),
            ("a NOT IN (1, 2)", True),
            ("a IS NULL", False),
            ("a IS NOT NULL", True),
            ("a > 5 AND b < 3.0", True),
            ("a > 50 OR flag", True),
            ("NOT flag", False),
        ],
    )
    def test_value(self, expr, expected):
        assert evaluate(expr, ROW) == expected

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("a / 0", ROW)


class TestNullSemantics:
    NULL_ROW = [None, None, None, None]

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("a + 1", None),
            ("a = 1", None),
            ("a IS NULL", True),
            ("a IS NOT NULL", False),
            ("a BETWEEN 1 AND 2", None),
            ("s LIKE 'x'", None),
            ("a IN (1, 2)", None),
        ],
    )
    def test_null_propagation(self, expr, expected):
        assert evaluate(expr, self.NULL_ROW) == expected

    def test_kleene_and(self):
        # NULL AND FALSE is FALSE; NULL AND TRUE is NULL.
        assert evaluate("a = 1 AND 1 = 2", self.NULL_ROW) is False
        assert evaluate("a = 1 AND 1 = 1", self.NULL_ROW) is None

    def test_kleene_or(self):
        assert evaluate("a = 1 OR 1 = 1", self.NULL_ROW) is True
        assert evaluate("a = 1 OR 1 = 2", self.NULL_ROW) is None

    def test_not_null(self):
        assert evaluate("NOT (a = 1)", self.NULL_ROW) is None


SEEN = []


def seen(x):
    """Native UDF payload: the identity, recording each invocation."""
    SEEN.append(x)
    return x


class TestInIsLazy:
    """An IN item is evaluated only over the rows whose operand is
    non-NULL and that no earlier item matched, whether or not a UDF
    call sits on the operand."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        for value in (0, 2, 5):
            db.execute(f"INSERT INTO t VALUES ({value})")
        db.execute(
            "CREATE FUNCTION same(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def same(x: int) -> int:\n    return x'"
        )
        db.execute(
            "CREATE FUNCTION seen(int) RETURNS int LANGUAGE NATIVE "
            "DESIGN INTEGRATED AS 'tests.sql.test_expressions:seen'"
        )
        return db

    @pytest.mark.parametrize("operand", ["a", "same(a)"])
    def test_item_after_a_match_is_not_evaluated(self, db, operand):
        result = db.execute(f"SELECT a FROM t WHERE {operand} IN (0, 10 / a)")
        assert result.rows == [(0,)]

    @pytest.mark.parametrize("operand", ["a", "same(a)"])
    def test_udf_item_sees_only_undecided_rows(self, db, operand):
        SEEN.clear()
        result = db.execute(
            f"SELECT a FROM t WHERE {operand} IN (0, seen(a) - 3, 5)"
        )
        assert result.rows == [(0,), (5,)]
        assert SEEN == [2, 5]

    def test_null_operand_evaluates_no_item(self, db):
        db.execute("INSERT INTO t VALUES (NULL)")
        SEEN.clear()
        result = db.execute("SELECT a FROM t WHERE same(a) IN (seen(a))")
        assert result.rows == [(0,), (2,), (5,)]
        assert SEEN == [0, 2, 5]


class TestBuiltins:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("abs(-5)", 5),
            ("length(s)", 5),
            ("upper(s)", "HELLO"),
            ("lower('ABC')", "abc"),
            ("sqrt(4.0)", 2.0),
            ("floor(2.7)", 2),
            ("ceil(2.2)", 3),
            ("round(2.5)", 2),
            ("length(zerobytes(10))", 10),
            ("length(patbytes(16, 3))", 16),
        ],
    )
    def test_value(self, expr, expected):
        assert evaluate(expr, ROW) == expected

    def test_patbytes_deterministic(self):
        assert evaluate("patbytes(8, 5)", ROW) == evaluate("patbytes(8, 5)", ROW)

    def test_wrong_arity(self):
        with pytest.raises(PlanError, match="argument"):
            evaluate("abs(1, 2)", ROW)

    def test_unknown_function(self):
        with pytest.raises(PlanError, match="unknown function"):
            evaluate("frobnicate(1)", ROW)

    def test_aggregate_outside_aggregation_rejected(self):
        with pytest.raises(PlanError, match="aggregate"):
            compile_expr(
                parse_statement("SELECT a FROM t WHERE count(*) > 1").where,
                schema(),
            )


class TestColumnResolution:
    def test_qualified(self):
        assert evaluate("t.a", ROW) == 10

    def test_unknown_column(self):
        with pytest.raises(PlanError, match="unknown column"):
            evaluate("zzz", ROW)

    def test_ambiguous(self):
        two = RowSchema(
            [
                SchemaColumn("x", "a", SQLType.INT),
                SchemaColumn("y", "a", SQLType.INT),
            ]
        )
        with pytest.raises(PlanError, match="ambiguous"):
            compile_expr(A.ColumnRef("a"), two)


class TestTypeInference:
    def test_literals(self):
        sch = schema()
        assert infer_type(A.Literal(1), sch) is SQLType.INT
        assert infer_type(A.Literal(1.5), sch) is SQLType.FLOAT
        assert infer_type(A.Literal("x"), sch) is SQLType.STRING
        assert infer_type(A.Literal(True), sch) is SQLType.BOOL

    def test_arith_promotion(self):
        sch = schema()
        expr = parse_statement("SELECT a + b FROM t").items[0].expr
        assert infer_type(expr, sch) is SQLType.FLOAT
        expr = parse_statement("SELECT a + 1 FROM t").items[0].expr
        assert infer_type(expr, sch) is SQLType.INT

    def test_comparisons_are_bool(self):
        expr = parse_statement("SELECT a > 1 FROM t").items[0].expr
        assert infer_type(expr, schema()) is SQLType.BOOL
