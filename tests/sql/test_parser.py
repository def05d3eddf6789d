"""SQL parser: statement shapes and failure modes."""

import pytest

from repro.errors import ParseError, PlanError
from repro.sql import ast_nodes as A
from repro.sql.parser import parse_script, parse_statement
from repro.sql.types import SQLType
from repro.types import TYPES

#: Every SQL spelling of a storable type, from the type table.
COLUMN_SPELLINGS = [
    (spelling, row.sql_type)
    for row in TYPES.values() if row.storable
    for spelling in row.spellings
]


class TestSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, A.Select)
        assert len(stmt.items) == 2
        assert stmt.tables == (A.TableRef("t"),)

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, A.Star)

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.items[0].expr == A.Star(table="t")

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.tables[0].alias == "u"

    def test_where_precedence(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3"
        )
        where = stmt.where
        assert isinstance(where, A.BinaryOp) and where.op == "or"
        assert isinstance(where.right, A.BinaryOp)
        assert where.right.op == "and"

    def test_arith_precedence(self):
        stmt = parse_statement("SELECT 1 + 2 * 3 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_group_order_limit(self):
        stmt = parse_statement(
            "SELECT a, count(*) FROM t GROUP BY a "
            "ORDER BY a DESC, b LIMIT 5"
        )
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.limit == 5

    def test_join_on_folded_into_where(self):
        stmt = parse_statement(
            "SELECT a FROM t JOIN u ON t.x = u.y WHERE t.z = 1"
        )
        assert len(stmt.tables) == 2
        # WHERE and ON are ANDed.
        assert isinstance(stmt.where, A.BinaryOp)
        assert stmt.where.op == "and"

    def test_cross_join_and_comma(self):
        first = parse_statement("SELECT a FROM t, u")
        second = parse_statement("SELECT a FROM t CROSS JOIN u")
        assert first.tables == second.tables

    def test_predicates(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE a IS NOT NULL AND b BETWEEN 1 AND 5 "
            "AND c IN (1, 2) AND d LIKE 'x%' AND NOT e NOT IN (3)"
        )
        assert stmt.where is not None

    def test_distinct_and_agg_distinct(self):
        stmt = parse_statement("SELECT DISTINCT count(DISTINCT a) FROM t")
        assert stmt.distinct
        assert stmt.items[0].expr.distinct

    def test_udf_call(self):
        stmt = parse_statement(
            "SELECT InvestVal(s.history) FROM stocks s "
            "WHERE s.type = 'tech' AND InvestVal(s.history) > 5"
        )
        call = stmt.items[0].expr
        assert isinstance(call, A.FuncCall)
        assert call.name == "investval"

    def test_unary_and_literals(self):
        stmt = parse_statement(
            "SELECT -a, +b, 1.5, 'x', TRUE, FALSE, NULL FROM t"
        )
        assert isinstance(stmt.items[0].expr, A.UnaryOp)
        values = [item.expr for item in stmt.items[2:]]
        assert [v.value for v in values] == [1.5, "x", True, False, None]


class TestDDL:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INT NOT NULL, name VARCHAR, "
            "img BYTEARRAY, hist TIMESERIES)"
        )
        assert isinstance(stmt, A.CreateTable)
        assert stmt.columns[0].sql_type is SQLType.INT
        assert not stmt.columns[0].nullable
        assert stmt.columns[2].sql_type is SQLType.BYTES
        assert stmt.columns[3].sql_type is SQLType.FLOATARR

    @pytest.mark.parametrize("spelling, sql_type", COLUMN_SPELLINGS)
    def test_one_set_of_spellings_everywhere(self, spelling, sql_type):
        """A spelling names the same type in a column and in a UDF
        signature, where it becomes the type's persisted UDF name."""
        table = parse_statement(f"CREATE TABLE s (a {spelling.upper()})")
        assert table.columns[0].sql_type is sql_type
        function = parse_statement(
            f"CREATE FUNCTION f({spelling}) RETURNS {spelling} "
            "LANGUAGE JAGUAR DESIGN SANDBOX AS 'x'"
        )
        assert function.param_types == (sql_type.row.udf_name,)
        assert function.ret_type == sql_type.row.udf_name

    def test_udf_spellings_name_columns(self):
        stmt = parse_statement("CREATE TABLE s (a str, b farr, c bytes)")
        assert [c.sql_type for c in stmt.columns] == [
            SQLType.STRING, SQLType.FLOATARR, SQLType.BYTES,
        ]
        stmt = parse_statement(
            "CREATE FUNCTION f(string, bytea) RETURNS integer "
            "LANGUAGE JAGUAR DESIGN SANDBOX AS 'x'"
        )
        assert (stmt.param_types, stmt.ret_type) == (("str", "bytes"), "int")

    def test_handle_is_not_storable(self):
        with pytest.raises(PlanError, match="not storable"):
            parse_statement("CREATE TABLE s (h HANDLE)")

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX i ON t(id)")
        assert stmt == A.CreateIndex("i", "t", "id")

    def test_drop(self):
        assert parse_statement("DROP TABLE t") == A.DropTable("t")
        assert parse_statement("DROP FUNCTION f") == A.DropFunction("f")

    def test_create_function_full(self):
        stmt = parse_statement(
            "CREATE FUNCTION redness(handle, int) RETURNS float "
            "LANGUAGE JAGUAR DESIGN SANDBOX ENTRY 'main' "
            "CALLBACKS 'cb_lob_read', 'cb_lob_length' "
            "COST 500 SELECTIVITY 0.2 FUEL 1000000 MEMORY 65536 "
            "AS 'def main(h: int, t: int) -> float: return 0.0'"
        )
        assert isinstance(stmt, A.CreateFunction)
        assert stmt.param_types == ("handle", "int")
        assert stmt.ret_type == "float"
        assert stmt.language == "jaguar"
        assert stmt.design == "sandbox_jit"
        assert stmt.entry == "main"
        assert stmt.callbacks == ("cb_lob_read", "cb_lob_length")
        assert stmt.cost == 500
        assert stmt.selectivity == 0.2
        assert stmt.fuel == 1000000
        assert stmt.memory == 65536

    def test_create_function_native(self):
        stmt = parse_statement(
            "CREATE FUNCTION g(bytes, int, int, int) RETURNS int "
            "LANGUAGE NATIVE DESIGN ISOLATED AS 'pkg.mod:fn'"
        )
        assert stmt.design == "native_isolated"


class TestDML:
    def test_insert(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        stmt = parse_statement("INSERT INTO t VALUES (1)")
        assert stmt.columns == ()

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = a + 1, b = 2 WHERE c = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert stmt.table == "t"


class TestScripts:
    def test_multi_statement(self):
        statements = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT a FROM t;"
        )
        assert len(statements) == 3

    def test_empty_tail_ok(self):
        assert len(parse_script("SELECT 1 FROM t")) == 1


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "CREATE TABLE t",
            "CREATE TABLE t (a NOSUCHTYPE)",
            "INSERT t VALUES (1)",
            "SELECT a FROM t GROUP a",
            "CREATE FUNCTION f() RETURNS int LANGUAGE COBOL DESIGN SANDBOX AS 'x'",
            "CREATE FUNCTION f() RETURNS int LANGUAGE JAGUAR DESIGN MAGIC AS 'x'",
            "SELECT a FROM t LIMIT 'x'",
            "SELECT a FROM t alias garbage",
            "DELETE t",
        ],
    )
    def test_rejected(self, sql):
        with pytest.raises(Exception) as info:
            parse_statement(sql)
        assert isinstance(info.value, ParseError) or "PlanError" in type(info.value).__name__
