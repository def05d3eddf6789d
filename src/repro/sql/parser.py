"""Recursive-descent SQL parser.

Produces :mod:`repro.sql.ast_nodes` trees.  The grammar is classic SQL
plus this system's extensibility DDL::

    CREATE FUNCTION name(param_type, ...) RETURNS type
        LANGUAGE {NATIVE | JAGUAR}
        DESIGN {INTEGRATED | SFI | ISOLATED | SANDBOX | SANDBOX_INTERP
                | SANDBOX_ISOLATED}
        [ENTRY 'function_name']
        [CALLBACKS 'cb_a', 'cb_b']
        [COST n] [SELECTIVITY x] [FUEL n] [MEMORY n]
        AS 'payload'

which is how the paper's users register UDFs (the payload being
JagScript source or a classfile migrated from the client).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ParseError, PlanError
from . import ast_nodes as A
from .lexer import Token, TokenType, tokenize
from .types import ColumnDef, SQLType, sql_type_from_name

_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}

_SLOT_TYPES = {
    TokenType.INT: SQLType.INT,
    TokenType.FLOAT: SQLType.FLOAT,
    TokenType.STRING: SQLType.STRING,
}

#: SQL design names -> repro.core.designs.Design values.
DESIGN_NAMES = {
    "integrated": "native_integrated",
    "sfi": "native_sfi",
    "isolated": "native_isolated",
    "sandbox": "sandbox_jit",
    "sandbox_jit": "sandbox_jit",
    "sandbox_interp": "sandbox_interp",
    "sandbox_isolated": "sandbox_isolated",
}

def parse_statement(text: str) -> A.Statement:
    """Parse exactly one statement."""
    return parse_tokens(tokenize(text))


def parse_tokens(
    tokens: List[Token], slots: Optional[Dict[int, int]] = None
) -> A.Statement:
    """Parse exactly one statement from its tokens.

    ``slots`` (from :func:`~repro.sql.lexer.shape`) maps token indexes to
    slot numbers; each such literal becomes an :class:`A.Slot`, which
    makes the statement its shape's template.  Everything else parses as
    it would without them, errors included.
    """
    parser = _Parser(tokens, slots or {})
    statement = parser.statement()
    parser.accept_op(";")
    parser.expect_eof()
    return statement


def parse_script(text: str) -> List[A.Statement]:
    """Parse a semicolon-separated script."""
    parser = _Parser(tokenize(text), {})
    statements: List[A.Statement] = []
    while not parser.at_eof():
        statements.append(parser.statement())
        if not parser.accept_op(";"):
            break
    parser.expect_eof()
    return statements


class _Parser:
    def __init__(self, tokens: List[Token], slots: Dict[int, int]):
        self.tokens = tokens
        self.slots = slots
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.current.type is TokenType.EOF

    def error(self, message: str) -> ParseError:
        return ParseError(
            f"{message} (near {self.current.value!r})", self.current.position
        )

    def accept_kw(self, *words: str) -> Optional[str]:
        if self.current.type is TokenType.KEYWORD and self.current.value in words:
            return self.advance().value
        return None

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise self.error(f"expected {word.upper()}")

    def accept_op(self, op: str) -> bool:
        if self.current.matches(TokenType.OP, op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}")

    def expect_ident(self) -> str:
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        # Non-reserved use of soft keywords as identifiers.
        if self.current.type is TokenType.KEYWORD and self.current.value in (
            "count", "sum", "avg", "min", "max", "language", "design",
            "entry", "cost", "selectivity", "fuel", "memory", "index",
        ):
            return self.advance().value
        raise self.error("expected identifier")

    def expect_string(self) -> str:
        if self.current.type is TokenType.STRING:
            return self.advance().value
        raise self.error("expected string literal")

    def expect_int(self) -> int:
        if self.current.type is TokenType.INT:
            return int(self.advance().value)
        raise self.error("expected integer literal")

    def expect_number(self) -> float:
        if self.current.type in (TokenType.INT, TokenType.FLOAT):
            return float(self.advance().value)
        raise self.error("expected numeric literal")

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    # -- statements --------------------------------------------------------------

    def statement(self) -> A.Statement:
        if self.accept_kw("explain"):
            analyze = bool(self.accept_kw("analyze"))
            self.expect_kw("select")
            return A.Explain(self.select(), analyze=analyze)
        if self.accept_kw("select"):
            return self.select()
        if self.accept_kw("create"):
            if self.accept_kw("table"):
                return self.create_table()
            if self.accept_kw("index"):
                return self.create_index()
            if self.accept_kw("function"):
                return self.create_function()
            raise self.error("expected TABLE, INDEX, or FUNCTION")
        if self.accept_kw("drop"):
            if self.accept_kw("table"):
                return A.DropTable(self.expect_ident())
            if self.accept_kw("function"):
                return A.DropFunction(self.expect_ident())
            raise self.error("expected TABLE or FUNCTION")
        if self.accept_kw("insert"):
            return self.insert()
        if self.accept_kw("update"):
            return self.update()
        if self.accept_kw("delete"):
            return self.delete()
        raise self.error("expected a statement")

    def select(self) -> A.Select:
        distinct = bool(self.accept_kw("distinct"))
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())
        self.expect_kw("from")
        tables = [self.table_ref()]
        join_conditions: List[A.Expr] = []
        while True:
            if self.accept_op(","):
                tables.append(self.table_ref())
            elif self.accept_kw("cross"):
                self.expect_kw("join")
                tables.append(self.table_ref())
            elif self.accept_kw("inner") or self.accept_kw("join"):
                # INNER JOIN or bare JOIN; the INNER path still needs JOIN.
                if self.tokens[self.pos - 1].value == "inner":
                    self.expect_kw("join")
                tables.append(self.table_ref())
                self.expect_kw("on")
                join_conditions.append(self.expr())
            else:
                break
        where = self.expr() if self.accept_kw("where") else None
        for condition in join_conditions:
            where = (
                condition if where is None
                else A.BinaryOp("and", where, condition)
            )
        group_by: Tuple[A.Expr, ...] = ()
        if self.accept_kw("group"):
            self.expect_kw("by")
            exprs = [self.expr()]
            while self.accept_op(","):
                exprs.append(self.expr())
            group_by = tuple(exprs)
        order_by: Tuple[A.OrderItem, ...] = ()
        if self.accept_kw("order"):
            self.expect_kw("by")
            orders = [self.order_item()]
            while self.accept_op(","):
                orders.append(self.order_item())
            order_by = tuple(orders)
        limit = None
        if self.accept_kw("limit"):
            limit = self.expect_int()
        return A.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def select_item(self) -> A.SelectItem:
        if self.accept_op("*"):
            return A.SelectItem(A.Star())
        expr = self.expr()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return A.SelectItem(expr, alias)

    def table_ref(self) -> A.TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return A.TableRef(name, alias)

    def order_item(self) -> A.OrderItem:
        expr = self.expr()
        descending = False
        if self.accept_kw("desc"):
            descending = True
        else:
            self.accept_kw("asc")
        return A.OrderItem(expr, descending)

    def create_table(self) -> A.CreateTable:
        name = self.expect_ident()
        self.expect_op("(")
        columns = [self.column_def()]
        while self.accept_op(","):
            columns.append(self.column_def())
        self.expect_op(")")
        return A.CreateTable(name, tuple(columns))

    def column_def(self) -> ColumnDef:
        name = self.expect_ident()
        type_name = self.expect_ident()
        sql_type = sql_type_from_name(type_name)
        if not sql_type.row.storable:
            raise PlanError(f"type {type_name!r} is not storable")
        nullable = True
        if self.accept_kw("not"):
            self.expect_kw("null")
            nullable = False
        elif self.accept_kw("null"):
            pass
        return ColumnDef(name, sql_type, nullable)

    def create_index(self) -> A.CreateIndex:
        name = self.expect_ident()
        self.expect_kw("on")
        table = self.expect_ident()
        self.expect_op("(")
        column = self.expect_ident()
        self.expect_op(")")
        return A.CreateIndex(name, table, column)

    def insert(self) -> A.Insert:
        self.expect_kw("into")
        table = self.expect_ident()
        columns: Tuple[str, ...] = ()
        if self.accept_op("("):
            names = [self.expect_ident()]
            while self.accept_op(","):
                names.append(self.expect_ident())
            self.expect_op(")")
            columns = tuple(names)
        self.expect_kw("values")
        rows = [self.value_tuple()]
        while self.accept_op(","):
            rows.append(self.value_tuple())
        return A.Insert(table, columns, tuple(rows))

    def value_tuple(self) -> Tuple[A.Expr, ...]:
        self.expect_op("(")
        values = [self.expr()]
        while self.accept_op(","):
            values.append(self.expr())
        self.expect_op(")")
        return tuple(values)

    def update(self) -> A.Update:
        table = self.expect_ident()
        self.expect_kw("set")
        assignments = [self.assignment()]
        while self.accept_op(","):
            assignments.append(self.assignment())
        where = self.expr() if self.accept_kw("where") else None
        return A.Update(table, tuple(assignments), where)

    def assignment(self) -> Tuple[str, A.Expr]:
        name = self.expect_ident()
        self.expect_op("=")
        return name, self.expr()

    def delete(self) -> A.Delete:
        self.expect_kw("from")
        table = self.expect_ident()
        where = self.expr() if self.accept_kw("where") else None
        return A.Delete(table, where)

    def create_function(self) -> A.CreateFunction:
        name = self.expect_ident()
        self.expect_op("(")
        param_types: List[str] = []
        if not self.accept_op(")"):
            param_types.append(self.udf_type())
            while self.accept_op(","):
                param_types.append(self.udf_type())
            self.expect_op(")")
        self.expect_kw("returns")
        ret_type = self.udf_type()
        self.expect_kw("language")
        language = self.expect_ident().lower()
        if language not in ("native", "jaguar"):
            raise self.error("LANGUAGE must be NATIVE or JAGUAR")
        self.expect_kw("design")
        design_word = self.expect_ident().lower()
        design = DESIGN_NAMES.get(design_word)
        if design is None:
            raise self.error(
                f"unknown DESIGN {design_word!r} "
                f"(one of {sorted(DESIGN_NAMES)})"
            )
        entry = None
        callbacks: Tuple[str, ...] = ()
        cost = selectivity = None
        fuel = memory = None
        while True:
            if self.accept_kw("entry"):
                entry = self.expect_string()
            elif self.accept_kw("callbacks"):
                names = [self.expect_string()]
                while self.accept_op(","):
                    names.append(self.expect_string())
                callbacks = tuple(names)
            elif self.accept_kw("cost"):
                cost = self.expect_number()
            elif self.accept_kw("selectivity"):
                selectivity = self.expect_number()
            elif self.accept_kw("fuel"):
                fuel = self.expect_int()
            elif self.accept_kw("memory"):
                memory = self.expect_int()
            else:
                break
        self.expect_kw("as")
        payload = self.expect_string()
        return A.CreateFunction(
            name=name,
            param_types=tuple(param_types),
            ret_type=ret_type,
            language=language,
            design=design,
            payload=payload,
            entry=entry,
            callbacks=callbacks,
            cost=cost,
            selectivity=selectivity,
            fuel=fuel,
            memory=memory,
        )

    def udf_type(self) -> str:
        """A UDF parameter or result type: its persisted UDF name."""
        word = self.expect_ident().lower()
        try:
            resolved = SQLType(word).row.udf_name
        except ValueError:
            resolved = None
        if resolved is None:
            raise self.error(f"unknown UDF type {word!r}")
        return resolved

    # -- expressions ------------------------------------------------------------

    def expr(self) -> A.Expr:
        return self.or_expr()

    def or_expr(self) -> A.Expr:
        left = self.and_expr()
        while self.accept_kw("or"):
            left = A.BinaryOp("or", left, self.and_expr())
        return left

    def and_expr(self) -> A.Expr:
        left = self.not_expr()
        while self.accept_kw("and"):
            left = A.BinaryOp("and", left, self.not_expr())
        return left

    def not_expr(self) -> A.Expr:
        if self.accept_kw("not"):
            return A.UnaryOp("not", self.not_expr())
        return self.predicate()

    def predicate(self) -> A.Expr:
        left = self.additive()
        if self.current.type is TokenType.OP and self.current.value in _COMPARISONS:
            op = self.advance().value
            if op == "<>":
                op = "!="
            return A.BinaryOp(op, left, self.additive())
        if self.accept_kw("is"):
            negated = bool(self.accept_kw("not"))
            self.expect_kw("null")
            return A.IsNull(left, negated)
        negated = bool(self.accept_kw("not"))
        if self.accept_kw("between"):
            low = self.additive()
            self.expect_kw("and")
            high = self.additive()
            return A.Between(left, low, high, negated)
        if self.accept_kw("in"):
            self.expect_op("(")
            items = [self.expr()]
            while self.accept_op(","):
                items.append(self.expr())
            self.expect_op(")")
            return A.InList(left, tuple(items), negated)
        if self.accept_kw("like"):
            return _negate_if(
                A.BinaryOp("like", left, self.additive()), negated
            )
        if negated:
            raise self.error("expected BETWEEN, IN, or LIKE after NOT")
        return left

    def additive(self) -> A.Expr:
        left = self.multiplicative()
        while self.current.type is TokenType.OP and self.current.value in "+-":
            op = self.advance().value
            left = A.BinaryOp(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> A.Expr:
        left = self.unary()
        while self.current.type is TokenType.OP and self.current.value in ("*", "/", "%"):
            op = self.advance().value
            left = A.BinaryOp(op, left, self.unary())
        return left

    def unary(self) -> A.Expr:
        if self.accept_op("-"):
            return A.UnaryOp("-", self.unary())
        if self.accept_op("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> A.Expr:
        token = self.current
        slot = self.slots.get(self.pos)
        if slot is not None:
            self.advance()
            return A.Slot(slot, _SLOT_TYPES[token.type])
        if token.type is TokenType.INT:
            self.advance()
            return A.Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self.advance()
            return A.Literal(float(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return A.Literal(token.value)
        if self.accept_kw("true"):
            return A.Literal(True)
        if self.accept_kw("false"):
            return A.Literal(False)
        if self.accept_kw("null"):
            return A.Literal(None)
        if self.accept_op("("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            return self.name_or_call()
        raise self.error("expected an expression")

    def name_or_call(self) -> A.Expr:
        aggregates = ("count", "sum", "avg", "min", "max")
        if (
            self.current.type is TokenType.KEYWORD
            and self.current.value in aggregates
        ):
            name = self.advance().value
            self.expect_op("(")
            return self.finish_call(name)
        name = self.expect_ident()
        if self.accept_op("("):
            return self.finish_call(name)
        if self.accept_op("."):
            if self.accept_op("*"):
                return A.Star(table=name)
            column = self.expect_ident()
            return A.ColumnRef(column, table=name)
        return A.ColumnRef(name)

    def finish_call(self, name: str) -> A.FuncCall:
        if self.accept_op("*"):
            self.expect_op(")")
            return A.FuncCall(name, (), star=True)
        distinct = bool(self.accept_kw("distinct"))
        args: List[A.Expr] = []
        if not self.accept_op(")"):
            args.append(self.expr())
            while self.accept_op(","):
                args.append(self.expr())
            self.expect_op(")")
        return A.FuncCall(name, tuple(args), distinct=distinct)


def _negate_if(expr: A.Expr, negated: bool) -> A.Expr:
    return A.UnaryOp("not", expr) if negated else expr
