"""Differential test: compiled expressions vs a per-row reference.

Hypothesis draws well-typed expressions over NULL-bearing INT, FLOAT
and STRING rows: arithmetic (``/`` and ``%`` by zero included),
comparisons, AND/OR/NOT, IS NULL, BETWEEN, IN, CASE, LIKE, the builtins
and a UDF call site over a counting, non-pure fake executor.  The
compiled batch -> column form runs at batch sizes 1, 7 and 64; the
tree-walking evaluator below, one row at a time, is the reference.
Every size must return the reference's values, or raise the same
exception class, and — when nothing trapped — invoke the fake UDF on
exactly as many rows.
"""

import math
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ArithmeticFault, ExecutionError
from repro.sql import ast_nodes as A
from repro.sql.expressions import FunctionResolver, compile_expr
from repro.sql.types import RowSchema, SchemaColumn, SQLType
from repro.vm.values import f2i, idiv, imod, wrap_int

COLUMNS = (("i", SQLType.INT), ("j", SQLType.INT), ("f", SQLType.FLOAT),
           ("s", SQLType.STRING))
SCHEMA = RowSchema([SchemaColumn("t", name, kind) for name, kind in COLUMNS])
INDEX = {name: index for index, (name, __) in enumerate(COLUMNS)}
BATCH_SIZES = (1, 7, 64)

#: Every row over these values (NULL in each column): one draw per row.
ROWS = [
    [i, j, f, s]
    for i in (None, -3, -1, 0, 1, 2, 3)
    for j in (None, -2, 0, 1, 3)
    for f in (None, -2.5, -1.0, 0.0, 0.5, 3.0)
    for s in (None, "", "a", "ab", "ba", "abc")
]
PATTERNS = ["a%", "%b", "_", "%", "a_c", ""]
#: Up to 40 rows, the count drawn uniformly, so most tables span
#: several batches of 7 with a ragged tail.
TABLES = st.integers(0, 40).flatmap(
    lambda n: st.lists(st.sampled_from(ROWS), min_size=n, max_size=n))


# -- the fake UDF --------------------------------------------------------------

def bump(x):
    """The fake UDF's body."""
    return x * 2 + 1


class CountingExecutor:
    """A non-pure executor (no definition, so no memo) counting rows."""

    def __init__(self):
        self.calls = 0

    def invoke_batch(self, args_list):
        self.calls += len(args_list)
        return [bump(*args) for args in args_list]


class Resolver(FunctionResolver):
    def __init__(self, executor):
        self.executor = executor

    def resolve_udf(self, name):
        return (self.executor, ["int"]) if name == "bump" else None


# -- expressions ---------------------------------------------------------------

_NULL = A.Literal(None)
#: Columns and literals per result type, one leaf in six a NULL.
_LEAVES = {
    kind: st.sampled_from(values + [_NULL])
    for kind, values in {
        "int": [A.ColumnRef("i"), A.ColumnRef("j"), A.ColumnRef("i"),
                A.Literal(0), A.Literal(2), A.Literal(-3)],
        "float": [A.ColumnRef("f"), A.ColumnRef("f"), A.Literal(-1.5),
                  A.Literal(0.0), A.Literal(2.0)],
        "str": [A.ColumnRef("s"), A.ColumnRef("s"), A.Literal("a"),
                A.Literal("ab"), A.Literal("z")],
        "bool": [A.Literal(True), A.Literal(False), A.Literal(True),
                 A.Literal(False), A.Literal(False)],
    }.items()
}
_LEAF = st.sampled_from([False, False, False, False, True])


@st.composite
def exprs(draw, kind, depth=4):
    """An expression of result type ``kind``: one node in five is a
    leaf, and every node at ``depth`` 0 is."""
    if depth == 0 or draw(_LEAF):
        return draw(_LEAVES[kind])

    def sub(sub_kind):
        return draw(exprs(sub_kind, depth - 1))

    shape = draw(_SHAPE_OF[kind])
    if shape == "case":
        whens = tuple(
            (sub("bool"), sub(kind))
            for __ in range(draw(st.integers(1, 2)))
        )
        default = sub(kind) if draw(st.booleans()) else None
        return A.Case(whens, default)
    if shape == "arith":
        op = draw(st.sampled_from(["+", "-", "*", "/", "/", "%"]))
        other = kind if kind == "int" else draw(st.sampled_from(
            ["int", "float"]))
        return A.BinaryOp(op, sub(kind), sub(other))
    if shape == "neg":
        return A.UnaryOp("-", sub(kind))
    if shape == "bump":
        return A.FuncCall("bump", (sub("int"),))
    if shape == "compare":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        operands = draw(st.sampled_from(["int", "int", "float", "str"]))
        return A.BinaryOp(op, sub(operands), sub(operands))
    if shape in ("and", "or"):
        return A.BinaryOp(shape, sub("bool"), sub("bool"))
    if shape == "not":
        return A.UnaryOp("not", sub("bool"))
    if shape == "isnull":
        return A.IsNull(sub(draw(_KIND)),
                        negated=draw(st.booleans()))
    if shape == "between":
        return A.Between(sub("int"), sub("int"), sub("int"),
                         negated=draw(st.booleans()))
    if shape == "in":
        items = tuple(sub("int") for __ in range(draw(st.integers(1, 3))))
        return A.InList(sub("int"), items, negated=draw(st.booleans()))
    if shape == "like":
        pattern = (A.Literal(draw(st.sampled_from(PATTERNS)))
                   if draw(st.booleans()) else sub("str"))
        return A.BinaryOp("like", sub("str"), pattern)
    name, arg_kinds = shape
    return A.FuncCall(name, tuple(sub(arg) for arg in arg_kinds))


#: Node shapes per result type.  The guards (AND, OR, IN, CASE), the
#: trapping arithmetic and the UDF call are weighted up, so a trap or a
#: call often sits behind a guard.
_SHAPES = {
    "int": ["arith", "arith", "arith", "bump", "bump", "bump", "neg", "case",
            ("abs", ["int"]),
            ("length", ["str"]), ("floor", ["float"]), ("ceil", ["float"]),
            ("round", ["float"]), ("idiv", ["int", "int"]),
            ("imod", ["int", "int"]), ("wrap64", ["int"]),
            ("trunc", ["float"])],
    "float": ["arith", "neg", "case", ("float", ["int"]), ("abs", ["float"])],
    "str": ["case", ("upper", ["str"]), ("lower", ["str"])],
    "bool": ["and", "or", "in", "case", "compare", "compare", "not",
             "isnull", "between", "like"],
}
_SHAPE_OF = {kind: st.sampled_from(shapes) for kind, shapes in _SHAPES.items()}
_KIND = st.sampled_from(list(_SHAPES))


# -- the reference ---------------------------------------------------------------

def _vm(primitive):
    def call(*args):
        try:
            return primitive(*args)
        except ArithmeticFault as exc:
            raise ExecutionError(str(exc)) from None
    return call


def _divide(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


def _modulo(a, b):
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


def _like(value, pattern):
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char)
        for char in pattern
    )
    return re.fullmatch(regex, value, re.DOTALL) is not None


STRICT_BINARY = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": _divide, "%": _modulo,
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "like": _like,
}

BUILTINS = {
    "abs": abs, "length": len, "upper": str.upper, "lower": str.lower,
    "floor": math.floor, "ceil": math.ceil, "round": round, "float": float,
    "idiv": _vm(idiv), "imod": _vm(imod), "wrap64": wrap_int,
    "trunc": _vm(f2i),
}


def evaluate(expr, row, counter):
    """One row, one node at a time: each operand is evaluated only when
    the node needs it, left to right."""
    def ev(node):
        return evaluate(node, row, counter)

    if isinstance(expr, A.Literal):
        return expr.value
    if isinstance(expr, A.ColumnRef):
        return row[INDEX[expr.name]]
    if isinstance(expr, A.BinaryOp) and expr.op in ("and", "or"):
        absorbing = expr.op == "or"
        a = ev(expr.left)
        if a is absorbing:
            return absorbing
        b = ev(expr.right)
        if b is absorbing:
            return absorbing
        return None if a is None or b is None else not absorbing
    if isinstance(expr, A.BinaryOp):
        a, b = ev(expr.left), ev(expr.right)
        if a is None or b is None:
            return None
        return STRICT_BINARY[expr.op](a, b)
    if isinstance(expr, A.UnaryOp):
        value = ev(expr.operand)
        if value is None:
            return None
        return -value if expr.op == "-" else not value
    if isinstance(expr, A.IsNull):
        return (ev(expr.operand) is None) is not expr.negated
    if isinstance(expr, A.Between):
        value, lo, hi = ev(expr.operand), ev(expr.low), ev(expr.high)
        if value is None or lo is None or hi is None:
            return None
        return (lo <= value <= hi) is not expr.negated
    if isinstance(expr, A.InList):
        value = ev(expr.operand)
        if value is None:
            return None
        found = False
        for item in expr.items:
            if ev(item) == value:
                found = True
                break
        return found is not expr.negated
    if isinstance(expr, A.Case):
        for cond, value in expr.whens:
            if ev(cond) is True:
                return ev(value)
        return None if expr.default is None else ev(expr.default)
    if isinstance(expr, A.FuncCall):
        args = [ev(arg) for arg in expr.args]
        if any(arg is None for arg in args):
            return None
        if expr.name == "bump":
            counter[0] += 1
            return bump(*args)
        return BUILTINS[expr.name](*args)
    raise AssertionError(f"no reference for {expr!r}")


def _typed(values):
    return [(type(value).__name__, value) for value in values]


def reference(expr, rows):
    counter = [0]
    try:
        values = [evaluate(expr, row, counter) for row in rows]
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return ("raise", type(exc))
    return ("ok", _typed(values), counter[0])


def compiled(expr, rows, size):
    executor = CountingExecutor()
    fn = compile_expr(expr, SCHEMA, Resolver(executor))
    try:
        values = [
            value for start in range(0, len(rows), size)
            for value in fn(rows[start:start + size])
        ]
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return ("raise", type(exc))
    return ("ok", _typed(values), executor.calls)


# -- the test ----------------------------------------------------------------------

_I, _J = A.ColumnRef("i"), A.ColumnRef("j")
_TEN_BY_I = A.BinaryOp("/", A.Literal(10), _I)
_BUMP_J = A.FuncCall("bump", (_J,))
_I_IS_ZERO = A.BinaryOp("=", _I, A.Literal(0))
#: i = 0, 2, NULL, 3 and j = 1, 0, 2, NULL: the first row would trap
#: on 10 / i and every row with a non-NULL j would call the UDF.
_GUARD_ROWS = [[0, 1, None, None], [2, 0, None, None],
               [None, 2, None, None], [3, None, None, None]]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    expr=st.sampled_from(["bool", "bool", "int", "float", "str"]).flatmap(
        exprs),
    rows=TABLES,
)
# Each guard, with a trap and then a UDF call behind it.
@example(expr=A.InList(_I, (A.Literal(0), _TEN_BY_I)), rows=_GUARD_ROWS)
@example(expr=A.InList(_I, (A.Literal(2), _BUMP_J)), rows=_GUARD_ROWS)
@example(expr=A.BinaryOp("or", _I_IS_ZERO, A.BinaryOp(
    ">", _TEN_BY_I, A.Literal(1))), rows=_GUARD_ROWS)
@example(expr=A.BinaryOp("and", A.UnaryOp("not", _I_IS_ZERO), A.BinaryOp(
    ">", _BUMP_J, A.Literal(1))), rows=_GUARD_ROWS)
@example(expr=A.Case(((_I_IS_ZERO, A.Literal(0)),), _TEN_BY_I),
         rows=_GUARD_ROWS)
@example(expr=A.Case(((_I_IS_ZERO, _BUMP_J),), None), rows=_GUARD_ROWS)
def test_compiled_form_matches_per_row_reference(expr, rows):
    expected = reference(expr, rows)
    for size in BATCH_SIZES:
        assert compiled(expr, rows, size) == expected, size
