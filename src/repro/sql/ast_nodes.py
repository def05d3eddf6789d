"""SQL abstract syntax trees (statements and expressions).

Pure data: the parser builds these, the planner consumes them.  Named
``ast_nodes`` (not ``ast``) so the compiler's use of the stdlib ``ast``
module can never be shadowed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .types import ColumnDef, SQLType

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int | float | bool | str | None


@dataclass(frozen=True)
class Slot(Expr):
    """A literal's place in a statement template.

    The parser makes one per INT/FLOAT/STRING literal of a shape (see
    :func:`~repro.sql.lexer.shape`); ``index`` numbers the literals in
    text order and ``sql_type`` is the literal's type, which every text
    of the shape shares.  Planning treats a slot as a literal of that
    type whose value it does not know; the value is bound when the plan's
    expressions compile for one execution.
    """

    index: int
    sql_type: SQLType


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    table: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * / % = != < <= > >= and or like
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # - not
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call: builtin scalar, aggregate, or UDF — resolved by
    the planner, not the parser."""

    name: str
    args: Tuple[Expr, ...]
    star: bool = False  # COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: ``CASE WHEN cond THEN value ... ELSE default END``.

    Produced by the UDF decompiler (if/else bodies lower to CASE), not
    the parser.  Evaluation is short-circuit: a branch's value is only
    computed for rows whose condition held, so trapping expressions
    guarded by a condition stay guarded.
    """

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None
    #: The flow certifier proved no branch expression can trap (no
    #: division by a possibly-zero value, no unproven index).  Batch
    #: evaluation may then run every branch over the full row set and
    #: select, instead of partitioning rows behind each guard.
    trap_safe: bool = False


@dataclass(frozen=True)
class ParamRef(Expr):
    """Positional parameter placeholder inside an inline template.

    Only appears in :class:`~repro.analysis.decompile.InlineTemplate`
    bodies; the optimizer substitutes argument expressions before any
    template reaches the expression compiler.
    """

    index: int


@dataclass(frozen=True)
class Inlined(Expr):
    """A UDF call site replaced by its decompiled body.

    Transparent to evaluation; keeps the originating UDF's name so
    EXPLAIN can mark the site ``inlined`` and the query profile can
    count inlined calls without a VM entry.
    """

    name: str
    body: Expr


#: The fields of each composite node that hold expressions (a tuple
#: field holds several; ``Case.whens`` holds pairs).  Every other node
#: is a leaf.
_CHILDREN = {
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    IsNull: ("operand",),
    Between: ("operand", "low", "high"),
    InList: ("operand", "items"),
    FuncCall: ("args",),
    Case: ("whens", "default"),
    Inlined: ("body",),
}


def walk(expr: Expr) -> List[Expr]:
    """Every node of ``expr``, each before its children, in field order."""
    nodes: List[Expr] = []
    _walk(expr, nodes)
    return nodes


def _walk(node, nodes: List[Expr]) -> None:
    if isinstance(node, tuple):
        for item in node:
            _walk(item, nodes)
        return
    nodes.append(node)
    for name in _CHILDREN.get(type(node), ()):
        value = getattr(node, name)
        if value is not None:
            _walk(value, nodes)


def transform(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` rebuilt bottom-up: a node's expression children are
    transformed first, then ``fn`` maps the node (holding its new
    children) to its replacement.  Unchanged subtrees are reused."""
    changes = None
    for name in _CHILDREN.get(type(expr), ()):
        value = getattr(expr, name)
        if isinstance(value, Expr):
            new = transform(value, fn)
        elif isinstance(value, tuple):
            new = _transform_items(value, fn)
        else:
            continue
        if new is not value:
            if changes is None:
                changes = {}
            changes[name] = new
    if changes is not None:
        expr = dataclasses.replace(expr, **changes)
    return fn(expr)


def _transform_items(items: tuple, fn) -> tuple:
    """A tuple of expressions (or of pairs of them), transformed; the
    same tuple if nothing changed."""
    new = tuple(
        transform(item, fn) if isinstance(item, Expr)
        else _transform_items(item, fn)
        for item in items
    )
    if any(a is not b for a, b in zip(new, items)):
        return new
    return items


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def label(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: Tuple[ColumnDef, ...]


@dataclass(frozen=True)
class DropTable(Statement):
    name: str


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    column: str


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: Tuple[str, ...]  # empty = all, in table order
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class CreateFunction(Statement):
    """CREATE FUNCTION name(type, ...) RETURNS type LANGUAGE ... DESIGN ...

    ``payload`` is the quoted body: JagScript source for LANGUAGE
    JAGUAR, a ``module:function`` path for LANGUAGE NATIVE.
    """

    name: str
    param_types: Tuple[str, ...]
    ret_type: str
    language: str
    design: str
    payload: str
    entry: Optional[str] = None
    callbacks: Tuple[str, ...] = ()
    cost: Optional[float] = None
    selectivity: Optional[float] = None
    fuel: Optional[int] = None
    memory: Optional[int] = None


@dataclass(frozen=True)
class DropFunction(Statement):
    name: str


@dataclass(frozen=True)
class Explain(Statement):
    """EXPLAIN [ANALYZE] SELECT ...: show the optimized plan.

    Plain EXPLAIN plans without executing; EXPLAIN ANALYZE also runs the
    query and annotates every operator with the rows/batches/time it
    actually produced plus a per-UDF profile section.
    """

    select: Select
    analyze: bool = False
