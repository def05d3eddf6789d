"""Decompiler unit tests: bytecode -> expected expression trees.

Each sample compiles a JagScript body, verifies and analyzes it the way
the class loader would, and checks the decompiler's output structurally
(known bytecode maps to a known tree) and semantically (substituting
literal arguments into the template and evaluating the compiled SQL
expression matches invoking the VM).
"""

import pytest

from repro.analysis.decompile import (
    REASON_CALLBACK,
    REASON_LOOP,
    REASON_TOO_LARGE,
    REASON_UNSUPPORTED,
    InlineRefusal,
    InlineTemplate,
)
from repro.analysis.pipeline import load_time_analysis
from repro.sql import ast_nodes as A
from repro.sql.expressions import compile_expr
from repro.sql.types import RowSchema
from repro.vm.compiler import compile_source
from repro.vm.interpreter import run_function, single_class_context
from repro.vm.verifier import self_resolver, verify_class

CALLBACKS = {"cb_noop": ((), None)}

_EMPTY = RowSchema([])


def _vm_invoke(cls, name, args):
    return run_function(
        cls, cls.functions[name], args, single_class_context(cls)
    )


def _decompile(source, class_name="T"):
    cls = compile_source(source, class_name, callbacks=CALLBACKS)
    resolver = self_resolver(cls, callbacks=CALLBACKS)
    verify_class(cls, resolver)
    load_time_analysis(cls, resolver)
    return cls, {name: func.inline for name, func in cls.functions.items()}


def _template(source, name):
    __, results = _decompile(source)
    result = results[name]
    assert isinstance(result, InlineTemplate), result
    return result


def _substitute(expr, args):
    if isinstance(expr, A.ParamRef):
        return A.Literal(args[expr.index])
    import dataclasses

    if isinstance(expr, A.BinaryOp):
        return dataclasses.replace(
            expr,
            left=_substitute(expr.left, args),
            right=_substitute(expr.right, args),
        )
    if isinstance(expr, A.UnaryOp):
        return dataclasses.replace(
            expr, operand=_substitute(expr.operand, args)
        )
    if isinstance(expr, A.FuncCall):
        return dataclasses.replace(
            expr, args=tuple(_substitute(a, args) for a in expr.args)
        )
    if isinstance(expr, A.Case):
        return dataclasses.replace(
            expr,
            whens=tuple(
                (_substitute(c, args), _substitute(v, args))
                for c, v in expr.whens
            ),
            default=(
                _substitute(expr.default, args)
                if expr.default is not None else None
            ),
        )
    return expr


def _lifted_value(template, args):
    """Evaluate the lifted expression over literal arguments."""
    fn = compile_expr(_substitute(template.expr, list(args)), _EMPTY)
    return fn([[]])[0]


class TestStraightLine:
    def test_plus1_is_binary_add(self):
        template = _template(
            "def plus1(x: int) -> int:\n    return x + 1", "plus1"
        )
        # The add wraps to int64 like IADD.
        assert template.expr == A.FuncCall(
            "wrap64", (A.BinaryOp("+", A.ParamRef(0), A.Literal(1)),)
        )
        assert template.param_kinds == ("int",)
        assert template.ret_kind == "int"

    def test_constant_function_folds_to_literal(self):
        template = _template(
            "def k() -> int:\n    return 6 * 7", "k"
        )
        assert template.expr == A.Literal(42)

    def test_locals_thread_through(self):
        template = _template(
            "def f(x: int) -> int:\n"
            "    y: int = x * 2\n"
            "    z: int = y + 3\n"
            "    return z - x",
            "f",
        )
        assert _lifted_value(template, [10]) == 10 * 2 + 3 - 10

    def test_float_arithmetic(self):
        template = _template(
            "def scale(x: float) -> float:\n    return x * 2.0 + 0.5",
            "scale",
        )
        assert template.param_kinds == ("float",)
        assert _lifted_value(template, [3.0]) == 6.5

    def test_integer_division_lowers_to_vm_builtin(self):
        # SQL // floors; the VM truncates toward zero.  The template
        # must use the VM-faithful idiv builtin, never SQL division.
        template = _template(
            "def half(x: int) -> int:\n    return x // 2", "half"
        )
        assert template.expr == A.FuncCall(
            "idiv", (A.ParamRef(0), A.Literal(2))
        )
        assert _lifted_value(template, [-7]) == -3  # floor would give -4

    def test_modulo_truncates_toward_zero(self):
        template = _template(
            "def rem(x: int) -> int:\n    return x % 3", "rem"
        )
        assert _lifted_value(template, [-7]) == -1  # Python % gives 2


class TestBranches:
    def test_if_else_becomes_case(self):
        template = _template(
            "def clip(x: int) -> int:\n"
            "    if x < 0:\n"
            "        return 0\n"
            "    return x",
            "clip",
        )
        assert isinstance(template.expr, A.Case)
        ((cond, value),) = template.expr.whens
        assert cond == A.BinaryOp("<", A.ParamRef(0), A.Literal(0))
        assert value == A.Literal(0)
        assert template.expr.default == A.ParamRef(0)

    def test_nested_branches(self):
        source = (
            "def sign(x: int) -> int:\n"
            "    if x > 0:\n"
            "        return 1\n"
            "    if x < 0:\n"
            "        return 0 - 1\n"
            "    return 0"
        )
        template = _template(source, "sign")
        for value in (-5, 0, 9):
            expected = (value > 0) - (value < 0)
            assert _lifted_value(template, [value]) == expected


class TestLoopUnrolling:
    SOURCE = (
        "def tri(x: int) -> int:\n"
        "    total: int = 0\n"
        "    i: int = 0\n"
        "    while i < 5:\n"
        "        total = total + x + i\n"
        "        i = i + 1\n"
        "    return total"
    )

    def test_constant_trip_count_unrolls(self):
        template = _template(self.SOURCE, "tri")
        assert _lifted_value(template, [7]) == 5 * 7 + 10

    def test_unrolled_matches_vm(self):
        cls, results = _decompile(self.SOURCE)
        template = results["tri"]
        for value in (-3, 0, 11):
            vm = _vm_invoke(cls, "tri", [value])
            assert _lifted_value(template, [value]) == vm


class TestIntraClassCalls:
    def test_callee_inlines(self):
        source = (
            "def twice(x: int) -> int:\n"
            "    return x * 2\n"
            "def f(x: int) -> int:\n"
            "    return twice(x) + twice(x + 1)"
        )
        template = _template(source, "f")
        assert _lifted_value(template, [10]) == 20 + 22


class TestRefusals:
    def _refusal(self, source, name):
        __, results = _decompile(source)
        result = results[name]
        assert isinstance(result, InlineRefusal), result
        return result

    def test_symbolic_loop_refuses_loop(self):
        refusal = self._refusal(
            "def s(n: int) -> int:\n"
            "    total: int = 0\n"
            "    i: int = 0\n"
            "    while i < n:\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    return total",
            "s",
        )
        assert refusal.reason == REASON_LOOP

    def test_recursion_refuses_loop(self):
        refusal = self._refusal(
            "def fact(n: int) -> int:\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * fact(n - 1)",
            "fact",
        )
        assert refusal.reason == REASON_LOOP

    def test_callback_refuses_callback(self):
        refusal = self._refusal(
            "def ping(x: int) -> int:\n"
            "    cb_noop()\n"
            "    return x",
            "ping",
        )
        assert refusal.reason == REASON_CALLBACK
        assert "cb_noop" in refusal.detail

    def test_native_refuses_unsupported(self):
        refusal = self._refusal(
            "def root(x: float) -> float:\n"
            "    return sqrt(x)",
            "root",
        )
        assert refusal.reason == REASON_UNSUPPORTED
        assert "sqrt" in refusal.detail

    def test_array_arguments_refuse(self):
        refusal = self._refusal(
            "def first(data: bytes) -> int:\n"
            "    return data[0]",
            "first",
        )
        assert refusal.reason == REASON_UNSUPPORTED

    def test_giant_expression_refuses_too_large(self):
        terms = " + ".join(
            f"x * {i}" for i in range(1, 200)
        )
        refusal = self._refusal(
            f"def big(x: int) -> int:\n    return {terms}", "big"
        )
        assert refusal.reason == REASON_TOO_LARGE

    def test_describe_mentions_reason(self):
        refusal = InlineRefusal("f", REASON_LOOP, "recursive")
        assert "loop" in refusal.describe()
        assert "recursive" in refusal.describe()


class TestVMParity:
    """Lifted expressions compute the same bits the interpreter does."""

    SAMPLES = [
        ("def f(x: int) -> int:\n    return (x + 3) * (x - 2)",
         "f", [(-10,), (0,), (17,)]),
        ("def f(x: int, y: int) -> int:\n"
         "    if x > y:\n"
         "        return x - y\n"
         "    return y - x",
         "f", [(3, 9), (9, 3), (4, 4)]),
        ("def f(x: float) -> float:\n    return x / 4.0 - 1.5",
         "f", [(10.0,), (-2.0,)]),
        ("def f(x: int) -> bool:\n    return x % 2 == 0 and x > 0",
         "f", [(-4,), (3,), (8,)]),
        ("def f(s: str) -> int:\n    return len(s) + 1",
         "f", [("",), ("abc",)]),
    ]

    @pytest.mark.parametrize("source,name,argsets", SAMPLES)
    def test_matches_interpreter(self, source, name, argsets):
        cls, results = _decompile(source)
        template = results[name]
        assert isinstance(template, InlineTemplate), template
        for args in argsets:
            assert _lifted_value(template, args) == _vm_invoke(
                cls, name, list(args)
            )
