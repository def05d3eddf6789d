"""End-to-end payoffs of load-time analysis: derived hints in EXPLAIN,
constant folding, memoization, and rejection at CREATE FUNCTION; and
what a load costs: one interval fixpoint per function, and one walk of
each shared structure."""

import pytest

from repro.analysis import dataflow, pipeline
from repro.analysis.bounds import _FunctionCertifier
from repro.analysis.cfg import CFG
from repro.core.callbacks import standard_callback_signatures
from repro.core.sandbox import SandboxExecutor
from repro.errors import SecurityViolation
from repro.vm.classloader import SystemClassLoader
from repro.vm.compiler import compile_source
from repro.vm.machine import JaguarVM
from repro.vm.security import Permissions

TWICE = (
    "CREATE FUNCTION twice(int) RETURNS int LANGUAGE JAGUAR "
    "DESIGN SANDBOX AS 'def twice(x: int) -> int:\n    return x + x'"
)


def plan_text(db, sql):
    return "\n".join(row[0] for row in db.query("EXPLAIN " + sql))


@pytest.fixture
def table(db):
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 10), (3, 20)")
    return db


class TestDerivedCostHints:
    def test_registration_without_hints_derives_them(self, table):
        table.execute(TWICE)
        definition = table.registry.get("twice")
        assert definition.cost is not None
        assert definition.cost.derived
        assert definition.cost.cost_per_call >= 1.0
        assert definition.cost.selectivity == 0.5

    def test_declared_hints_win_over_derivation(self, table):
        table.execute(
            "CREATE FUNCTION pricey(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX COST 5000 SELECTIVITY 0.2 "
            "AS 'def pricey(x: int) -> int:\n    return x'"
        )
        definition = table.registry.get("pricey")
        assert not definition.cost.derived
        assert definition.cost.cost_per_call == 5000.0

    def test_explain_annotates_derived_purity_and_cost(self, table):
        table.execute(TWICE)
        text = plan_text(table, "SELECT id FROM t WHERE twice(v) > 15")
        assert "udf twice: pure" in text
        assert "(derived)" in text
        assert "sel=0.50" in text

    def test_explain_annotates_declared_hints(self, table):
        table.execute(
            "CREATE FUNCTION pricey(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX COST 5000 SELECTIVITY 0.2 "
            "AS 'def pricey(x: int) -> int:\n    return x'"
        )
        text = plan_text(table, "SELECT id FROM t WHERE pricey(v) > 15")
        assert "cost≈5000 (declared)" in text
        assert "sel=0.20" in text

    def test_explain_marks_impure_udfs(self, table):
        table.execute(
            "CREATE FUNCTION chatty(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_noop' "
            "AS 'def chatty(x: int) -> int:\n    return x + cb_noop()'"
        )
        text = plan_text(table, "SELECT id FROM t WHERE chatty(v) > 15")
        assert "udf chatty: impure" in text


class TestConstantFolding:
    def test_pure_udf_over_literals_folds_at_plan_time(self, table):
        table.execute(TWICE)
        text = plan_text(table, "SELECT id FROM t WHERE twice(3) > v")
        assert "(6 > t.v)" in text
        assert "twice" not in text

    def test_folded_query_returns_correct_rows(self, table):
        table.execute(TWICE)
        rows = table.query(
            "SELECT id FROM t WHERE twice(8) > v ORDER BY id"
        )
        assert rows == [(1,), (2,)]  # 16 > 10 twice, 16 > 20 never

    def test_non_literal_args_do_not_fold(self, table):
        table.execute(TWICE)
        text = plan_text(table, "SELECT id FROM t WHERE twice(v) > 15")
        assert "twice(t.v)" in text

    def test_impure_udf_never_folds(self, table):
        table.execute(
            "CREATE FUNCTION chatty(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_noop' "
            "AS 'def chatty(x: int) -> int:\n    return x + cb_noop()'"
        )
        text = plan_text(table, "SELECT id FROM t WHERE chatty(3) > v")
        assert "chatty(3)" in text

    def test_null_literal_folds_to_null_without_invoking(self, table):
        table.execute(TWICE)
        text = plan_text(table, "SELECT id FROM t WHERE twice(NULL) > v")
        assert "twice" not in text

    def test_folding_in_projection(self, table):
        table.execute(TWICE)
        rows = table.query("SELECT twice(21) FROM t WHERE id = 1")
        assert rows == [(42,)]


def _count_invocations(monkeypatch):
    """Record every UDF invocation, through either entry point.

    The executor crosses into the sandbox via ``invoke`` (per tuple) or
    ``invoke_batch`` (per batch); memoization counts are about *UDF
    invocations*, so both paths are tallied per argument tuple.
    """
    calls = []
    original_invoke = SandboxExecutor.invoke
    original_batch = SandboxExecutor.invoke_batch

    def counting(self, args):
        calls.append(tuple(args))
        return original_invoke(self, args)

    def counting_batch(self, args_list):
        calls.extend(tuple(args) for args in args_list)
        return original_batch(self, args_list)

    monkeypatch.setattr(SandboxExecutor, "invoke", counting)
    monkeypatch.setattr(SandboxExecutor, "invoke_batch", counting_batch)
    return calls


class TestMemoization:
    def test_pure_udf_invoked_once_per_distinct_args(
        self, table, monkeypatch
    ):
        table.execute(TWICE)
        calls = _count_invocations(monkeypatch)
        rows = table.query("SELECT id FROM t WHERE twice(v) > 25 ORDER BY id")
        assert rows == [(3,)]
        # Three rows, two distinct v values: the memo absorbs the dupe.
        assert len(calls) == 2

    def test_impure_udf_not_memoized(self, table, monkeypatch):
        table.execute(
            "CREATE FUNCTION chatty(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_noop' "
            "AS 'def chatty(x: int) -> int:\n    return x + x + cb_noop()'"
        )
        calls = _count_invocations(monkeypatch)
        table.query("SELECT id FROM t WHERE chatty(v) > 15")
        assert len(calls) == 3  # one per row, no memo


class TestStaticSecurityPreCheck:
    def test_ungranted_callback_rejected_at_create(self, table):
        with pytest.raises(SecurityViolation, match="rejected at load"):
            table.execute(
                "CREATE FUNCTION snoop(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS "
                "'def snoop(x: int) -> int:\n    return cb_lob_length(x)'"
            )
        assert not table.registry.has("snoop")

    def test_granted_callback_loads_and_runs(self, table):
        table.execute(
            "CREATE FUNCTION fine(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_noop' "
            "AS 'def fine(x: int) -> int:\n    return x + cb_noop()'"
        )
        rows = table.query("SELECT fine(1) FROM t WHERE id = 1")
        assert rows == [(1,)]

    def test_rejection_leaves_catalog_reusable(self, table):
        with pytest.raises(SecurityViolation):
            table.execute(
                "CREATE FUNCTION snoop(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS "
                "'def snoop(x: int) -> int:\n    return cb_lob_length(x)'"
            )
        # The name is free: a corrected registration succeeds.
        table.execute(
            "CREATE FUNCTION snoop(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def snoop(x: int) -> int:\n    return x'"
        )
        assert table.registry.has("snoop")


class TestOneFixpoint:
    """``define_class`` solves each function's interval fixpoint once:
    the flow pass finds trap sites in the certifier's stacks."""

    ONE = "def f(x: int) -> int:\n    return 100 // x\n"
    THREE = (
        "def g(s: bytes) -> int:\n"
        "    total: int = 0\n"
        "    for i in range(len(s)):\n"
        "        total = total + s[i]\n"
        "    return total\n"
        "\n"
        "def h(x: int) -> int:\n"
        "    return cb_noop() + x\n"
        "\n"
        "def k(s: bytes) -> int:\n"
        "    return g(s) + h(len(s))\n"
    )

    @pytest.mark.parametrize("source, functions", [(ONE, 1), (THREE, 3)])
    def test_bounds_lattice_solved_once_per_function(
        self, monkeypatch, source, functions
    ):
        solve = dataflow.solve
        interval_solves = []

        def counting(cfg, problem, *args, **kwargs):
            if problem.join is _FunctionCertifier._join_state:
                interval_solves.append(cfg)
            return solve(cfg, problem, *args, **kwargs)

        monkeypatch.setattr(dataflow, "solve", counting)
        callbacks = standard_callback_signatures()
        cls = compile_source(source, "Once", callbacks=callbacks)
        loader = SystemClassLoader(callback_signatures=callbacks)
        loader.define_class(cls)
        assert len(cls.functions) == functions
        assert len(interval_solves) == functions
        assert all(func.flows is not None for func in cls.functions.values())


class TestOneWalk:
    """A load and the JIT derive each shared structure once: one CFG
    per function, two fixpoints per function (intervals, then the
    taint and escape labels), and one call-graph order per class."""

    CASES = pytest.mark.parametrize(
        "source, functions",
        [(TestOneFixpoint.ONE, 1), (TestOneFixpoint.THREE, 3)],
        ids=["one", "three"],
    )

    @staticmethod
    def load_counting(monkeypatch, source, owner, name):
        """Load ``source`` and JIT it; count calls of ``owner.name``."""
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        callbacks = standard_callback_signatures()
        cls = compile_source(source, "Walk", callbacks=callbacks)
        udf = JaguarVM(callbacks).load_udf(
            "walk", [cls], permissions=Permissions.with_callbacks("cb_noop")
        )
        udf.jit_all()
        return len(calls)

    @CASES
    def test_one_cfg_per_function(self, monkeypatch, source, functions):
        built = self.load_counting(monkeypatch, source, CFG, "__init__")
        assert built == functions

    @CASES
    def test_two_fixpoints_per_function(self, monkeypatch, source,
                                        functions):
        solves = self.load_counting(monkeypatch, source, dataflow, "solve")
        assert solves == 2 * functions

    @CASES
    def test_one_call_graph_order_per_class(self, monkeypatch, source,
                                            functions):
        orders = self.load_counting(monkeypatch, source, pipeline, "_sccs")
        assert orders == 1
