"""Effect/purity summaries: unit shapes plus every example UDF."""

from pathlib import Path

import pytest

from repro.analysis import derive_cost_hints, load_time_analysis
from repro.analysis.lint import load_targets
from repro.core.callbacks import standard_callback_signatures
from repro.core.generic_udf import GENERIC_JAGSCRIPT, generic_definition
from repro.core.designs import Design
from repro.vm.compiler import compile_source
from repro.vm.verifier import self_resolver, verify_class

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CALLBACKS = dict(standard_callback_signatures())


def analyze(cls, callbacks=CALLBACKS):
    """The effect rollup the loader's pipeline attaches to ``cls``."""
    load_time_analysis(cls, self_resolver(cls, callbacks=callbacks))
    return cls.analysis


def analyzed(source, name="C", callbacks=None):
    cbs = CALLBACKS if callbacks is None else callbacks
    cls = compile_source(source, name, callbacks=cbs)
    verify_class(cls, self_resolver(cls, callbacks=cbs))
    return analyze(cls, cbs)


class TestSummaryShapes:
    def test_arithmetic_is_pure(self):
        summary = analyzed(
            "def double(x: int) -> int:\n    return x + x\n"
        ).functions["double"]
        assert summary.pure
        assert not summary.allocates
        assert not summary.may_not_terminate
        assert summary.cost_units >= 1.0

    def test_callback_breaks_purity(self):
        summary = analyzed(
            "def ping(x: int) -> int:\n    return cb_noop()\n"
        ).functions["ping"]
        assert not summary.pure
        assert summary.callbacks == frozenset({"cb_noop"})

    def test_native_stays_pure(self):
        summary = analyzed(
            "def root(x: float) -> float:\n    return sqrt(x)\n"
        ).functions["root"]
        assert summary.pure
        assert summary.natives == frozenset({"sqrt"})

    def test_allocation_flagged(self):
        summary = analyzed(
            "def buf(n: int) -> int:\n"
            "    a: bytes = bytearray(n)\n"
            "    return len(a)\n"
        ).functions["buf"]
        assert summary.allocates

    def test_loop_sets_may_not_terminate(self):
        summary = analyzed(
            "def total(n: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(n):\n"
            "        s = s + i\n"
            "    return s\n"
        ).functions["total"]
        assert summary.may_not_terminate
        assert not summary.has_unbounded_loop
        assert summary.loop_count == 1

    def test_while_true_is_unbounded(self):
        summary = analyzed(
            "def spin() -> int:\n    while True:\n        pass\n"
        ).functions["spin"]
        assert summary.has_unbounded_loop
        assert summary.may_not_terminate

    def test_effects_propagate_through_calls(self):
        summary = analyzed(
            "def helper(x: int) -> int:\n"
            "    return cb_noop()\n"
            "\n"
            "def caller(x: int) -> int:\n"
            "    return helper(x) + 1\n"
        )
        assert not summary.functions["caller"].pure
        assert summary.functions["caller"].callbacks == frozenset({"cb_noop"})

    def test_recursion_flagged_and_costed(self):
        summary = analyzed(
            "def fact(n: int) -> int:\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * fact(n - 1)\n"
        ).functions["fact"]
        assert summary.recursive
        assert summary.may_not_terminate
        assert summary.pure  # recursion alone does not break purity
        # The RECURSION_FACTOR makes the cycle markedly pricier than a
        # straight-line body of the same length.
        assert summary.cost_units > 100

    def test_loops_multiply_cost(self):
        flat = analyzed(
            "def flat(x: int) -> int:\n    return x + 1\n"
        ).functions["flat"]
        looped = analyzed(
            "def looped(x: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(x):\n"
            "        s = s + 1\n"
            "    return s\n"
        ).functions["looped"]
        assert looped.cost_units > 10 * flat.cost_units

    def test_class_rollup_unions_functions(self):
        summary = analyzed(
            "def a(x: int) -> int:\n    return cb_noop()\n"
            "\n"
            "def b(x: float) -> float:\n    return sqrt(x)\n"
        )
        assert summary.callbacks == frozenset({"cb_noop"})
        assert summary.natives == frozenset({"sqrt"})

    def test_unverified_class_rejected(self):
        cls = compile_source("def f() -> int:\n    return 1\n", "U")
        with pytest.raises(ValueError, match="verified"):
            analyze(cls)

    def test_summaries_attached_to_functions(self):
        cbs = CALLBACKS
        cls = compile_source(
            "def f() -> int:\n    return 1\n", "A", callbacks=cbs
        )
        verify_class(cls, self_resolver(cls, callbacks=cbs))
        rollup = analyze(cls)
        assert cls.analysis is rollup
        assert cls.functions["f"].summary is rollup.functions["f"]


def example_summaries():
    """func name -> list of FunctionSummary across all example scripts."""
    out = {}
    for path in sorted(EXAMPLES.glob("*.py")):
        for _label, cls in load_targets(path):
            verify_class(cls, self_resolver(cls, callbacks=CALLBACKS))
            rollup = analyze(cls)
            for name, summary in rollup.functions.items():
                out.setdefault(name, []).append(summary)
    return out


class TestExampleUDFs:
    """Every UDF shipped in examples/ gets the expected summary."""

    @pytest.fixture(scope="class")
    def summaries(self):
        return example_summaries()

    def test_every_example_udf_summarized(self, summaries):
        # The examples embed at least these UDFs; each must analyze.
        expected = {
            "score", "investval", "investloop", "redness", "redness_h",
            "cpu_bomb", "mem_bomb", "snoop", "ema_last",
        }
        assert expected <= set(summaries)
        for name, entries in summaries.items():
            for summary in entries:
                assert summary.cost_units >= 1.0, name

    def test_pure_example_udfs(self, summaries):
        for name in ("score", "investval", "ema_last", "redness"):
            for summary in summaries[name]:
                assert summary.pure, name

    def test_investval_uses_sqrt_native(self, summaries):
        (investval,) = summaries["investval"]
        assert investval.natives == frozenset({"sqrt"})

    def test_handle_redness_needs_lob_callbacks(self, summaries):
        (redness_h,) = summaries["redness_h"]
        assert not redness_h.pure
        assert redness_h.callbacks == frozenset(
            {"cb_lob_length", "cb_lob_read"}
        )

    def test_malicious_cpu_bomb_never_terminates(self, summaries):
        (cpu_bomb,) = summaries["cpu_bomb"]
        assert cpu_bomb.has_unbounded_loop

    def test_malicious_mem_bomb_allocates_in_loop(self, summaries):
        (mem_bomb,) = summaries["mem_bomb"]
        assert mem_bomb.allocates
        assert mem_bomb.loop_count >= 1

    def test_malicious_snoop_reaches_for_lob_callback(self, summaries):
        (snoop,) = summaries["snoop"]
        assert not snoop.pure
        assert snoop.callbacks == frozenset({"cb_lob_length"})

    def test_unbounded_example_loops_flagged(self, summaries):
        (investloop,) = summaries["investloop"]
        assert investloop.has_unbounded_loop


class TestDerivedVersusDeclared:
    """The analyzer's estimate agrees with the hand-declared hints."""

    def test_generic_udf_costs_agree(self):
        declared = generic_definition(Design.SANDBOX_JIT).cost
        summary = analyzed(GENERIC_JAGSCRIPT, "G").functions["generic"]
        derived = derive_cost_hints(summary)
        # Same order of magnitude: the declared 1000-unit figure and the
        # static estimate must agree that this UDF is orders of
        # magnitude dearer than a built-in comparison.
        ratio = derived.cost_per_call / declared.cost_per_call
        assert 0.1 <= ratio <= 10.0
        assert derived.selectivity == declared.selectivity
        assert derived.derived and not declared.derived

    def test_derived_hints_floor_at_one_unit(self):
        summary = analyzed(
            "def unit() -> int:\n    return 1\n"
        ).functions["unit"]
        hints = derive_cost_hints(summary)
        assert hints.cost_per_call >= 1.0
        assert hints.derived


class TestEdgeCases:
    """Shapes the effect analyzer must not lose: loops, trap paths,
    conditional callbacks, and mutual recursion."""

    def test_callback_in_loop_recorded_and_costed_per_iteration(self):
        flat = analyzed(
            "def once(x: int) -> int:\n    return cb_noop()\n"
        ).functions["once"]
        looped = analyzed(
            "def churn(n: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(n):\n"
            "        s = s + cb_noop()\n"
            "    return s\n"
        ).functions["churn"]
        assert looped.callbacks == frozenset({"cb_noop"})
        assert not looped.pure
        assert looped.may_not_terminate
        # A looped callback is charged per expected iteration, not once.
        assert looped.cost_units > 10 * flat.cost_units

    def test_effects_on_trap_path_still_recorded(self):
        # The division may trap before the callback ever runs; the
        # summary must still over-approximate and keep the callback.
        summary = analyzed(
            "def risky(x: int) -> int:\n"
            "    y: int = 10 // x\n"
            "    return y + cb_noop()\n"
        ).functions["risky"]
        assert summary.callbacks == frozenset({"cb_noop"})
        assert not summary.pure

    def test_callback_on_single_branch_breaks_purity(self):
        summary = analyzed(
            "def maybe(x: int) -> int:\n"
            "    if x > 0:\n"
            "        return cb_noop()\n"
            "    return 0\n"
        ).functions["maybe"]
        assert summary.callbacks == frozenset({"cb_noop"})
        assert not summary.pure

    def test_mutual_recursion_unions_effects_across_the_cycle(self):
        rollup = analyzed(
            "def ping(n: int) -> int:\n"
            "    if n <= 0:\n"
            "        return 0\n"
            "    return pong(n - 1)\n"
            "def pong(n: int) -> int:\n"
            "    return ping(n - 1) + cb_noop()\n"
        )
        ping, pong = rollup.functions["ping"], rollup.functions["pong"]
        assert ping.recursive and pong.recursive
        assert ping.may_not_terminate and pong.may_not_terminate
        # The callback lives in pong, but the SCC closure must charge
        # the whole cycle with it.
        assert ping.callbacks == frozenset({"cb_noop"})
        assert pong.callbacks == frozenset({"cb_noop"})
        assert not ping.pure
