"""Tiered execution: eligibility, kernel correctness, and deopt paths.

Tier 1 is decided at CREATE FUNCTION and is only ever an optimization:
every batch must produce exactly what the tier-0 path — one
``invoke`` per row — produces, including when the kernel bails out
mid-batch (type-guard failure, quota edge) and the remainder re-runs on
tier 0.  These tests drive the executors directly so they can force
each deopt path and read the load-time decision and the deopt tally off
the :class:`~repro.vm.machine.LoadedUDF`.
"""

import pytest

from repro.analysis import constant_bound, load_time_analysis
from repro.core.callbacks import standard_callback_signatures
from repro.database import Database
from repro.errors import FuelExhausted
from repro.vm.compiler import compile_source
from repro.vm.tier import (
    DEMOTION_DEOPTS,
    REFUSE_CALLBACK,
    REFUSE_DEMOTED,
    REFUSE_MUTABLE_ARRAY,
    REFUSE_TRAP,
    REFUSE_UNBOUNDED,
    kernel_eligibility,
)
from repro.vm.values import INT_MAX
from repro.vm.verifier import self_resolver, verify_class

ARITH = "def arith(x: int) -> int:\n    return x * 3 + 1\n"
CHATTY = (
    "def chatty(x: int) -> int:\n"
    "    cb_noop()\n"
    "    return x + 1\n"
)
LOOPER = (
    "def looper(n: int) -> int:\n"
    "    total = 0\n"
    "    i = 0\n"
    "    while i < n:\n"
    "        total = total + i\n"
    "        i = i + 1\n"
    "    return total\n"
)
BLEN = "def blen(data: bytes) -> int:\n    return len(data)\n"
WRITER = (
    "def writer(data: bytes) -> int:\n"
    "    data[0] = 1\n"
    "    return 0\n"
)
DIVIDER = "def divider(x: int) -> int:\n    return 100 // x\n"
#: Cheap common path, expensive certified worst case: a fuel quota
#: between the two admits at load, completes on tier 0, and is short of
#: the kernel's per-row prepayment — the quota-edge deopt.
BRANCHY = (
    "def branchy(x: int) -> int:\n"
    "    if x < 0:\n"
    "        y = x * 3\n"
    "        y = y * 5 + 1\n"
    "        y = y * 7 + 2\n"
    "        y = y * 11 + 3\n"
    "        y = y * 13 + 4\n"
    "        y = y * 17 + 5\n"
    "        y = y * 19 + 6\n"
    "        y = y * 23 + 7\n"
    "        return y\n"
    "    return x + 1\n"
)


def _analyzed(source, name="Tier"):
    callbacks = dict(standard_callback_signatures())
    cls = compile_source(source, name, callbacks=callbacks)
    resolver = self_resolver(cls, callbacks=callbacks)
    verify_class(cls, resolver)
    load_time_analysis(cls, resolver)
    return cls


def _func(source):
    cls = _analyzed(source)
    (func,) = cls.functions.values()
    return func


class TestEligibility:
    def test_pure_arithmetic_is_eligible(self):
        assert kernel_eligibility(_func(ARITH)) is None

    def test_callback_refused(self):
        assert kernel_eligibility(_func(CHATTY)) == REFUSE_CALLBACK

    def test_unbounded_loop_refused(self):
        assert kernel_eligibility(_func(LOOPER)) == REFUSE_UNBOUNDED

    def test_readonly_bytes_param_is_eligible(self):
        assert kernel_eligibility(_func(BLEN)) is None

    def test_written_bytes_param_refused(self):
        assert kernel_eligibility(_func(WRITER)) == REFUSE_MUTABLE_ARRAY

    def test_traps_need_a_flow_certificate(self):
        func = _func(DIVIDER)
        assert kernel_eligibility(func) is None
        func.flows = None
        assert kernel_eligibility(func) == REFUSE_TRAP

    def test_stripping_flows_degrades_array_params_too(self):
        func = _func(BLEN)
        func.flows = None
        assert kernel_eligibility(func) == REFUSE_MUTABLE_ARRAY

    def test_missing_function_refused(self):
        assert kernel_eligibility(None) is not None


def _sandbox_executor(db, source, name, signature="int", fuel=None,
                      callbacks=None):
    fuel_clause = f"FUEL {fuel} " if fuel else ""
    cb_clause = f"CALLBACKS '{callbacks}' " if callbacks else ""
    db.execute(
        f"CREATE FUNCTION {name}({signature}) RETURNS int LANGUAGE JAGUAR "
        f"DESIGN SANDBOX {cb_clause}{fuel_clause}AS '{source}'"
    )
    executor = db.registry.executor_for_query(name)
    executor.begin_query()
    return executor


def _tier0(executor, batch):
    """The baseline: one tier-0 ``LoadedUDF.invoke`` (fresh quota) per row.

    Not ``executor.invoke``: that is a one-row batch, which runs the
    kernel (and would count its own deopts).
    """
    loaded = executor.env.vm.get_udf(executor.definition.name.lower())
    entry = executor.definition.entry
    return [loaded.invoke(entry, args) for args in batch]


class TestKernelExecution:
    def test_batch_results_match_tier0(self):
        batch = [(value,) for value in range(-40, 40)]
        with Database() as db:
            executor = _sandbox_executor(db, ARITH, "arith")
            loaded = db.vm.get_udf("arith")
            assert executor.invoke_batch(batch) == _tier0(executor, batch)
            assert loaded.kernel is not None
            assert loaded.deopts == 0
            executor.end_query()

    def test_kernel_is_compiled_once(self):
        with Database() as db:
            executor = _sandbox_executor(db, ARITH, "arith")
            kernel = db.vm.get_udf("arith").kernel
            assert kernel is not None  # built at CREATE, before any batch
            executor.invoke_batch([(1,), (2,)])
            executor.invoke_batch([(3,), (4,)])
            assert db.vm.get_udf("arith").kernel is kernel
            executor.end_query()


class TestDeoptPaths:
    def test_guard_failure_mid_batch_deopts(self):
        # INT_MAX + 1 fails the kernel's exact-range guard; tier 0
        # wraps it (coerce_argument semantics), so the batch still
        # completes — with results identical to never running the kernel.
        batch = [(7,), (INT_MAX + 1,), (9,)]
        with Database() as db:
            executor = _sandbox_executor(db, ARITH, "arith")
            loaded = db.vm.get_udf("arith")
            assert executor.invoke_batch(batch) == _tier0(executor, batch)
            assert loaded.deopts == 1
            assert loaded.kernel is not None  # one deopt is no storm
            executor.end_query()

    def test_quota_edge_inside_kernel_deopts(self):
        # Certify the worst case, then run with a quota below it: the
        # kernel cannot prepay a row and deopts; tier 0's dynamic meter
        # covers the cheap actual path and completes.
        bound = constant_bound(
            _func(BRANCHY).certificate.fuel_bound
        )
        assert bound is not None and bound > 8
        batch = [(value,) for value in range(16)]
        with Database() as db:
            executor = _sandbox_executor(
                db, BRANCHY, "branchy", fuel=bound - 1
            )
            assert executor.invoke_batch(batch) == _tier0(executor, batch)
            assert db.vm.get_udf("branchy").deopts == 1
            executor.end_query()

    def test_true_exhaustion_raises_like_tier0(self):
        # A row that genuinely cannot finish within quota fails with
        # the same error whether or not the kernel ran first.
        bound = constant_bound(_func(BRANCHY).certificate.fuel_bound)
        fuel = bound // 2  # above the cheap path, below the expensive one
        batch = [(1,), (-5,), (2,)]  # -5 takes the expensive path
        with Database() as db:
            executor = _sandbox_executor(db, BRANCHY, "branchy", fuel=fuel)
            with pytest.raises(FuelExhausted) as kernel_error:
                executor.invoke_batch(batch)
            with pytest.raises(FuelExhausted) as tier0_error:
                _tier0(executor, batch)
            assert str(kernel_error.value) == str(tier0_error.value)
            assert db.vm.get_udf("branchy").deopts == 1
            executor.end_query()

    def test_callback_udf_is_never_promoted(self):
        with Database() as db:
            executor = _sandbox_executor(
                db, CHATTY, "chatty", callbacks="cb_noop"
            )
            for _ in range(5):
                executor.invoke_batch([(value,) for value in range(32)])
            loaded = db.vm.get_udf("chatty")
            assert loaded.kernel is None
            assert loaded.kernel_refusal == REFUSE_CALLBACK
            executor.end_query()

    def test_deopt_storm_demotes(self):
        poison = [(INT_MAX + 1,)]
        with Database() as db:
            executor = _sandbox_executor(db, ARITH, "arith")
            loaded = db.vm.get_udf("arith")
            for _ in range(DEMOTION_DEOPTS):
                executor.invoke_batch(poison)
            assert loaded.kernel is None
            assert loaded.kernel_refusal == REFUSE_DEMOTED
            # Demoted UDFs still answer correctly on tier 0.
            assert executor.invoke_batch([(3,)]) == [10]
            assert loaded.deopts == DEMOTION_DEOPTS
            executor.end_query()
            db.execute("CREATE TABLE t (a INT)")
            plan = "\n".join(
                line for (line,) in db.query(
                    "EXPLAIN SELECT a FROM t WHERE arith(a) > 0"
                )
            )
            assert "tier0(demoted)" in plan
