"""Resource-bound certification: the abstract interpreter, its consumers
(load gate, metering elision, admission control, optimizer, EXPLAIN),
and the certificates ``python -m repro.analysis`` reports."""

import dataclasses
import json
import threading

import pytest

from repro.analysis import load_time_analysis
from repro.analysis.bounds import constant_bound
from repro.analysis.intervals import Bound, Interval, describe_bound
from repro.analysis.lint import main as lint_main
from repro.core.callbacks import standard_callback_signatures
from repro.errors import (
    AccountRevoked,
    AdmissionRefused,
    FuelExhausted,
    SecurityViolation,
)
from repro.vm.compiler import compile_source
from repro.vm.machine import JaguarVM
from repro.vm.opcodes import Op
from repro.vm.resources import DEFAULT_POLICY, QuotaPolicy
from repro.vm.security import Permissions, SecurityManager
from repro.vm.threadgroups import ThreadGroup, ThreadGroupRegistry
from repro.vm.verifier import self_resolver, verify_class


def compiled(source, name="T"):
    callbacks = dict(standard_callback_signatures())
    cls = compile_source(source, name, callbacks=callbacks)
    verify_class(cls, self_resolver(cls, callbacks=callbacks))
    return cls


def certificates_of(cls):
    """The certificates the loader's pipeline attaches to ``cls``."""
    load_time_analysis(cls, self_resolver(cls))
    return cls.certificates


def certified(source, func="f", name="T"):
    return certificates_of(compiled(source, name)).functions[func]


STRAIGHT = "def f(x: int) -> int:\n    return x + x\n"

CONST_LOOP = (
    "def f(x: int) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(10):\n"
    "        s = s + x\n"
    "    return s\n"
)

ARG_LOOP = (
    "def f(n: int) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(n):\n"
    "        s = s + 1\n"
    "    return s\n"
)

DATA_LOOP = (
    "def f(data: bytes) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(len(data)):\n"
    "        s = s + data[i]\n"
    "    return s\n"
)

SPIN = (
    "def f(x: int) -> int:\n"
    "    while True:\n"
    "        pass\n"
)

CONST_ALLOC_LOOP = (
    "def f(x: int) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(1000):\n"
    "        buf: bytes = bytearray(1048576)\n"
    "        s = s + len(buf)\n"
    "    return s\n"
)

ARG_ALLOC = (
    "def f(x: int) -> int:\n"
    "    buf: bytes = bytearray(x)\n"
    "    return len(buf)\n"
)

CALLER = (
    "def helper(x: int) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(5):\n"
    "        s = s + x\n"
    "    return s\n"
    "def f(x: int) -> int:\n"
    "    return helper(x) + helper(x)\n"
)

RECURSIVE = (
    "def f(x: int) -> int:\n"
    "    if x <= 0:\n"
    "        return 0\n"
    "    return f(x - 1) + 1\n"
)

# Bound takes the then-branch worst case; x = 0 executes a handful of
# instructions.  The gap between the two is what the fallback tests use.
BRANCHY = (
    "def f(x: int) -> int:\n"
    "    s: int = 0\n"
    "    if x > 0:\n"
    "        for i in range(1000):\n"
    "            s = s + 1\n"
    "    return s\n"
)


# ---------------------------------------------------------------------------
# Abstract domains
# ---------------------------------------------------------------------------

class TestInterval:
    def test_const_arithmetic(self):
        v = Interval.const(3).add(Interval.const(4))
        assert v.lo == 7 and v.hi == 7

    def test_mul(self):
        v = Interval.const(3).mul(Interval.const(-2))
        assert v.lo == -6 and v.hi == -6

    def test_join_spans_both(self):
        v = Interval.const(1).join(Interval.const(5))
        assert v.lo == 1 and v.hi == 5

    def test_widen_blows_moving_bounds_to_top(self):
        grown = Interval.const(1).join(Interval.const(2))
        widened = Interval.const(1).widen(grown)
        assert widened.hi == float("inf")

    def test_top_is_top(self):
        assert Interval.top().is_top


class TestBound:
    def test_polynomial_evaluation(self):
        b = Bound.atom("len0", 2.0) + Bound.const(3.0)
        assert b.evaluate(lambda atom: 5.0) == 13.0

    def test_product_of_atoms(self):
        b = Bound.atom("len0") * Bound.atom("pos1")
        assert b.evaluate(lambda atom: 4.0) == 16.0

    def test_join_is_pointwise_max(self):
        j = (Bound.const(3.0)).join(Bound.const(8.0))
        assert j.evaluate(lambda atom: 0.0) == 8.0

    def test_as_python_renders_expression(self):
        b = Bound.atom("len0", 3.0) + Bound.const(2.0)
        expr = b.as_python(lambda atom: "len(L0)")
        assert eval(expr, {"L0": b"abcd"}) == 14

    def test_describe_top(self):
        assert describe_bound(None) == "⊤"

    def test_constant_bound(self):
        assert constant_bound(Bound.const(42.0)) == 42
        assert constant_bound(Bound.atom("len0")) is None
        assert constant_bound(None) is None


# ---------------------------------------------------------------------------
# The certifier
# ---------------------------------------------------------------------------

class TestCertify:
    def test_straight_line_is_exactly_bounded(self):
        cert = certified(STRAIGHT)
        assert cert.fully_bounded
        assert constant_bound(cert.fuel_bound) == cert.min_fuel
        assert constant_bound(cert.mem_bound) == 0
        assert cert.depth_bound == 1

    def test_constant_loop_trip_bound(self):
        cert = certified(CONST_LOOP)
        assert cert.fully_bounded
        assert len(cert.loops) == 1
        loop = cert.loops[0]
        assert constant_bound(loop.trip_bound) == 10
        assert loop.trip_min == 10
        assert constant_bound(cert.fuel_bound) >= 10

    def test_argument_loop_is_symbolic(self):
        cert = certified(ARG_LOOP)
        assert cert.fully_bounded
        assert not cert.fuel_bound.is_constant
        assert cert.fuel_charge([100]) > cert.fuel_charge([0])
        # Trip count could be zero, so the minimum is input-free.
        assert cert.min_fuel <= cert.fuel_charge([0])

    def test_data_loop_scales_with_input_length(self):
        cert = certified(DATA_LOOP)
        assert cert.fully_bounded
        assert "len0" in cert.fuel_bound.atoms
        assert cert.fuel_charge([b"12345678"]) > cert.fuel_charge([b""])

    def test_spin_loop_is_unbounded_with_zero_minimum(self):
        cert = certified(SPIN)
        assert not cert.fully_bounded
        assert cert.fuel_bound is None
        assert cert.fuel_charge([1]) is None
        assert cert.min_fuel < 100

    def test_constant_allocation_loop_has_provable_minimum(self):
        cert = certified(CONST_ALLOC_LOOP)
        assert cert.min_memory >= 1000 * 1048576
        assert constant_bound(cert.mem_bound) >= cert.min_memory

    def test_argument_allocation_has_no_minimum(self):
        cert = certified(ARG_ALLOC)
        assert cert.min_memory == 0
        assert cert.mem_bound is None or not cert.mem_bound.is_constant

    def test_call_costs_are_transitive(self):
        certs = certificates_of(compiled(CALLER)).functions
        helper, caller = certs["helper"], certs["f"]
        # f pays for both helper activations on top of its own code.
        assert caller.fuel_charge([1]) > 2 * helper.fuel_charge([1])
        # The local bound (CALL = 1) is what the JIT charges per method.
        assert caller.local_fuel_charge([1]) < caller.fuel_charge([1])
        assert caller.depth_bound == helper.depth_bound + 1

    def test_recursion_is_top(self):
        cert = certified(RECURSIVE)
        assert cert.fuel_bound is None
        assert cert.depth_bound is None

    def test_certificates_attach_to_class(self):
        cls = compiled(CONST_LOOP)
        rollup = certificates_of(cls)
        assert cls.certificates is rollup
        assert cls.functions["f"].certificate is rollup.functions["f"]

    def test_describe_mentions_bounds(self):
        text = certified(DATA_LOOP).describe()
        assert "fuel≤" in text and "mem≤" in text and "min_fuel=" in text

    def test_counted_increment_is_wrap_free_and_the_accumulator_is_not(self):
        code = compiled(DATA_LOOP).functions["f"].code
        # s is slot 1, i slot 2: only ``i = i + 1`` provably stays in int64.
        adds = {code[pc + 1].arg: pc for pc, ins in enumerate(code)
                if ins.op is Op.IADD}
        assert certified(DATA_LOOP).wrap_free_pcs == (adds[2],)

    def test_step_past_int_max_keeps_the_wrap(self):
        source = (
            "def f(x: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(9223372036854775805, 9223372036854775807, 3):\n"
            "        s = s + 1\n"
            "    return s\n"
        )
        assert certified(source).wrap_free_pcs == ()
        assert certified(SPIN).wrap_free_pcs == ()


GENERIC = (
    "def generic(data: bytes, num_indep: int, num_dep: int,\n"
    "            num_callbacks: int) -> int:\n"
    "    s: int = 0\n"
    "    for j in range(num_indep):\n"
    "        s = s + 1\n"
    "    for p in range(num_dep):\n"
    "        for i in range(len(data)):\n"
    "            s = s + data[i]\n"
    "    for c in range(num_callbacks):\n"
    "        s = s + cb_noop()\n"
    "    return s\n"
)


def _pcs(code, op):
    return [pc for pc, ins in enumerate(code) if ins.op is op]


class TestCertifiedCloneFacts:
    """The facts the JIT's certified clone is emitted from."""

    def test_generic_value_bound_nowrap_and_in_bounds(self):
        cls = compiled(GENERIC)
        cert = certificates_of(cls).functions["generic"]
        code = cls.functions["generic"].code
        assert cert.value_bound == (Bound.atom("pos1")
                                    + Bound.atom("len0", 255)
                                    * Bound.atom("pos2"))
        assert describe_bound(cert.value_bound) == "255*len0*pos2 + pos1"
        # The accumulator's adds, in order: the constant, the byte, the
        # callback result (after the two data loops, so it keeps the wrap).
        s_adds = [pc - 1 for pc in _pcs(code, Op.STORE)
                  if code[pc].arg == 4 and code[pc - 1].op is Op.IADD]
        assert len(s_adds) == 3
        assert cert.nowrap_pcs == tuple(s_adds[:2])
        assert cert.in_bounds_pcs == tuple(_pcs(code, Op.ALOAD))
        assert [(loop.counter, loop.stop_slot, loop.step)
                for loop in cert.loops] == [(5, 6, 1), (7, 8, 1),
                                            (9, 10, 1), (11, 12, 1)]

    def test_counted_loops_record_a_down_step(self):
        (loop,) = certified(
            "def f(n: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(n, 0, -1):\n"
            "        s = s + 2\n"
            "    return s\n"
        ).loops
        assert (loop.counter, loop.step) == (2, -1)
        assert certified(SPIN).loops[0].counter is None

    def test_array_stored_in_the_loop_is_not_in_bounds(self):
        cert = certified(
            "def f(data: bytes) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(len(data)):\n"
            "        s = s + data[i]\n"
            "        data = bytearray(len(data))\n"
            "    return s\n"
        )
        assert cert.in_bounds_pcs == ()

    def test_stop_stored_in_the_loop_is_not_in_bounds(self):
        cert = certified(
            "def f(data: bytes) -> int:\n"
            "    s: int = 0\n"
            "    i: int = 0\n"
            "    n: int = len(data)\n"
            "    while i < n:\n"
            "        s = s + data[i]\n"
            "        n = n - 1\n"
            "        i = i + 1\n"
            "    return s\n"
        )
        assert cert.in_bounds_pcs == ()
        assert all(loop.counter is None for loop in cert.loops)

    def test_down_counting_index_is_not_in_bounds(self):
        cert = certified(
            "def f(data: bytes) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(len(data) - 1, -1, -1):\n"
            "        s = s + data[i]\n"
            "    return s\n"
        )
        assert cert.in_bounds_pcs == ()

    def test_data_loop_read_is_in_bounds(self):
        cls = compiled(DATA_LOOP)
        cert = certificates_of(cls).functions["f"]
        assert cert.in_bounds_pcs == tuple(
            _pcs(cls.functions["f"].code, Op.ALOAD))
        assert describe_bound(cert.value_bound) == "255*len0"

    def test_parameter_addend_keeps_the_wrap(self):
        cert = certified(CONST_LOOP)   # s = s + x, ten times
        assert cert.nowrap_pcs == () and cert.value_bound is None

    def test_constant_value_bound_is_exact_near_int_max(self):
        cert = certified(
            "def f(x: int) -> int:\n"
            "    s: int = 9223372036854775000\n"
            "    for i in range(800):\n"
            "        s = s + 1\n"
            "    return s\n"
        )
        assert cert.value_bound.constant_value == 9223372036854775800
        assert len(cert.nowrap_pcs) == 1


# ---------------------------------------------------------------------------
# QuotaPolicy (satellite: no more mutated globals)
# ---------------------------------------------------------------------------

class TestQuotaPolicy:
    def test_overrides_derive_without_mutating(self):
        derived = DEFAULT_POLICY.with_overrides(fuel=1234)
        assert derived.fuel == 1234
        assert derived.memory == DEFAULT_POLICY.memory
        assert DEFAULT_POLICY.fuel != 1234

    def test_rejects_nonpositive_quotas(self):
        with pytest.raises(ValueError):
            QuotaPolicy(fuel=0)

    def test_account_is_funded_to_policy(self):
        account = QuotaPolicy(fuel=77, memory=88, max_depth=9).account()
        assert account.fuel == 77
        assert account.memory == 88
        assert account.max_depth == 9

    def test_vm_policy_not_touched_by_per_udf_override(self):
        vm = JaguarVM(use_jit=False)
        vm.load_udf("tiny", [compiled(STRAIGHT, "A")], fuel=5000)
        assert vm.policy.fuel == DEFAULT_POLICY.fuel
        assert vm._udfs["tiny"].policy.fuel == 5000


class TestAccountRevoked:
    def test_revoked_account_raises_distinct_error(self):
        account = DEFAULT_POLICY.account()
        account.revoke()
        with pytest.raises(AccountRevoked):
            account.out_of_fuel()

    def test_account_revoked_is_fuel_exhausted(self):
        assert issubclass(AccountRevoked, FuelExhausted)


# ---------------------------------------------------------------------------
# Layer 1: the load gate
# ---------------------------------------------------------------------------

class TestLoadGate:
    def test_provable_overconsumption_rejected_at_load(self):
        vm = JaguarVM(use_jit=False)
        with pytest.raises(SecurityViolation, match="rejected at load"):
            vm.load_udf(
                "bomb", [compiled(CONST_ALLOC_LOOP, "Bomb")],
                memory=64 * 1024 * 1024,
            )

    def test_audit_log_records_static_bounds(self):
        rollup = certificates_of(compiled(CONST_ALLOC_LOOP, "Bomb"))
        security = SecurityManager(
            class_name="Bomb", permissions=Permissions.none()
        )
        with pytest.raises(SecurityViolation):
            security.check_resource_bounds(
                rollup, fuel=10**9, memory=64 * 1024 * 1024
            )
        denied = [r for r in security.audit_log
                  if r.action == "static:bounds" and not r.allowed]
        assert denied and "min_mem" in denied[0].target

    def test_input_dependent_consumption_is_admitted(self):
        vm = JaguarVM(use_jit=False)
        udf = vm.load_udf(
            "stretchy", [compiled(ARG_ALLOC, "Stretchy")],
            memory=1024,
        )
        # Proven minimum is zero, so the gate admits it; the dynamic
        # memory meter still kills an over-quota run.
        from repro.errors import MemoryQuotaExceeded
        with pytest.raises(MemoryQuotaExceeded):
            udf.invoke("f", [1_000_000])

    def test_generous_quota_admits_the_same_class(self):
        vm = JaguarVM(use_jit=False)
        udf = vm.load_udf(
            "big", [compiled(CONST_ALLOC_LOOP, "Big")],
            fuel=10**9, memory=2 * 1000 * 1048576,
        )
        assert udf.main_class.certificates is not None


# ---------------------------------------------------------------------------
# Layer 2: metering elision (interpreter + JIT)
# ---------------------------------------------------------------------------

def load_variant(vm, source, name, strip):
    udf = vm.load_udf(name, [compiled(source, name.title())])
    if strip:
        for func in udf.main_class.functions.values():
            func.certificate = None
        udf.main_class.certificates = None
    return udf


class TestInterpreterElision:
    def test_certified_run_prepays_the_bound(self):
        vm = JaguarVM(use_jit=False)
        udf = load_variant(vm, DATA_LOOP, "certified", strip=False)
        cert = udf.main_class.functions["f"].certificate
        ctx = udf.make_context()
        assert udf.invoke("f", [b"abc"], context=ctx) == sum(b"abc")
        used = ctx.account.fuel_limit - ctx.account.fuel
        assert used == cert.fuel_charge([b"abc"])

    def test_stripped_run_meters_dynamically(self):
        vm = JaguarVM(use_jit=False)
        bounded = load_variant(vm, BRANCHY, "bounded", strip=False)
        dynamic = load_variant(vm, BRANCHY, "dynamic", strip=True)
        cert = bounded.main_class.functions["f"].certificate
        ctx = dynamic.make_context()
        assert dynamic.invoke("f", [0], context=ctx) == 0
        used = ctx.account.fuel_limit - ctx.account.fuel
        # The not-taken branch costs far less than the certified worst
        # case the elided mode would have prepaid.
        assert used < cert.fuel_charge([0])

    def test_tight_quota_falls_back_to_dynamic_metering(self):
        vm = JaguarVM(use_jit=False)
        udf = vm.load_udf(
            "tight", [compiled(BRANCHY, "Tight")], fuel=100
        )
        cert = udf.main_class.functions["f"].certificate
        assert cert.fuel_charge([0]) > 100  # bound exceeds the quota...
        ctx = udf.make_context()
        assert udf.invoke("f", [0], context=ctx) == 0  # ...actual fits
        used = ctx.account.fuel_limit - ctx.account.fuel
        assert 0 < used <= 100

    def test_tight_quota_still_kills_the_expensive_path(self):
        vm = JaguarVM(use_jit=False)
        udf = vm.load_udf(
            "tight2", [compiled(BRANCHY, "Tight2")], fuel=100
        )
        with pytest.raises(FuelExhausted):
            udf.invoke("f", [1])

    def test_revoked_account_dies_despite_certificate(self):
        vm = JaguarVM(use_jit=False)
        udf = load_variant(vm, CONST_LOOP, "revokable", strip=False)
        ctx = udf.make_context()
        ctx.account.revoke()
        with pytest.raises(AccountRevoked):
            udf.invoke("f", [1], context=ctx)


class TestJitElision:
    def test_certified_and_stripped_agree(self):
        vm = JaguarVM(use_jit=True)
        certified_udf = load_variant(vm, DATA_LOOP, "jcert", strip=False)
        dynamic_udf = load_variant(vm, DATA_LOOP, "jdyn", strip=True)
        data = bytes(range(50))
        assert (certified_udf.invoke("f", [data])
                == dynamic_udf.invoke("f", [data]) == sum(data))

    def test_certified_jit_charges_the_method_bound(self):
        vm = JaguarVM(use_jit=True)
        udf = load_variant(vm, DATA_LOOP, "jpay", strip=False)
        cert = udf.main_class.functions["f"].certificate
        ctx = udf.make_context()
        udf.invoke("f", [b"xyz"], context=ctx)
        used = ctx.account.fuel_limit - ctx.account.fuel
        assert used == cert.local_fuel_charge([b"xyz"])

    def test_revoked_account_dies_despite_certificate(self):
        vm = JaguarVM(use_jit=True)
        udf = load_variant(vm, CONST_LOOP, "jrevoke", strip=False)
        ctx = udf.make_context()
        ctx.account.revoke()
        with pytest.raises(AccountRevoked):
            udf.invoke("f", [1], context=ctx)


PROBE = (
    "def probe(data: bytes, num_callbacks: int) -> int:\n"
    "    s: int = len(data) + data[0]\n"
    "    for c in range(num_callbacks):\n"
    "        s = s + cb_noop()\n"
    "    return s\n"
)


class TestSameGasInBothBodies:
    """Same code and inputs, same gas, whichever JIT body runs: the
    certified clone, the prepaid checked body, or the metered one."""

    POLICY = QuotaPolicy(fuel=30_000, memory=1 << 12, max_depth=5)
    CASES = [
        ("generic", GENERIC, [bytes(range(40)), 150, 3, 2]),
        ("probe", PROBE, [b"\x05abc", 12]),
    ]

    def _udf(self, name, source, variant):
        vm = JaguarVM(use_jit=True, policy=self.POLICY)
        udf = vm.load_udf(
            name, [compiled(source, name.title())],
            permissions=Permissions.with_callbacks("cb_noop"),
        )
        func = udf.main_class.functions[name]
        if variant == "checked":
            # A value guard that never holds (pc -1 adds nothing): the
            # prologue prepays, then the checked body runs unmetered.
            func.certificate = dataclasses.replace(
                func.certificate,
                nowrap_pcs=func.certificate.nowrap_pcs or (-1,),
                value_bound=Bound.const(2 ** 63),
            )
        elif variant == "stripped":
            func.certificate = None
        return udf

    def _call(self, udf, name, args, policy):
        account = policy.account()
        ctx = udf.make_context(account=account,
                               callbacks={"cb_noop": lambda: 0})
        try:
            outcome = udf.invoke(name, args, context=ctx)
        except FuelExhausted as exc:
            outcome = (type(exc), str(exc))
        return outcome, account.fuel

    @pytest.mark.parametrize("name, source, args", CASES)
    def test_clone_and_prepaid_checked_body_charge_alike(self, name,
                                                         source, args):
        clone = self._udf(name, source, "clone")
        checked = self._udf(name, source, "checked")
        got = self._call(clone, name, args, self.POLICY)
        assert got == self._call(checked, name, args, self.POLICY)
        charge = clone.main_class.functions[name].certificate \
            .local_fuel_charge(args)
        assert got[1] == self.POLICY.fuel - charge

    @pytest.mark.parametrize("name, source, args", CASES)
    def test_below_the_bound_every_body_meters_alike(self, name, source,
                                                     args):
        clone = self._udf(name, source, "clone")
        charge = clone.main_class.functions[name].certificate \
            .local_fuel_charge(args)
        tight = self.POLICY.with_overrides(fuel=charge // 2)
        got = self._call(clone, name, args, tight)
        assert got[0] == (FuelExhausted,
                          f"instruction quota of {charge // 2} exhausted")
        for variant in ("checked", "stripped"):
            udf = self._udf(name, source, variant)
            assert self._call(udf, name, args, tight) == got


# ---------------------------------------------------------------------------
# Layer 3: thread-group admission control
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_reserve_within_budget(self):
        group = ThreadGroup("g", fuel_budget=100)
        group.reserve(60, 0)
        assert group.reserved["fuel"] == 60
        group.release(60, 0)
        assert group.reserved["fuel"] == 0

    def test_overcommit_refused(self):
        group = ThreadGroup("g", fuel_budget=100)
        group.reserve(60, 0)
        with pytest.raises(AdmissionRefused):
            group.reserve(50, 0)

    def test_claim_over_total_budget_refused_even_with_wait(self):
        group = ThreadGroup("g", fuel_budget=100)
        with pytest.raises(AdmissionRefused, match="outright"):
            group.reserve(150, 0, wait=True, timeout=5.0)

    def test_wait_queues_until_release(self):
        group = ThreadGroup("g", fuel_budget=100)
        group.reserve(80, 0)
        admitted = threading.Event()

        def waiter():
            group.reserve(50, 0, wait=True, timeout=5.0)
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        assert not admitted.wait(0.05)
        group.release(80, 0)
        assert admitted.wait(5.0)
        t.join()

    def test_wait_timeout_refused(self):
        group = ThreadGroup("g", fuel_budget=100)
        group.reserve(80, 0)
        with pytest.raises(AdmissionRefused):
            group.reserve(50, 0, wait=True, timeout=0.05)

    def test_killed_group_refuses_with_security_violation(self):
        group = ThreadGroup("g", fuel_budget=100)
        group.kill()
        with pytest.raises(SecurityViolation):
            group.reserve(10, 0)

    def test_memory_budget_enforced_independently(self):
        group = ThreadGroup("g", memory_budget=1000)
        group.reserve(10**9, 900)  # no fuel budget -> fuel unconstrained
        with pytest.raises(AdmissionRefused):
            group.reserve(0, 200)

    def test_registry_set_budget(self):
        registry = ThreadGroupRegistry()
        group = registry.set_budget("udfx", fuel=42, memory=84)
        assert group is registry.group_for("udfx")
        assert group.fuel_budget == 42 and group.memory_budget == 84


class TestAdmissionEndToEnd:
    def test_unbounded_udf_refused_when_budget_is_tight(self, db):
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute(
            "CREATE FUNCTION spin(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def spin(x: int) -> int:\n"
            "    while True:\n        pass\n'"
        )
        # No certificate bound -> the claim is the full account quota,
        # which cannot fit a 10k budget; refused before the UDF runs.
        db.thread_groups.set_budget("spin", fuel=10_000)
        with pytest.raises(AdmissionRefused):
            db.query("SELECT spin(v) FROM t")

    def test_certified_udf_admitted_under_same_budget(self, db):
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (3)")
        db.execute(
            "CREATE FUNCTION small(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def small(x: int) -> int:\n"
            "    return x + x'"
        )
        db.thread_groups.set_budget("small", fuel=10_000)
        assert db.query("SELECT small(v) FROM t") == [(6,)]
        # The reservation is returned after the query.
        assert db.thread_groups.group_for("small").reserved["fuel"] == 0


# ---------------------------------------------------------------------------
# Layer 4: optimizer + EXPLAIN, and the CREATE FUNCTION gate
# ---------------------------------------------------------------------------

class TestSqlIntegration:
    def test_explain_shows_bounded_annotation(self, db):
        db.execute("CREATE TABLE t (v INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute(
            "CREATE FUNCTION sq(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def sq(x: int) -> int:\n    return x * x'"
        )
        text = "\n".join(
            row[0] for row in
            db.query("EXPLAIN SELECT v FROM t WHERE sq(v) > 0")
        )
        assert "bounded(fuel≤" in text and "mem≤" in text

    def test_certified_constant_bound_caps_derived_cost(self, db):
        db.execute(
            "CREATE FUNCTION sq(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def sq(x: int) -> int:\n    return x * x'"
        )
        definition = db.registry.get("sq")
        cert = db.vm.get_udf("sq").main_class.functions["sq"].certificate
        fuel_const = constant_bound(cert.fuel_bound)
        assert fuel_const is not None
        assert definition.cost.cost_per_call <= max(float(fuel_const), 1.0)

    def test_alloc_bomb_rejected_at_create_function(self, db):
        with pytest.raises(SecurityViolation, match="provably allocates"):
            db.execute(
                "CREATE FUNCTION bomb(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS 'def bomb(x: int) -> int:\n"
                "    s: int = 0\n"
                "    for i in range(1000000):\n"
                "        buf: bytes = bytearray(1048576)\n"
                "        s = s + len(buf)\n"
                "    return s'"
            )
        assert not db.registry.has("bomb")


# ---------------------------------------------------------------------------
# Certificates through ``python -m repro.analysis``
# ---------------------------------------------------------------------------

class TestBoundsCli:
    def test_prints_certificates(self, tmp_path, capsys):
        target = tmp_path / "ok.jag"
        target.write_text(DATA_LOOP)
        assert lint_main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "fuel≤" in out and "trips" in out

    def test_json_lists_wrap_free_pcs(self, tmp_path, capsys):
        target = tmp_path / "ok.jag"
        target.write_text(DATA_LOOP)
        assert lint_main([str(target), "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)["classes"]
        listed = doc["functions"]["f"]["bounds"]["wrap_free_pcs"]
        assert listed == list(certified(DATA_LOOP).wrap_free_pcs) != []

    def test_lists_the_certified_clone_facts(self, tmp_path, capsys):
        target = tmp_path / "ok.jag"
        target.write_text(DATA_LOOP)
        cert = certified(DATA_LOOP)
        assert lint_main([str(target), "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)["classes"]
        facts = doc["functions"]["f"]["bounds"]
        assert facts["nowrap_pcs"] == list(cert.nowrap_pcs) != []
        assert facts["value_bound"] == "255*len0"
        assert facts["in_bounds_pcs"] == list(cert.in_bounds_pcs) != []
        (loop,) = facts["loops"]
        assert (loop["counter"], loop["stop_slot"], loop["step"]) == (2, 3, 1)
        assert lint_main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "value_bound=255*len0" in out and "counter L2 to L3" in out
        assert f"in_bounds_pcs={list(cert.in_bounds_pcs)}" in out

    def test_unbounded_function_reported_not_failed(self, tmp_path, capsys):
        target = tmp_path / "spin.jag"
        target.write_text(SPIN)
        assert lint_main([str(target)]) == 0
        assert "fuel≤⊤" in capsys.readouterr().out

    def test_unloadable_target_exits_two(self, tmp_path):
        target = tmp_path / "broken.jag"
        target.write_text("def f(:\n")
        # Load/verify failures exit 2 with or without --strict.
        assert lint_main([str(target)]) == 2
        assert lint_main([str(target), "--strict"]) == 2

    def test_directory_target_expands_members(self, tmp_path, capsys):
        (tmp_path / "a.jag").write_text(STRAIGHT)
        (tmp_path / "b.jag").write_text(CONST_LOOP)
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "a.jag" in out and "b.jag" in out


# ---------------------------------------------------------------------------
# Satellite: lint CLI exit codes (PR 1's CLI, previously untested)
# ---------------------------------------------------------------------------

class TestLintCliExitCodes:
    def test_strict_clean_input_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.jag"
        target.write_text(STRAIGHT)
        assert lint_main([str(target), "--strict"]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_strict_warning_only_input_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "warn.jag"
        target.write_text(CONST_ALLOC_LOOP)
        assert lint_main([str(target), "--strict"]) == 0
        assert "alloc-in-loop" in capsys.readouterr().out

    def test_strict_error_input_exits_one(self, tmp_path, capsys):
        target = tmp_path / "err.jag"
        target.write_text(SPIN)
        assert lint_main([str(target), "--strict"]) == 1
        assert "unbounded-loop" in capsys.readouterr().out

    def test_error_input_without_strict_exits_zero(self, tmp_path):
        target = tmp_path / "err.jag"
        target.write_text(SPIN)
        assert lint_main([str(target)]) == 0

    def test_unloadable_input_exits_two(self, tmp_path):
        target = tmp_path / "broken.jag"
        target.write_text("def f(:\n")
        assert lint_main([str(target), "--strict"]) == 2
