"""Information-flow certification: taint, escape, trap safety, the gate."""

import json
from pathlib import Path

import pytest

from repro.analysis import load_time_analysis
from repro.analysis.lint import main
from repro.core.callbacks import (
    SINK_CALLBACKS,
    standard_callback_signatures,
    standard_sink_callbacks,
)
from repro.errors import SecurityViolation
from repro.vm.compiler import compile_source
from repro.vm.machine import JaguarVM
from repro.vm.security import Permissions, SecurityManager
from repro.vm.verifier import self_resolver, verify_class

CALLBACKS = dict(standard_callback_signatures())

LEAKY = (
    "def leak(x: int) -> int:\n"
    "    disguised: int = x * 31 + 7\n"
    "    logged: int = cb_log(disguised)\n"
    "    return logged\n"
)

CLEAN_LOGGER = (
    "def heartbeat(x: int) -> int:\n"
    "    ok: int = cb_log(1)\n"
    "    return ok\n"
)


def flows_of(source, name="C"):
    cls = compile_source(source, name, callbacks=CALLBACKS)
    resolver = self_resolver(cls, callbacks=CALLBACKS)
    verify_class(cls, resolver)
    # The resolver matters: without callback signatures the passes
    # cannot attribute per-argument taint (the classloader always
    # supplies one).
    load_time_analysis(cls, resolver)
    return cls.flows


def cert_of(source, func="f", name="C"):
    return flows_of(source, name=name).functions[func]


class TestTaint:
    def test_argument_reaches_return(self):
        cert = cert_of("def f(x: int) -> int:\n    return x + 1\n")
        assert cert.return_sources == ("arg0",)

    def test_constant_return_is_untainted(self):
        cert = cert_of("def f(x: int) -> int:\n    return 42\n")
        assert cert.return_sources == ()

    def test_callback_result_gets_cb_label(self):
        cert = cert_of(
            "def f(x: int) -> int:\n    return cb_lob_length(x)\n"
        )
        assert cert.return_sources == ("cb:cb_lob_length",)
        (flow,) = cert.callback_flows
        assert flow.callback == "cb_lob_length"
        assert flow.arg_sources == (("arg0",),)
        assert flow.tainted == ("arg0",)

    def test_untainted_callback_argument(self):
        cert = cert_of(CLEAN_LOGGER, func="heartbeat")
        (flow,) = cert.callback_flows
        assert flow.tainted == ()

    def test_taint_survives_arithmetic_disguise(self):
        cert = cert_of(LEAKY, func="leak")
        (flow,) = cert.callback_flows
        assert flow.callback == "cb_log"
        assert flow.tainted == ("arg0",)

    def test_substitution_through_intra_class_call(self):
        # ``outer`` passes its own parameter into ``inner``; the callee's
        # ``arg0`` labels must be rewritten into the caller's frame.
        flows = flows_of(
            "def inner(a: int) -> int:\n"
            "    return a\n"
            "def outer(y: int) -> int:\n"
            "    z: int = inner(y) + inner(3)\n"
            "    return z\n"
        )
        assert flows.functions["outer"].return_sources == ("arg0",)

    def test_callee_callback_flow_imported_into_caller(self):
        # ``inner`` logs its argument; the caller feeds it tuple data, so
        # the caller's certificate must show a tainted cb_log flow even
        # though the CALLBACK instruction lives in the callee.
        flows = flows_of(
            "def inner(a: int) -> int:\n"
            "    return cb_log(a)\n"
            "def outer(y: int) -> int:\n"
            "    return inner(y)\n"
        )
        outer = flows.functions["outer"]
        assert any(
            flow.callback == "cb_log" and "arg0" in flow.tainted
            for flow in outer.callback_flows
        )
        # A constant at the call site keeps the imported flow clean.
        clean = flows_of(
            "def inner(a: int) -> int:\n"
            "    return cb_log(a)\n"
            "def outer(y: int) -> int:\n"
            "    return inner(7)\n"
        ).functions["outer"]
        assert all(flow.tainted == () for flow in clean.callback_flows)


class TestEscape:
    def test_read_only_bytes_param(self):
        cert = cert_of("def f(data: bytes) -> int:\n    return len(data)\n")
        assert cert.readonly_params == (0,)

    def test_mutation_kills_readonly(self):
        cert = cert_of(
            "def f(data: bytes) -> int:\n"
            "    data[0] = 1\n"
            "    return len(data)\n"
        )
        assert cert.readonly_params == ()

    def test_returned_param_is_not_readonly(self):
        cert = cert_of("def f(data: bytes) -> bytes:\n    return data\n")
        assert cert.readonly_params == ()

    def test_scalar_params_are_not_listed(self):
        cert = cert_of("def f(x: int) -> int:\n    return x\n")
        assert cert.readonly_params == ()

    def test_local_allocation_is_arena_safe(self):
        cert = cert_of(
            "def f(n: int) -> int:\n"
            "    buf: bytes = bytearray(8)\n"
            "    return len(buf)\n"
        )
        assert cert.local_allocs
        assert cert.escaping_allocs == ()
        assert cert.arena_safe

    def test_returned_allocation_escapes(self):
        cert = cert_of(
            "def f(n: int) -> bytes:\n"
            "    buf: bytes = bytearray(8)\n"
            "    return buf\n"
        )
        assert cert.escaping_allocs
        assert not cert.arena_safe


class TestTrapSafety:
    def test_plain_arithmetic_is_trap_free(self):
        cert = cert_of("def f(x: int) -> int:\n    return x + 1\n")
        assert cert.trap_free

    def test_division_by_nonzero_constant_is_trap_free(self):
        cert = cert_of("def f(x: int) -> int:\n    return x // 3\n")
        assert cert.trap_free

    def test_division_by_argument_may_trap(self):
        cert = cert_of("def f(x: int) -> int:\n    return 10 // x\n")
        assert not cert.trap_free
        assert cert.trap_pcs

    def test_unproven_index_may_trap(self):
        cert = cert_of("def f(data: bytes) -> int:\n    return data[0]\n")
        assert not cert.trap_free


class TestRecursionFallback:
    def test_recursive_function_gets_conservative_certificate(self):
        cert = cert_of(
            "def f(x: int) -> int:\n"
            "    if x <= 0:\n"
            "        return 0\n"
            "    return f(x - 1) + 1\n"
        )
        assert "arg0" in cert.return_sources
        assert cert.readonly_params == ()
        assert not cert.trap_free

    def test_unverified_class_is_refused(self):
        cls = compile_source(
            "def f(x: int) -> int:\n    return x\n", "C",
            callbacks=CALLBACKS,
        )
        with pytest.raises(ValueError, match="verified"):
            load_time_analysis(cls, self_resolver(cls, callbacks=CALLBACKS))


class TestSinkPolicy:
    def test_policy_constants(self):
        assert "cb_log" in SINK_CALLBACKS
        assert standard_sink_callbacks() == SINK_CALLBACKS

    def test_check_flows_denial_and_audit(self):
        flows = flows_of(LEAKY, name="udf_leak")
        manager = SecurityManager(
            class_name="udf_leak",
            permissions=Permissions(
                callbacks=frozenset({"cb_log"}),
                sinks=frozenset({"cb_log"}),
            ),
        )
        with pytest.raises(SecurityViolation) as exc:
            manager.check_flows(flows)
        assert "tuple-derived data" in str(exc.value)
        assert "cb_log" in str(exc.value)
        (record,) = [r for r in manager.audit_log if not r.allowed]
        assert record.action == "static:flows"
        assert "arg0" in record.target

    def test_check_flows_allows_clean_sink_and_records_it(self):
        flows = flows_of(CLEAN_LOGGER, name="udf_heartbeat")
        manager = SecurityManager(
            class_name="udf_heartbeat",
            permissions=Permissions(
                callbacks=frozenset({"cb_log"}),
                sinks=frozenset({"cb_log"}),
            ),
        )
        manager.check_flows(flows)
        (record,) = manager.audit_log
        assert record.action == "static:flows"
        assert record.allowed

    def test_non_sink_callbacks_are_not_gated(self):
        flows = flows_of(
            "def f(x: int) -> int:\n    return cb_lob_length(x)\n"
        )
        manager = SecurityManager(
            class_name="C",
            permissions=Permissions(
                callbacks=frozenset({"cb_lob_length"}),
                sinks=standard_sink_callbacks(),
            ),
        )
        manager.check_flows(flows)  # tainted, but not a sink: fine
        assert manager.audit_log == []


class TestMachineLoadGate:
    def _load(self, source, name):
        machine = JaguarVM(use_jit=False)
        cls = compile_source(source, f"udf_{name}", callbacks=CALLBACKS)
        return machine.load_udf(
            name,
            [cls.to_bytes()],
            permissions=Permissions(
                callbacks=frozenset({"cb_log"}),
                sinks=standard_sink_callbacks(),
            ),
        )

    def test_exfiltrating_udf_refused_at_load(self):
        with pytest.raises(SecurityViolation) as exc:
            self._load(LEAKY, "leak")
        assert "tuple-derived data" in str(exc.value)
        assert "rejected at load" in str(exc.value)

    def test_clean_logger_loads(self):
        loaded = self._load(CLEAN_LOGGER, "heartbeat")
        assert loaded is not None


class TestFlowsCli:
    """Flow facts through ``python -m repro.analysis``: a tainted sink
    flow is an error-level ``tainted-sink-flow`` finding."""

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_refuse_and_accept_verdicts(self, tmp_path, capsys):
        leaky = self._write(tmp_path, "leaky.jag", LEAKY)
        clean = self._write(tmp_path, "clean.jag", CLEAN_LOGGER)
        assert main([str(leaky), str(clean)]) == 0
        out = capsys.readouterr().out
        leaky_part, clean_part = out.split("-- clean.jag")
        assert (
            "error: [tainted-sink-flow] Leaky.leak@7: passes tuple-derived "
            "data (arg0) to sink callback 'cb_log'"
        ) in leaky_part
        assert "tainted-sink-flow" not in clean_part
        assert "clean: no findings" in clean_part
        assert "trap" in out  # describe() lines are printed

    def test_strict_fails_on_refusal(self, tmp_path, capsys):
        leaky = self._write(tmp_path, "leaky.jag", LEAKY)
        assert main(["--strict", str(leaky)]) == 1
        clean = self._write(tmp_path, "clean.jag", CLEAN_LOGGER)
        assert main(["--strict", str(clean)]) == 0

    def test_json_document(self, tmp_path, capsys):
        leaky = self._write(tmp_path, "leaky.jag", LEAKY)
        assert main(["--json", str(leaky)]) == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["classes"]
        assert entry["flow_verdict"] == "refuse"
        (leak,) = [
            f for f in entry["findings"] if f["kind"] == "tainted-sink-flow"
        ]
        assert (leak["level"], leak["where"]) == ("error", "Leaky.leak")
        cert = entry["functions"]["leak"]["flows"]
        assert cert["callback_flows"][0]["callback"] == "cb_log"
        assert leak["pc"] == cert["callback_flows"][0]["pc"]
        assert doc["failures"] == []

    def test_unloadable_target_exits_two(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.jag", "def broken(:::\n")
        assert main([str(bad)]) == 2
        assert main(["--strict", str(bad)]) == 2

    def test_examples_partition(self, capsys):
        examples = Path(__file__).resolve().parents[2] / "examples"
        assert main(["--json", str(examples)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The tree holds both the exfiltrating payload and clean ones.
        verdicts = {entry["flow_verdict"] for entry in doc["classes"]}
        assert verdicts == {"refuse", "accept"}


class TestReportCli:
    def test_single_document_covers_every_certificate(self, tmp_path, capsys):
        target = tmp_path / "probe.jag"
        target.write_text("def probe(data: bytes) -> int:\n    return len(data)\n")
        assert main(["--json", str(target)]) == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["classes"]
        report = entry["functions"]["probe"]
        assert set(report) == {
            "effects", "bounds", "cost", "inline", "flows", "tier",
        }
        assert report["effects"]["pure"] is True
        assert report["bounds"]["fuel_bound"] == "3"
        assert report["cost"]["derived"] is True
        assert report["flows"]["readonly_params"] == [0]
        assert report["flows"]["trap_free"] is True
        assert report["tier"] == {"eligible": True, "refusal": None}
        assert entry["flow_verdict"] == "accept"

    def test_report_flags_leak(self, tmp_path, capsys):
        target = tmp_path / "leaky.jag"
        target.write_text(LEAKY)
        assert main(["--json", str(target)]) == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["classes"]
        assert entry["flow_verdict"] == "refuse"

    def test_unloadable_target_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jag"
        bad.write_text("def broken(:::\n")
        assert main(["--json", str(bad)]) == 2
