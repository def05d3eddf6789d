"""Lint findings and the ``python -m repro.analysis`` CLI."""

from pathlib import Path

import pytest

from repro.analysis import lint_class, report
from repro.analysis.lint import ERROR, NOTE, WARNING, load_targets, main
from repro.core.callbacks import standard_callback_signatures
from repro.vm.classfile import K_CALLBACK, PoolEntry
from repro.vm.compiler import compile_source
from repro.vm.verifier import self_resolver, verify_class

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CALLBACKS = dict(standard_callback_signatures())


def verified(source, name="L"):
    cls = compile_source(source, name, callbacks=CALLBACKS)
    verify_class(cls, self_resolver(cls, callbacks=CALLBACKS))
    return cls


def kinds(findings):
    return {finding.kind for finding in findings}


class TestFindings:
    def test_clean_function_has_no_findings(self):
        cls = verified("def f(x: int) -> int:\n    return x + 1\n")
        assert lint_class(cls) == []

    def test_unbounded_loop_is_an_error(self):
        cls = verified("def spin() -> int:\n    while True:\n        pass\n")
        findings = lint_class(cls)
        assert kinds(findings) == {"unbounded-loop"}
        (finding,) = findings
        assert finding.level == ERROR
        assert finding.pc is not None

    def test_alloc_in_loop_warns(self):
        cls = verified(
            "def churn(n: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(n):\n"
            "        a: bytes = bytearray(16)\n"
            "        s = s + len(a)\n"
            "    return s\n"
        )
        findings = [f for f in lint_class(cls) if f.kind == "alloc-in-loop"]
        assert findings
        assert all(f.level == WARNING for f in findings)

    def test_callback_in_loop_warns(self):
        cls = verified(
            "def chatty(n: int) -> int:\n"
            "    s: int = 0\n"
            "    for i in range(n):\n"
            "        s = s + cb_noop()\n"
            "    return s\n"
        )
        findings = [f for f in lint_class(cls) if f.kind == "callback-in-loop"]
        assert len(findings) == 1
        assert "cb_noop" in findings[0].message

    def test_callback_outside_loop_is_not_flagged(self):
        cls = verified("def once() -> int:\n    return cb_noop()\n")
        assert "callback-in-loop" not in kinds(lint_class(cls))

    def test_recursion_is_a_note(self):
        cls = verified(
            "def fact(n: int) -> int:\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * fact(n - 1)\n"
        )
        findings = [f for f in lint_class(cls) if f.kind == "recursive"]
        assert len(findings) == 1
        assert findings[0].level == NOTE

    def test_dead_callback_pool_entry_warns(self):
        cls = verified("def f() -> int:\n    return 1\n")
        # A hand-added pool entry no instruction references: requested
        # attack surface that buys nothing.
        cls.pool.append(PoolEntry(kind=K_CALLBACK, value=("cb_lob_read",)))
        findings = [f for f in lint_class(cls) if f.kind == "dead-callback"]
        assert len(findings) == 1
        assert "cb_lob_read" in findings[0].message

    def test_findings_sorted_errors_first(self):
        cls = verified(
            "def bomb(n: int) -> int:\n"
            "    for i in range(n):\n"
            "        a: bytes = bytearray(16)\n"
            "    while True:\n"
            "        pass\n"
        )
        findings = lint_class(cls)
        assert findings[0].level == ERROR

    def test_report_includes_summary_lines(self):
        cls = verified("def f(x: int) -> int:\n    return x\n")
        lines = report(cls)
        assert any("pure" in line for line in lines)
        assert any("clean" in line for line in lines)

    def test_lint_after_add_function_analyzes_again(self):
        # Adding a function drops every class-level load-time fact, so
        # the next lint analyzes the grown class instead of reading the
        # facts of the old one.
        cls = verified("def f(x: int) -> int:\n    return x + 1\n")
        assert lint_class(cls) == []
        (extra,) = compile_source(
            "def spin() -> int:\n    while True:\n        pass\n", "M"
        ).functions.values()
        cls.add_function(extra)
        assert (cls.analysis, cls.certificates, cls.flows) == (None,) * 3
        verify_class(cls, self_resolver(cls, callbacks=CALLBACKS))
        assert kinds(lint_class(cls)) == {"unbounded-loop"}
        assert set(cls.flows.functions) == {"f", "spin"}


class TestTargetLoading:
    def test_classfile_bytes(self, tmp_path):
        cls = compile_source("def f() -> int:\n    return 1\n", "Bin")
        target = tmp_path / "f.jagc"
        target.write_bytes(cls.to_bytes())
        ((label, loaded),) = load_targets(target)
        assert label == "f.jagc"
        assert loaded.name == "Bin"

    def test_jagscript_source(self, tmp_path):
        target = tmp_path / "my_udf.jag"
        target.write_text("def f(x: int) -> int:\n    return x\n")
        ((_, loaded),) = load_targets(target)
        assert "f" in loaded.functions

    def test_python_file_with_embedded_payloads(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text(
            'SQL = ("CREATE FUNCTION g(int) RETURNS int LANGUAGE JAGUAR '
            "DESIGN SANDBOX AS 'def g(x: int) -> int:\\n    return x'\")\n"
        )
        classes = load_targets(target)
        assert len(classes) == 1
        assert "g" in classes[0][1].functions

    def test_examples_all_load(self):
        total = 0
        for path in sorted(EXAMPLES.glob("*.py")):
            total += len(load_targets(path))
        assert total >= 9  # the examples embed at least nine UDF payloads


class TestCli:
    def test_exit_zero_despite_findings(self, capsys):
        code = main([str(EXAMPLES / "malicious_udfs.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "unbounded-loop" in out
        assert "alloc-in-loop" in out

    def test_strict_fails_on_errors(self, capsys):
        assert main(["--strict", str(EXAMPLES / "malicious_udfs.py")]) == 1

    def test_strict_passes_clean_target(self, tmp_path, capsys):
        target = tmp_path / "ok.jag"
        target.write_text("def f(x: int) -> int:\n    return x + 1\n")
        assert main(["--strict", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_file_is_a_load_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jag")]) == 2

    def test_summaries_printed_per_function(self, capsys):
        code = main([str(EXAMPLES / "stock_investval.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "investval" in out
        assert "natives:sqrt" in out
