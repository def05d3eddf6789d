"""UDF lint: surface load-time facts and findings before deployment.

``python -m repro.analysis [--json] [--strict] TARGET...`` verifies each
class found at the targets and runs the class loader's own pipeline over
it (:func:`~repro.analysis.pipeline.load_time_analysis`), so what it
prints is what CREATE FUNCTION would know: per function the effect
summary, resource certificate, flow certificate, tier-1 verdict and
decompile result, then the class's findings:

* **unbounded-loop** (error) — a loop with no exit edge; only the fuel
  quota will ever stop it, and it will eat its whole budget doing so;
* **tainted-sink-flow** (error) — tuple-derived data reaches a sink
  callback, so CREATE FUNCTION refuses the class (``static:flows``);
* **alloc-in-loop** (warning) — an allocation-accounted opcode inside a
  loop body: the memory quota is charged per iteration, a slow-burn way
  to hit the limit mid-query;
* **callback-in-loop** (warning) — a sandbox→server boundary crossing
  per iteration, the dominant cost term of Section 5.6;
* **dead-callback** (warning) — a callback constant-pool entry no
  instruction references: requested attack surface that buys nothing;
* **unknown-call** (warning) — a CALL whose effects could not be
  resolved, poisoning purity for the caller;
* **recursive** (note) — recursion whose depth only the fuel/call-depth
  quotas bound.

Targets may be a binary classfile (``JAGC`` magic), a JagScript source
file, a Python file — for the latter, every string literal (and every
``AS '...'`` payload of an embedded ``CREATE FUNCTION``) is tried as
JagScript, so the ``examples/`` scripts lint without modification — or
a directory of such files.

Exit codes: ``2`` when a target fails to load or verify (an
unanalyzable input is never a clean run), else ``1`` under ``--strict``
when any error-level finding is reported, else ``0``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ClassFormatError, CompileError, LinkError, VerifyError
from ..vm.classfile import MAGIC, ClassFile, K_CALLBACK
from ..vm.compiler import compile_source
from ..vm.opcodes import OPS, Op
from ..vm.tier import kernel_eligibility
from ..vm.verifier import self_resolver, verify_class
from .costs import derive_cost_hints
from .decompile import InlineTemplate
from .intervals import describe_bound
from .pipeline import load_time_analysis

ERROR = "error"
WARNING = "warning"
NOTE = "note"

_LEVEL_ORDER = {ERROR: 0, WARNING: 1, NOTE: 2}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a function (and pc if known)."""

    level: str
    kind: str
    where: str                  # "Class.func" or bare class name
    pc: Optional[int]
    message: str

    def render(self) -> str:
        at = f"@{self.pc}" if self.pc is not None else ""
        return f"{self.level}: [{self.kind}] {self.where}{at}: {self.message}"


def _analyzed(cls: ClassFile) -> ClassFile:
    """``cls`` with the load-time facts attached (run on demand)."""
    if cls.flows is None:
        load_time_analysis(
            cls, self_resolver(cls, callbacks=_standard_callbacks())
        )
    return cls


def lint_class(cls: ClassFile) -> List[Finding]:
    """Lint one verified class (analyzing it on demand)."""
    from ..core.callbacks import standard_sink_callbacks

    summary = _analyzed(cls).analysis
    findings: List[Finding] = []
    referenced_callbacks: set = set()
    for name, func in cls.functions.items():
        where = f"{cls.name}.{name}"
        cfg = func.cfg
        fsum = summary.functions[name]
        for loop in cfg.loops:
            if loop.unbounded:
                header_pc = cfg.blocks[loop.header].start
                findings.append(Finding(
                    ERROR, "unbounded-loop", where, header_pc,
                    "loop has no exit edge; only the fuel quota stops it",
                ))
        for pc, ins in enumerate(func.code):
            depth = cfg.depth_at(pc)
            if ins.op is Op.CALLBACK:
                (cb_name,) = cls.constant(ins.arg, K_CALLBACK)
                referenced_callbacks.add(cb_name)
                if depth > 0:
                    findings.append(Finding(
                        WARNING, "callback-in-loop", where, pc,
                        f"callback {cb_name!r} inside a depth-{depth} loop: "
                        "one sandbox/server crossing per iteration",
                    ))
            elif OPS[ins.op].allocates and depth > 0:
                stack_depth = (
                    func.stack_in[pc] if func.stack_in is not None else "?"
                )
                findings.append(Finding(
                    WARNING, "alloc-in-loop", where, pc,
                    f"{ins.op.name} inside a depth-{depth} loop "
                    f"(operand stack {stack_depth}): memory quota is "
                    "charged every iteration",
                ))
        if fsum.unknown_effects:
            findings.append(Finding(
                WARNING, "unknown-call", where, None,
                "calls a function with unresolvable effects; "
                "treated as impure",
            ))
        if fsum.recursive:
            findings.append(Finding(
                NOTE, "recursive", where, None,
                "recursion depth bounded only by run-time quotas",
            ))
    for name, flow in cls.flows.tainted_sink_flows(standard_sink_callbacks()):
        findings.append(Finding(
            ERROR, "tainted-sink-flow", f"{cls.name}.{name}", flow.pc,
            f"passes tuple-derived data ({', '.join(flow.tainted)}) to "
            f"sink callback {flow.callback!r}: refused at load "
            "(static:flows)",
        ))
    for index, entry in enumerate(cls.pool):
        if entry.kind == K_CALLBACK and entry.value[0] not in referenced_callbacks:
            findings.append(Finding(
                WARNING, "dead-callback", cls.name, None,
                f"pool entry {index} requests callback {entry.value[0]!r} "
                "but no instruction invokes it",
            ))
    findings.sort(key=lambda f: (_LEVEL_ORDER[f.level], f.where, f.pc or 0))
    return findings


def _inline_text(result) -> str:
    if isinstance(result, InlineTemplate):
        from ..sql.explain import render_expr

        return (f"inlinable [{result.nodes} node(s)] -> "
                f"{render_expr(result.expr)}")
    return result.describe()


def report(cls: ClassFile) -> List[str]:
    """The CLI's text report for one verified class (analyzed on demand):
    per function its load-time facts, then the class's findings."""
    return _report(cls, lint_class(cls))


def _report(cls: ClassFile, findings: List[Finding]) -> List[str]:
    lines = [f"class {cls.name} ({len(cls.functions)} function(s))"]
    for func in cls.functions.values():
        cert = func.certificate
        refusal = kernel_eligibility(func)
        lines.append("  " + func.summary.describe())
        lines.append("    bounds: " + cert.describe())
        lines.extend("      " + loop.describe() for loop in cert.loops)
        lines.append(f"      nowrap_pcs={list(cert.nowrap_pcs)} "
                     f"value_bound={describe_bound(cert.value_bound)} "
                     f"in_bounds_pcs={list(cert.in_bounds_pcs)}")
        lines.append("    flows: " + func.flows.describe())
        lines.append("    tier: " + ("eligible" if refusal is None
                                     else f"refused ({refusal})"))
        lines.append("    inline: " + _inline_text(func.inline))
    if findings:
        lines.extend("  " + f.render() for f in findings)
    else:
        lines.append("  clean: no findings")
    return lines


# ---------------------------------------------------------------------------
# Target loading (classfile bytes / JagScript / embedded-in-Python)
# ---------------------------------------------------------------------------

#: ``AS '...'`` payloads inside CREATE FUNCTION statements ('' escapes a
#: quote, per SQL string-literal rules).
_AS_PAYLOAD = re.compile(r"\bAS\s+'((?:[^']|'')*)'", re.IGNORECASE | re.DOTALL)


def load_targets(path: Path) -> List[Tuple[str, ClassFile]]:
    """All lintable classes found at ``path`` (unverified), with labels."""
    data = path.read_bytes()
    if data[:4] == MAGIC:
        return [(path.name, ClassFile.from_bytes(data))]
    text = data.decode("utf-8")
    if path.suffix == ".py":
        classes: List[Tuple[str, ClassFile]] = []
        for i, candidate in enumerate(_embedded_sources(text)):
            cls = _try_compile(candidate, f"{path.stem}_{i}")
            if cls is not None:
                classes.append((f"{path.name}[{i}]", cls))
        return classes
    return [(path.name, _compile_or_raise(text, _class_name_for(path)))]


def _class_name_for(path: Path) -> str:
    stem = re.sub(r"\W", "_", path.stem) or "Lint"
    return stem[:1].upper() + stem[1:]


def _embedded_sources(text: str) -> Iterable[str]:
    """String literals that might be JagScript, dedup'd, order kept."""
    seen: Dict[str, None] = {}
    try:
        tree = ast.parse(text)
    except SyntaxError:
        tree = None
    if tree is not None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literal = node.value
                if "def " in literal:
                    seen.setdefault(literal)
                for payload in _AS_PAYLOAD.findall(literal):
                    unescaped = payload.replace("''", "'")
                    if "def " in unescaped:
                        seen.setdefault(unescaped)
    return list(seen)


def _standard_callbacks() -> Dict[str, tuple]:
    from ..core.callbacks import standard_callback_signatures

    return dict(standard_callback_signatures())


def _try_compile(source: str, class_name: str) -> Optional[ClassFile]:
    try:
        return compile_source(source, class_name,
                              callbacks=_standard_callbacks())
    except (CompileError, ClassFormatError):
        return None


def _compile_or_raise(source: str, class_name: str) -> ClassFile:
    return compile_source(source, class_name,
                          callbacks=_standard_callbacks())


def _expand_targets(targets: List[Path]) -> List[Path]:
    """Flatten directory targets into their lintable member files."""
    paths: List[Path] = []
    for target in targets:
        if target.is_dir():
            paths.extend(sorted(
                p for p in target.iterdir()
                if p.is_file() and p.suffix in (".py", ".jag", ".jagc")
            ))
        else:
            paths.append(target)
    return paths


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------

def _gather(targets: List[Path], sink: List[dict]):
    """Load, verify and analyze every class under ``targets``.

    Yields ``(label, cls)`` for the classes that verify, each analyzed by
    the loader's pipeline with the verifier's resolver.  Load and verify
    failures are appended to ``sink`` as structured records.
    """
    for target in _expand_targets(targets):
        try:
            classes = load_targets(target)
        except (OSError, ClassFormatError, CompileError,
                UnicodeDecodeError) as exc:
            sink.append({"target": str(target), "error": str(exc)})
            continue
        if not classes:
            sink.append({"target": str(target), "empty": True})
            continue
        for label, cls in classes:
            resolver = self_resolver(cls, callbacks=_standard_callbacks())
            try:
                verify_class(cls, resolver)
            except (VerifyError, LinkError) as exc:
                sink.append({
                    "target": str(target), "label": label,
                    "error": f"[verify] {exc}",
                })
                continue
            load_time_analysis(cls, resolver)
            yield label, cls


def _print_failures(sink: List[dict]) -> None:
    for record in sink:
        if record.get("empty"):
            print(f"{record['target']}: no UDF payloads found")
        elif "label" in record:
            print(f"-- {record['label']}")
            print(f"  error: {record['error']}")
        else:
            print(f"{record['target']}: cannot load: {record['error']}")


# -- the JSON document -------------------------------------------------------

def _summary_dict(summary) -> dict:
    return {
        "function": summary.name,
        "pure": summary.pure,
        "natives": sorted(summary.natives),
        "callbacks": sorted(summary.callbacks),
        "allocates": summary.allocates,
        "may_not_terminate": summary.may_not_terminate,
        "has_unbounded_loop": summary.has_unbounded_loop,
        "recursive": summary.recursive,
        "unknown_effects": summary.unknown_effects,
        "loop_count": summary.loop_count,
        "max_loop_depth": summary.max_loop_depth,
        "cost_units": summary.cost_units,
    }


def _certificate_dict(cert) -> dict:
    return {
        "function": cert.function,
        "fuel_bound": describe_bound(cert.fuel_bound),
        "local_fuel_bound": describe_bound(cert.local_fuel_bound),
        "mem_bound": describe_bound(cert.mem_bound),
        "depth_bound": cert.depth_bound,
        "min_fuel": cert.min_fuel,
        "min_memory": cert.min_memory,
        "loops": [
            {
                "header_pc": loop.header_pc,
                "trip_min": loop.trip_min,
                "trip_bound": describe_bound(loop.trip_bound),
                "counter": loop.counter,
                "stop_slot": loop.stop_slot,
                "step": loop.step,
            }
            for loop in cert.loops
        ],
        "wrap_free_pcs": list(cert.wrap_free_pcs),
        "nowrap_pcs": list(cert.nowrap_pcs),
        "value_bound": describe_bound(cert.value_bound),
        "in_bounds_pcs": list(cert.in_bounds_pcs),
    }


def _inline_dict(result) -> dict:
    from ..sql.explain import render_expr

    if isinstance(result, InlineTemplate):
        return {
            "inlinable": True,
            "nodes": result.nodes,
            "sql": render_expr(result.expr),
            "param_kinds": list(result.param_kinds),
            "ret_kind": result.ret_kind,
        }
    return {
        "inlinable": False,
        "reason": result.reason,
        "detail": result.detail,
    }


def _finding_dict(finding: Finding) -> dict:
    return {
        "level": finding.level,
        "kind": finding.kind,
        "where": finding.where,
        "pc": finding.pc,
        "message": finding.message,
    }


def _function_dict(func) -> dict:
    hints = derive_cost_hints(func.summary, func.certificate)
    refusal = kernel_eligibility(func)
    return {
        "effects": _summary_dict(func.summary),
        "bounds": _certificate_dict(func.certificate),
        "cost": {
            "cost_per_call": hints.cost_per_call,
            "selectivity": hints.selectivity,
            "derived": hints.derived,
        },
        "inline": _inline_dict(func.inline),
        "flows": func.flows.as_dict(),
        "tier": {"eligible": refusal is None, "refusal": refusal},
    }


def _class_dict(label: str, cls: ClassFile,
                findings: List[Finding]) -> dict:
    leaks = any(f.kind == "tainted-sink-flow" for f in findings)
    return {
        "target": label,
        "class": cls.name,
        "functions": {
            name: _function_dict(cls.functions[name])
            for name in sorted(cls.functions)
        },
        "findings": [_finding_dict(f) for f in findings],
        "flow_verdict": "refuse" if leaks else "accept",
    }


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis``; returns the process exit code."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the class loader's load-time analysis over UDF "
                    "classes and report every fact and finding.",
    )
    parser.add_argument(
        "targets", nargs="+", type=Path,
        help="classfile (.jagc), JagScript source, Python file with "
             "embedded UDF payloads, or a directory of such files",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any error-level finding is reported",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    opts = parser.parse_args(argv)

    errors = 0
    failures: List[dict] = []
    documents: List[dict] = []
    for label, cls in _gather(opts.targets, failures):
        findings = lint_class(cls)
        errors += sum(1 for f in findings if f.level == ERROR)
        if opts.json:
            documents.append(_class_dict(label, cls, findings))
            continue
        print(f"-- {label}")
        for line in _report(cls, findings):
            print(line)
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    if any(not record.get("empty") for record in failures):
        return 2
    return 1 if opts.strict and errors else 0
