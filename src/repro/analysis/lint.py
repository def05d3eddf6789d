"""UDF lint: surface analyzer findings before code is ever deployed.

``python -m repro.analysis <target>`` runs verification + analysis over
one or more classes and prints findings a DBA (or CI job) can act on:

* **unbounded-loop** (error) — a loop with no exit edge; only the fuel
  quota will ever stop it, and it will eat its whole budget doing so;
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
file, or a Python file — for the latter, every string literal (and every
``AS '...'`` payload of an embedded ``CREATE FUNCTION``) is tried as
JagScript, so the ``examples/`` scripts lint without modification.
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
from ..vm.verifier import self_resolver, verify_class
from .cfg import build_cfg
from .effects import ClassSummary, analyze_class

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


def lint_class(cls: ClassFile) -> List[Finding]:
    """Lint one verified+analyzed class (analyzes on demand)."""
    summary: Optional[ClassSummary] = getattr(cls, "analysis", None)
    if summary is None:
        summary = analyze_class(cls)
    findings: List[Finding] = []
    referenced_callbacks: set = set()
    for name, func in cls.functions.items():
        where = f"{cls.name}.{name}"
        cfg = build_cfg(func.code)
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
    for index, entry in enumerate(cls.pool):
        if entry.kind == K_CALLBACK and entry.value[0] not in referenced_callbacks:
            findings.append(Finding(
                WARNING, "dead-callback", cls.name, None,
                f"pool entry {index} requests callback {entry.value[0]!r} "
                "but no instruction invokes it",
            ))
    findings.sort(key=lambda f: (_LEVEL_ORDER[f.level], f.where, f.pc or 0))
    return findings


def report(cls: ClassFile) -> List[str]:
    """Human-readable lint report: summaries first, then findings."""
    if getattr(cls, "analysis", None) is None:
        analyze_class(cls)
    lines = [f"class {cls.name} ({len(cls.functions)} function(s))"]
    for name in cls.functions:
        lines.append("  " + cls.analysis.functions[name].describe())
    findings = lint_class(cls)
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
# CLI plumbing shared by every subcommand
# ---------------------------------------------------------------------------
#
# Exit-code convention (uniform across ``lint``/``bounds``/``inline``/
# ``flows``/``report``):
#
# * ``0`` — every target loaded, verified, and was analyzed; findings
#   may have been reported, but none gate without ``--strict``;
# * ``1`` — ``--strict`` and at least one error-level finding (an
#   unbounded loop for ``lint``, a tainted sink flow for ``flows``);
# * ``2`` — a target failed to load or verify, ``--strict`` or not: an
#   unanalyzable input is never a clean run.


def _exit_code(failures: int, errors: int, strict: bool) -> int:
    if failures:
        return 2
    if strict and errors:
        return 1
    return 0


def _gather(targets: List[Path], sink: List[dict]):
    """Load+verify every class under ``targets``, yielding the good ones.

    Load and verify failures are appended to ``sink`` as structured
    records (and count toward exit code 2); callers print them in their
    own format.
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
            try:
                verify_class(
                    cls,
                    self_resolver(cls, callbacks=_standard_callbacks()),
                )
            except (VerifyError, LinkError) as exc:
                sink.append({
                    "target": str(target), "label": label,
                    "error": f"[verify] {exc}",
                })
                continue
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


def _failure_count(sink: List[dict]) -> int:
    """Empty targets are reported but are not failures."""
    return sum(1 for record in sink if not record.get("empty"))


def _cli_parser(prog: str, description: str, strict_help: str):
    import argparse

    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "targets", nargs="+", type=Path,
        help="classfile (.jagc), JagScript source, Python file with "
             "embedded UDF payloads, or a directory of such files",
    )
    parser.add_argument("--strict", action="store_true", help=strict_help)
    parser.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    return parser


# -- per-certificate JSON renderings ----------------------------------------

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
    from .intervals import describe_bound

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
    from .decompile import InlineTemplate

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


def bounds_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis bounds`` — resource-bound certificates.

    Prints each function's :class:`ResourceCertificate` (worst-case fuel
    and heap as symbolic functions of the inputs, call depth, proven
    minimums), its per-loop trip bounds and counters, and the facts the
    JIT's certified clone uses (``nowrap_pcs`` under ``value_bound``,
    ``in_bounds_pcs``).  Unbounded functions are
    reported, not failed — an intentionally input-dependent UDF does not
    break CI.  A target that cannot be loaded or verified exits 2.
    """
    import json

    from .bounds import certify_class
    from .intervals import describe_bound

    parser = _cli_parser(
        "python -m repro.analysis bounds",
        "Static resource-bound certification over UDF classes.",
        "kept for interface symmetry (load/verify failures always exit 2)",
    )
    opts = parser.parse_args(argv)

    failures: List[dict] = []
    documents: List[dict] = []
    for label, cls in _gather(opts.targets, failures):
        certificates = certify_class(cls)
        if opts.json:
            documents.append({
                "target": label,
                "class": cls.name,
                "functions": {
                    name: _certificate_dict(certificates.functions[name])
                    for name in sorted(certificates.functions)
                },
            })
            continue
        print(f"-- {label}")
        for name in sorted(certificates.functions):
            cert = certificates.functions[name]
            print("  " + cert.describe())
            for loop in cert.loops:
                print("    " + loop.describe())
            print(f"    nowrap_pcs={list(cert.nowrap_pcs)} "
                  f"value_bound={describe_bound(cert.value_bound)} "
                  f"in_bounds_pcs={list(cert.in_bounds_pcs)}")
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    return _exit_code(_failure_count(failures), 0, opts.strict)


def inline_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis inline`` — decompilability report.

    For every UDF in every target: the lifted SQL expression the
    optimizer would substitute at call sites (``inlinable``), or the
    structured refusal (``refused (<reason>): detail``).  A UDF that
    genuinely needs a loop is a fact, not a CI regression; only a
    target that cannot be loaded or verified fails the run (exit 2).
    """
    import json

    from .decompile import InlineTemplate, decompile_class
    from .effects import analyze_class as _analyze

    parser = _cli_parser(
        "python -m repro.analysis inline",
        "Froid-style decompilation report over UDF classes.",
        "kept for interface symmetry (load/verify failures always exit 2)",
    )
    opts = parser.parse_args(argv)

    failures: List[dict] = []
    documents: List[dict] = []
    for label, cls in _gather(opts.targets, failures):
        # The decompiler consults the effect summaries; the lint path
        # loads classes without a ClassLoader, so run the analysis here
        # the way the loader would have.
        _analyze(cls)
        results = decompile_class(cls)
        if opts.json:
            documents.append({
                "target": label,
                "class": cls.name,
                "functions": {
                    name: _inline_dict(results[name])
                    for name in sorted(results)
                },
            })
            continue
        print(f"-- {label}")
        for name in sorted(results):
            result = results[name]
            if isinstance(result, InlineTemplate):
                from ..sql.explain import render_expr

                print(
                    f"  {name}: inlinable "
                    f"[{result.nodes} node(s)] -> "
                    f"{render_expr(result.expr)}"
                )
            else:
                print(f"  {name}: {result.describe()}")
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    return _exit_code(_failure_count(failures), 0, opts.strict)


def flows_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis flows`` — information-flow certificates.

    For every UDF: the taint labels reaching its return value and each
    callback argument, its read-only parameters, escape/arena summary,
    and trap sites.  Each class then gets a load-gate verdict against
    the standard sink policy — ``refuse (static:flows)`` when tuple-
    derived data reaches a sink callback (what CREATE FUNCTION would
    reject), ``accept`` otherwise.  ``--strict`` turns refusals into
    exit 1; unloadable/unverifiable targets always exit 2.
    """
    import json

    from ..core.callbacks import standard_sink_callbacks
    from .flows import analyze_flows

    parser = _cli_parser(
        "python -m repro.analysis flows",
        "Static information-flow certification over UDF classes.",
        "exit 1 when any class would be refused at load",
    )
    opts = parser.parse_args(argv)

    sinks = standard_sink_callbacks()
    failures: List[dict] = []
    documents: List[dict] = []
    refusals = 0
    for label, cls in _gather(opts.targets, failures):
        flows = analyze_flows(
            cls, resolver=self_resolver(cls, callbacks=_standard_callbacks())
        )
        leaks = flows.tainted_sink_flows(sinks)
        verdict = "refuse (static:flows)" if leaks else "accept"
        if leaks:
            refusals += 1
        if opts.json:
            documents.append({
                "target": label,
                "class": cls.name,
                "functions": {
                    name: flows.functions[name].as_dict()
                    for name in sorted(flows.functions)
                },
                "leaks": [
                    {
                        "function": name,
                        "callback": flow.callback,
                        "pc": flow.pc,
                        "tainted": list(flow.tainted),
                    }
                    for name, flow in leaks
                ],
                "verdict": "refuse" if leaks else "accept",
            })
            continue
        print(f"-- {label}")
        for name in sorted(flows.functions):
            print(f"  {name}: {flows.functions[name].describe()}")
        for name, flow in leaks:
            print(
                f"  leak: {name}: {flow.callback}@{flow.pc} <- "
                f"{{{', '.join(flow.tainted)}}}"
            )
        print(f"  verdict: {verdict}")
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    return _exit_code(_failure_count(failures), refusals, opts.strict)


def tier_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis tier`` — tier-1 eligibility report.

    For every UDF: whether its type-specialized whole-batch kernel is
    built at CREATE FUNCTION (JIT designs), and when not, the structured
    refusal reason (``callback``, ``untyped-op``,
    ``trap-without-certificate``, ``unbounded-fuel``,
    ``mutable-array-param``).  An ineligible UDF simply stays on tier 0
    — it is a fact, not a CI regression — so refusals only gate with
    ``--strict``; unloadable/unverifiable targets always exit 2.
    """
    import json

    from ..vm.tier import kernel_eligibility
    from .bounds import certify_class
    from .flows import analyze_flows

    parser = _cli_parser(
        "python -m repro.analysis tier",
        "Tier-1 batch-kernel eligibility report over UDF classes: an "
        "eligible function of a JIT-design UDF has its kernel built at "
        "CREATE FUNCTION.",
        "exit 1 when any function is refused a tier-1 kernel "
        "(kernels are built at CREATE FUNCTION)",
    )
    opts = parser.parse_args(argv)

    failures: List[dict] = []
    documents: List[dict] = []
    refused = 0
    for label, cls in _gather(opts.targets, failures):
        # Eligibility reads the same per-function certificates the
        # loader attaches (effects, bounds, flows); the lint path loads
        # classes bare, so run those passes here.
        analyze_class(cls)
        certify_class(cls)
        analyze_flows(
            cls, resolver=self_resolver(cls, callbacks=_standard_callbacks())
        )
        verdicts = {
            name: kernel_eligibility(cls.functions[name])
            for name in sorted(cls.functions)
        }
        refused += sum(1 for r in verdicts.values() if r is not None)
        if opts.json:
            documents.append({
                "target": label,
                "class": cls.name,
                "functions": {
                    name: {
                        "eligible": refusal is None,
                        "refusal": refusal,
                    }
                    for name, refusal in verdicts.items()
                },
            })
            continue
        print(f"-- {label}")
        for name, refusal in verdicts.items():
            if refusal is None:
                print(f"  {name}: eligible")
            else:
                print(f"  {name}: refused ({refusal})")
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    return _exit_code(_failure_count(failures), refused, opts.strict)


def report_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis report`` — every certificate, one doc.

    Runs the whole load-time pipeline (effects, resource bounds, derived
    cost hints, decompilation, information flows) over each target and
    emits a single JSON document per run: what CREATE FUNCTION would
    know about the UDF, in machine-readable form.  Always JSON.
    """
    import json

    from ..core.callbacks import standard_sink_callbacks
    from .bounds import certify_class
    from .costs import derive_cost_hints
    from .decompile import decompile_class
    from .flows import analyze_flows

    parser = _cli_parser(
        "python -m repro.analysis report",
        "Full static-certificate report (JSON) over UDF classes.",
        "kept for interface symmetry (load/verify failures always exit 2)",
    )
    opts = parser.parse_args(argv)

    sinks = standard_sink_callbacks()
    failures: List[dict] = []
    documents: List[dict] = []
    for label, cls in _gather(opts.targets, failures):
        summary = analyze_class(cls)
        certificates = certify_class(cls)
        inline_results = decompile_class(cls)
        flows = analyze_flows(
            cls, resolver=self_resolver(cls, callbacks=_standard_callbacks())
        )
        functions = {}
        for name in sorted(cls.functions):
            fsum = summary.functions[name]
            cert = certificates.functions[name]
            hints = derive_cost_hints(fsum, cert)
            functions[name] = {
                "effects": _summary_dict(fsum),
                "bounds": _certificate_dict(cert),
                "cost": {
                    "cost_per_call": hints.cost_per_call,
                    "selectivity": hints.selectivity,
                    "derived": hints.derived,
                },
                "inline": _inline_dict(inline_results[name]),
                "flows": flows.functions[name].as_dict(),
            }
        leaks = flows.tainted_sink_flows(sinks)
        documents.append({
            "target": label,
            "class": cls.name,
            "functions": functions,
            "findings": [_finding_dict(f) for f in lint_class(cls)],
            "flow_verdict": "refuse" if leaks else "accept",
        })
    print(json.dumps({"classes": documents, "failures": failures}, indent=2))
    return _exit_code(_failure_count(failures), 0, opts.strict)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    import json
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bounds":
        return bounds_main(argv[1:])
    if argv and argv[0] == "inline":
        return inline_main(argv[1:])
    if argv and argv[0] == "flows":
        return flows_main(argv[1:])
    if argv and argv[0] == "tier":
        return tier_main(argv[1:])
    if argv and argv[0] == "report":
        return report_main(argv[1:])

    parser = _cli_parser(
        "python -m repro.analysis",
        "Static effect/cost/loop lint over JaguarVM UDF classes.",
        "exit nonzero when any error-level finding is reported",
    )
    opts = parser.parse_args(argv)

    errors = 0
    failures: List[dict] = []
    documents: List[dict] = []
    for label, cls in _gather(opts.targets, failures):
        analyze_class(cls)
        findings = lint_class(cls)
        errors += sum(1 for f in findings if f.level == ERROR)
        if opts.json:
            documents.append({
                "target": label,
                "class": cls.name,
                "functions": {
                    name: _summary_dict(cls.analysis.functions[name])
                    for name in sorted(cls.functions)
                },
                "findings": [_finding_dict(f) for f in findings],
            })
            continue
        print(f"-- {label}")
        print(f"class {cls.name} ({len(cls.functions)} function(s))")
        for name in cls.functions:
            print("  " + cls.analysis.functions[name].describe())
        if findings:
            for finding in findings:
                print("  " + finding.render())
        else:
            print("  clean: no findings")
    if opts.json:
        print(json.dumps(
            {"classes": documents, "failures": failures}, indent=2
        ))
    else:
        _print_failures(failures)
    return _exit_code(_failure_count(failures), errors, opts.strict)
