"""Load-time static analysis over verified JaguarVM bytecode.

The verifier proves type and stack safety; this package answers the
*semantic* questions the rest of the system wants answered before a UDF
ever runs.  Per-opcode facts (stack types, allocation, trap kind, cost
weight, the Python template and the SQL lowering) come from the opcode
table :data:`repro.vm.opcodes.OPS`, and the stack-only opcodes step
through :func:`repro.vm.opcodes.step_stack`; the interval transfer
stays in ``bounds`` and the label transfer in ``flows``.

* :mod:`~repro.analysis.cfg` — basic blocks, dominators, natural loops;
  each function's CFG is built once, when the verifier's structure
  check first reads ``FunctionDef.cfg``, and every pass below and the
  JIT read that same one;
* :mod:`~repro.analysis.effects` — purity/effect summaries (natives,
  callbacks, allocation, termination) closed over the call graph;
* :mod:`~repro.analysis.intervals` — the abstract domains of the bounds
  pass: :class:`Interval` (wrap-aware int64 ranges) and :class:`Bound`
  (symbolic polynomials over input sizes);
* :mod:`~repro.analysis.bounds` — resource-bound certification: an
  abstract interpreter proving per-function worst-case fuel/heap/depth
  (:class:`ResourceCertificate`), consumed by the load gate, the
  metering-elision fast paths, admission control, and the optimizer;
* :mod:`~repro.analysis.costs` — static per-invocation cost estimation
  (the table's ``weight`` column times assumed trip counts) and
  :func:`~repro.analysis.costs.derive_cost_hints` for UDFs registered
  without declared ``CostHints``;
* :mod:`~repro.analysis.decompile` — Froid-style decompilation of
  pure, loop-free (or unrollable) bodies into SQL expression templates
  (:class:`InlineTemplate`) or structured refusals
  (:class:`InlineRefusal`), consumed by the optimizer's inlining
  rewrite behind ``Database(inlining=True)``;
* :mod:`~repro.analysis.flows` — taint, escape and trap-safety
  certificates (:class:`~repro.analysis.flows.FlowCertificate`): taint
  and escape as one label fixpoint on the shared worklist engine of
  :mod:`~repro.analysis.dataflow`, trap sites read off the certifier's
  stacks;
* :mod:`~repro.analysis.pipeline` — :func:`load_time_analysis`, the
  one place the pass order is written, and the one call graph;
* :mod:`~repro.analysis.lint` — findings, and the one CLI,
  ``python -m repro.analysis [--json] [--strict] TARGET...``, which
  runs that pipeline over each verified class.

Right after verification the class loader calls
:func:`load_time_analysis`.  It builds the intra-class call graph once
and walks its strongly-connected components once, callees first.  Per
component it runs effects (``effects.summarize_component``), then
bounds (``bounds.certify_component``, which solves each function's
interval fixpoint once and returns its per-pc stacks), then flows
(``flows.certify_flows``, which reads trap sites off those stacks);
decompilation (:func:`decompile_class`) follows.  So every loaded
``FunctionDef`` carries a ``summary``, a ``certificate``, ``flows`` and
an ``inline`` result, and every ``ClassFile`` an ``analysis``, a
``certificates`` and a ``flows`` rollup.  Consumers:
the security manager (static pre-checks at load, including the
minimum-consumption bounds gate), the interpreter/JIT (per-instruction
metering elision), thread-group admission control, the optimizer
(constant folding, rank ordering, certified cost caps), and the executor
(pure-UDF memoization).
"""

from .bounds import (
    ClassCertificates,
    LoopBound,
    ResourceCertificate,
    constant_bound,
)
from .cfg import CFG, BasicBlock, Loop, build_cfg
from .costs import (
    ASSUMED_TRIP_COUNT,
    DERIVED_SELECTIVITY,
    derive_cost_hints,
)
from .decompile import (
    InlineRefusal,
    InlineTemplate,
    decompile_class,
    decompile_function,
)
from .effects import ClassSummary, FunctionSummary
from .intervals import Bound, Interval, describe_bound
from .lint import Finding, lint_class, report
from .pipeline import load_time_analysis

__all__ = [
    "ASSUMED_TRIP_COUNT",
    "BasicBlock",
    "Bound",
    "CFG",
    "ClassCertificates",
    "ClassSummary",
    "DERIVED_SELECTIVITY",
    "Finding",
    "FunctionSummary",
    "InlineRefusal",
    "InlineTemplate",
    "Interval",
    "Loop",
    "LoopBound",
    "ResourceCertificate",
    "build_cfg",
    "constant_bound",
    "decompile_class",
    "decompile_function",
    "derive_cost_hints",
    "describe_bound",
    "lint_class",
    "load_time_analysis",
    "report",
]
