"""The load-time pass order, written once.

A class is analyzed right after it verifies.  The intra-class call graph
is built once and walked once, one strongly-connected component at a
time, callees first; each component gets its effect summaries, then its
resource certificates, then its flow certificates, and decompilation
follows over the whole class.  The class loader runs this at CREATE
FUNCTION, and ``python -m repro.analysis`` runs the same function, so
the CLI reports exactly what a load would attach.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..vm.classfile import ClassFile, FunctionDef, K_FUNC
from ..vm.opcodes import Op
from ..vm.verifier import Resolver
from .bounds import ClassCertificates, ResourceCertificate, certify_component
from .decompile import decompile_class
from .effects import ClassSummary, FunctionSummary, summarize_component
from .flows import ClassFlows, FlowCertificate, certify_flows

#: Resolves a CALL into another class to its loaded ``FunctionDef``, or
#: None when it cannot be resolved (its facts are then unknown).
ForeignFunctions = Callable[[str, str], Optional[FunctionDef]]


def _unresolved(class_name: str, func_name: str) -> None:
    return None


def load_time_analysis(
    cls: ClassFile,
    resolver: Resolver,
    foreign_function: ForeignFunctions = _unresolved,
) -> None:
    """Attach every load-time fact to a *verified* class.

    Each function gains ``summary``, ``certificate``, ``flows`` and
    ``inline``; the class gains the ``analysis``, ``certificates`` and
    ``flows`` rollups.  Within a component the effect pass runs first,
    so the decompiler's purity gate can read it.  The certifier solves
    each function's interval fixpoint once and hands its per-pc stacks
    to the flow pass, which finds the trap sites in them; the stacks are
    dropped with the component.
    """
    if not cls.verified:
        raise ValueError(
            f"class {cls.name!r} must be verified before analysis"
        )

    def summary_of(class_name: str, func_name: str):
        return getattr(foreign_function(class_name, func_name),
                       "summary", None)

    def certificate_of(class_name: str, func_name: str):
        return getattr(foreign_function(class_name, func_name),
                       "certificate", None)

    summaries: Dict[str, FunctionSummary] = {}
    certificates: Dict[str, ResourceCertificate] = {}
    flows: Dict[str, FlowCertificate] = {}
    for component, recursive in _call_order(cls):
        summarize_component(cls, component, recursive, summaries, summary_of)
        stacks = certify_component(cls, component, resolver, certificates,
                                   certificate_of)
        certify_flows(cls, component, recursive, stacks, resolver, flows)
    cls.analysis = ClassSummary(cls.name, summaries)
    cls.certificates = ClassCertificates(cls.name, certificates)
    cls.flows = ClassFlows(cls.name, flows)
    decompile_class(cls)


def _call_order(cls: ClassFile) -> List[Tuple[List[str], bool]]:
    """The components of the intra-class call graph, callees first, each
    with whether it is recursive (a cycle, or a function calling
    itself).  Each function's callees are in pc order of first call."""
    graph: Dict[str, List[str]] = {}
    for name, func in cls.functions.items():
        callees: List[str] = []
        for ins in func.code:
            if ins.op is Op.CALL:
                class_name, func_name = cls.constant(ins.arg, K_FUNC)
                if (class_name == cls.name and func_name in cls.functions
                        and func_name not in callees):
                    callees.append(func_name)
        graph[name] = callees
    return [
        (component, len(component) > 1 or component[0] in graph[component[0]])
        for component in _sccs(graph)
    ]


def _sccs(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs, emitted in reverse topological order (callees
    before callers)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    result: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(node, 0)]
        while work:
            current, pos = work.pop()
            if pos == 0:
                index[current] = lowlink[current] = counter[0]
                counter[0] += 1
                stack.append(current)
                on_stack[current] = True
            recurse = False
            edges = graph[current]
            for position in range(pos, len(edges)):
                succ = edges[position]
                if succ not in index:
                    work.append((current, position + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if on_stack.get(succ):
                    lowlink[current] = min(lowlink[current], index[succ])
            if recurse:
                continue
            if lowlink[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == current:
                        break
                result.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])

    for node in graph:
        if node not in index:
            strongconnect(node)
    return result
