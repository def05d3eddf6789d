"""Information-flow certification over verified JaguarVM bytecode.

Three certifying passes, all running on the shared worklist engine in
``dataflow.py`` and all executed once, at CREATE FUNCTION time:

* **taint / information flow** — which parameters (tuple data) and
  callback results (LOB reads, server state) can reach the function's
  return value and, critically, each *argument* of each callback the
  function invokes.  The paper's confinement model says an untrusted
  UDF must not leak tuple data through its server interface; the
  resulting :class:`FlowCertificate` is what lets the security manager
  refuse, at load, a UDF that smuggles tuple-derived values into a
  policy-declared *sink* callback (``static:flows`` audit action).

* **escape analysis** — which allocation sites produce objects that
  never escape the call (not returned, never passed onward), and which
  array/string parameters are provably never written through nor
  retained.  Non-escaping allocations let the sandbox executor reclaim
  per-call heap like an arena; read-only parameters let the marshalling
  layer skip the defensive copy at the language boundary (the "JNI
  copies every byte array" tax of Figure 5) and the isolated design
  skip the worker-side copy after the shm hop.

* **trap safety** — reading the abstract stacks the bounds certifier
  already computed (its interval fixpoint is solved once per function),
  prove that no reachable instruction can raise a VM trap (division by
  zero, array/string index out of range, negative array size, float
  NaN/overflow conversion).  Trap-free functions let the compiled CASE
  machinery in ``sql/expressions.py`` skip short-circuit partitioning
  and EXPLAIN print ``trap-free``.

Taint labels are ``arg{i}`` (parameter *i* — tuple-derived by
construction) and ``cb:{name}`` (the result of callback ``name`` —
server/LOB-derived).  Escape origins are ``param:{i}`` (may alias the
caller's buffer for parameter *i*) and ``alloc:{pc}`` (the object born
at allocation site ``pc``).

Intra-class calls are closed over the call graph in SCC order exactly
like ``effects.py`` / ``bounds.py``; recursive components fall back to
a sound conservative certificate (everything flows everywhere, nothing
is read-only, nothing is trap-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import LinkError
from ..vm.classfile import (
    ClassFile,
    FunctionDef,
    K_CALLBACK,
    K_FUNC,
    K_NATIVE,
)
from ..vm.opcodes import OPS, Instr, Op, step_stack
from ..vm.values import VMType
from ..vm.verifier import Resolver, self_resolver
from . import dataflow
from .bounds import Replay
from .cfg import build_cfg
from .effects import _sccs

__all__ = [
    "CallbackFlow",
    "FlowCertificate",
    "ClassFlows",
    "analyze_flows",
]

#: Seq-typed VM types: values with identity/aliasing that matter to the
#: escape pass (INT/FLOAT/BOOL are copied by value).
_SEQ_TYPES = frozenset({VMType.STR, VMType.ARR, VMType.FARR})

_EMPTY: FrozenSet[str] = frozenset()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallbackFlow:
    """One callback call site and the taint reaching each argument."""

    callback: str
    pc: int
    #: Per argument position, the sorted taint labels that may reach it.
    arg_sources: Tuple[Tuple[str, ...], ...]

    @property
    def tainted(self) -> Tuple[str, ...]:
        labels: Set[str] = set()
        for sources in self.arg_sources:
            labels.update(sources)
        return tuple(sorted(labels))


@dataclass(frozen=True)
class FlowCertificate:
    """Load-time information-flow facts for one function."""

    function: str
    #: Taint labels that may reach the return value.
    return_sources: Tuple[str, ...]
    #: Every callback call site with its per-argument taint.
    callback_flows: Tuple[CallbackFlow, ...]
    #: Indices of seq-typed parameters provably never written through
    #: and never retained (safe to pass without a defensive copy).
    readonly_params: Tuple[int, ...]
    #: Allocation-site pcs whose objects may outlive the call.
    escaping_allocs: Tuple[int, ...]
    #: Allocation-site pcs proven local to the call (arena-reclaimable).
    local_allocs: Tuple[int, ...]
    #: pcs of instructions that may raise a VM trap; empty = trap-free.
    trap_pcs: Tuple[int, ...]

    @property
    def trap_free(self) -> bool:
        return not self.trap_pcs

    @property
    def arena_safe(self) -> bool:
        """All allocations die with the call: per-call heap is an arena."""
        return not self.escaping_allocs

    def describe(self) -> str:
        parts = [f"return<-{{{', '.join(self.return_sources) or ''}}}"]
        for flow in self.callback_flows:
            parts.append(
                f"{flow.callback}@{flow.pc}<-{{{', '.join(flow.tainted)}}}"
            )
        if self.readonly_params:
            parts.append(
                "readonly:" + ",".join(str(i) for i in self.readonly_params)
            )
        parts.append(
            f"allocs:{len(self.local_allocs)}local"
            f"/{len(self.escaping_allocs)}escaping"
        )
        parts.append("trap-free" if self.trap_free else
                     f"traps:{len(self.trap_pcs)}")
        return " ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "return_sources": list(self.return_sources),
            "callback_flows": [
                {
                    "callback": flow.callback,
                    "pc": flow.pc,
                    "arg_sources": [list(s) for s in flow.arg_sources],
                }
                for flow in self.callback_flows
            ],
            "readonly_params": list(self.readonly_params),
            "escaping_allocs": list(self.escaping_allocs),
            "local_allocs": list(self.local_allocs),
            "trap_pcs": list(self.trap_pcs),
            "trap_free": self.trap_free,
        }


@dataclass
class ClassFlows:
    """Per-function flow certificates for one loaded class."""

    class_name: str
    functions: Dict[str, FlowCertificate]

    def tainted_sink_flows(
        self, sinks: FrozenSet[str]
    ) -> List[Tuple[str, CallbackFlow]]:
        """Callback flows that move tainted data into a sink callback."""
        leaks: List[Tuple[str, CallbackFlow]] = []
        for name in sorted(self.functions):
            cert = self.functions[name]
            for flow in cert.callback_flows:
                if flow.callback in sinks and flow.tainted:
                    leaks.append((name, flow))
        return leaks


# ---------------------------------------------------------------------------
# Shared per-opcode label propagation
# ---------------------------------------------------------------------------

class _LabelPass:
    """Forward propagation of per-value label sets over the bytecode.

    The state is ``(locals_tuple, stack_tuple)`` of frozensets; the join
    is elementwise union (a finite powerset lattice, so plain joins
    converge and no widening is needed — the engine's visit cap is the
    backstop).  Subclasses choose what labels constants, allocations,
    and call results carry.
    """

    def __init__(self, cls: ClassFile, func: FunctionDef,
                 resolver: Resolver):
        self.cls = cls
        self.func = func
        self.code = func.code
        self.resolver = resolver
        self.cfg = build_cfg(func.code)

    # -- hooks --------------------------------------------------------------

    def entry_local(self, index: int, vm_type: VMType) -> FrozenSet[str]:
        raise NotImplementedError

    def alloc_result(self, pc: int,
                     args: List[FrozenSet[str]]) -> FrozenSet[str]:
        raise NotImplementedError

    def call_result(self, pc: int, ins: Instr,
                    args: List[FrozenSet[str]]) -> FrozenSet[str]:
        raise NotImplementedError

    def elementwise_result(self, pc: int, ins: Instr,
                           args: List[FrozenSet[str]]) -> FrozenSet[str]:
        merged: FrozenSet[str] = _EMPTY
        for labels in args:
            merged = merged | labels
        return merged

    def observe(self, pc: int, ins: Instr,
                locals_: List[FrozenSet[str]],
                stack: List[FrozenSet[str]]) -> None:
        """Called before each instruction during the collection walk."""

    # -- engine plumbing ----------------------------------------------------

    def entry_state(self):
        locals_: List[FrozenSet[str]] = []
        for index, vm_type in enumerate(self.func.local_types):
            if index < len(self.func.param_types):
                locals_.append(self.entry_local(index, vm_type))
            else:
                locals_.append(_EMPTY)
        return (tuple(locals_), ())

    @staticmethod
    def _join(a, b):
        return (
            tuple(x | y for x, y in zip(a[0], b[0])),
            tuple(x | y for x, y in zip(a[1], b[1])),
        )

    def solve(self) -> dataflow.DataflowResult:
        return dataflow.solve(
            self.cfg,
            dataflow.DataflowProblem(
                entry=self.entry_state(),
                transfer=dataflow.block_transfer(
                    self.cfg, self.code, self._step
                ),
                join=self._join,
            ),
        )

    def collect(self, result: dataflow.DataflowResult) -> None:
        """Re-walk every reachable block calling :meth:`observe`."""
        for index, state in enumerate(result.in_states):
            if state is None:
                continue
            locals_, stack = list(state[0]), list(state[1])
            for pc in self.cfg.blocks[index].pcs:
                self.observe(pc, self.code[pc], locals_, stack)
                self._step(pc, self.code[pc], locals_, stack)

    # -- the small step -----------------------------------------------------

    def _arg_count(self, ins: Instr) -> Tuple[int, bool]:
        """(number of VM args, pushes a result?) for a call-like op."""
        try:
            if ins.op is Op.CALL:
                class_name, func_name = self.cls.constant(ins.arg, K_FUNC)
                sig = self.resolver.function_signature(class_name, func_name)
            elif ins.op is Op.NATIVE:
                (name,) = self.cls.constant(ins.arg, K_NATIVE)
                sig = self.resolver.native_signature(name)
            else:
                (name,) = self.cls.constant(ins.arg, K_CALLBACK)
                sig = self.resolver.callback_signature(name)
        except LinkError:
            return (0, True)
        params, ret = sig
        return (len(params), ret is not VMType.VOID)

    def _step(self, pc: int, ins: Instr,
              locals_: List[FrozenSet[str]],
              stack: List[FrozenSet[str]]) -> None:
        op = ins.op
        if step_stack(ins, locals_, stack):
            return
        if op is Op.SCONST:
            stack.append(self.alloc_result(pc, []))
        elif op in (Op.CALL, Op.NATIVE, Op.CALLBACK):
            argc, pushes = self._arg_count(ins)
            args = stack[len(stack) - argc:] if argc else []
            del stack[len(stack) - argc:]
            if pushes:
                stack.append(self.call_result(pc, ins, args))
        else:
            info = OPS[op]
            args = stack[len(stack) - len(info.pops):]
            del stack[len(stack) - len(info.pops):]
            if info.pushes:
                if info.allocates:
                    stack.append(self.alloc_result(pc, args))
                else:
                    stack.append(self.elementwise_result(pc, ins, args))


# ---------------------------------------------------------------------------
# Pass 1: taint
# ---------------------------------------------------------------------------

class _TaintPass(_LabelPass):
    """Which params / callback results reach returns and callback args."""

    def __init__(self, cls, func, resolver,
                 known: Dict[str, FlowCertificate]):
        super().__init__(cls, func, resolver)
        self.known = known
        self.return_sources: Set[str] = set()
        #: pc -> (callback name, per-arg label sets, joined over visits)
        self.sites: Dict[int, Tuple[str, List[Set[str]]]] = {}

    def entry_local(self, index, vm_type):
        return frozenset({f"arg{index}"})

    def alloc_result(self, pc, args):
        merged: FrozenSet[str] = _EMPTY
        for labels in args:
            merged = merged | labels
        return merged

    def call_result(self, pc, ins, args):
        merged: FrozenSet[str] = _EMPTY
        for labels in args:
            merged = merged | labels
        if ins.op is Op.CALLBACK:
            (name,) = self.cls.constant(ins.arg, K_CALLBACK)
            return frozenset({f"cb:{name}"})
        if ins.op is Op.CALL:
            class_name, func_name = self.cls.constant(ins.arg, K_FUNC)
            callee = (
                self.known.get(func_name)
                if class_name == self.cls.name else None
            )
            if callee is None:
                # Recursive / unresolved intra-class callee: assume the
                # result may carry anything the class can observe.
                return merged | _class_callback_labels(self.cls)
            return merged | _substitute(callee.return_sources, args)
        return merged

    def observe(self, pc, ins, locals_, stack):
        if ins.op is Op.RET:
            self.return_sources.update(stack[-1])
        elif ins.op is Op.CALLBACK:
            (name,) = self.cls.constant(ins.arg, K_CALLBACK)
            argc, _ = self._arg_count(ins)
            args = stack[len(stack) - argc:] if argc else []
            site = self.sites.setdefault(
                pc, (name, [set() for _ in range(argc)])
            )
            for slot, labels in zip(site[1], args):
                slot.update(labels)
        elif ins.op is Op.CALL:
            class_name, func_name = self.cls.constant(ins.arg, K_FUNC)
            if class_name != self.cls.name:
                return
            callee = self.known.get(func_name)
            if callee is None:
                return
            argc, _ = self._arg_count(ins)
            args = stack[len(stack) - argc:] if argc else []
            # Import the callee's callback flows, substituting its
            # parameter labels with what this site actually passes.
            for flow in callee.callback_flows:
                site = self.sites.setdefault(
                    (pc, flow.callback, flow.pc),
                    (flow.callback, [set() for _ in flow.arg_sources]),
                )
                for slot, sources in zip(site[1], flow.arg_sources):
                    slot.update(_substitute(sources, args))


def _class_callback_labels(cls: ClassFile) -> FrozenSet[str]:
    labels = set()
    for entry in cls.pool:
        if entry.kind == K_CALLBACK:
            labels.add(f"cb:{entry.value[0]}")
    return frozenset(labels)


def _substitute(sources: Sequence[str],
                args: Sequence[FrozenSet[str]]) -> FrozenSet[str]:
    """Rewrite a callee's labels into the caller's frame.

    ``arg{j}`` becomes whatever taint the caller passes in position
    ``j``; ``cb:*`` labels are context-free and pass through.
    """
    out: Set[str] = set()
    for label in sources:
        if label.startswith("arg"):
            try:
                j = int(label[3:])
            except ValueError:
                out.add(label)
                continue
            if 0 <= j < len(args):
                out.update(args[j])
            else:
                out.add(label)
        else:
            out.add(label)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Pass 2: escape / read-only
# ---------------------------------------------------------------------------

class _EscapePass(_LabelPass):
    """Which allocations stay local; which seq params stay untouched."""

    def __init__(self, cls, func, resolver):
        super().__init__(cls, func, resolver)
        self.alloc_sites: Set[int] = set()
        self.written: Set[str] = set()
        self.escaped: Set[str] = set()

    def entry_local(self, index, vm_type):
        if vm_type in _SEQ_TYPES:
            return frozenset({f"param:{index}"})
        return _EMPTY

    def alloc_result(self, pc, args):
        self.alloc_sites.add(pc)
        return frozenset({f"alloc:{pc}"})

    def call_result(self, pc, ins, args):
        # A callee may return one of its arguments; the result may
        # alias anything passed in.  Callback results are fresh
        # server-owned objects with no caller aliases.
        if ins.op is Op.CALLBACK:
            return _EMPTY
        merged: FrozenSet[str] = _EMPTY
        for labels in args:
            merged = merged | labels
        return merged

    def elementwise_result(self, pc, ins, args):
        # Scalar results (loads, lengths, comparisons) carry no aliases.
        return _EMPTY

    def observe(self, pc, ins, locals_, stack):
        op = ins.op
        if op in (Op.ASTORE, Op.FASTORE):
            # stack: ... arr idx value
            self.written.update(stack[-3])
        elif op is Op.RET:
            self.escaped.update(stack[-1])
        elif op in (Op.CALL, Op.NATIVE, Op.CALLBACK):
            # Conservative: anything passed onward may be retained or
            # mutated by the callee.
            argc, _ = self._arg_count(ins)
            for labels in (stack[len(stack) - argc:] if argc else []):
                self.written.update(labels)
                self.escaped.update(labels)


# ---------------------------------------------------------------------------
# Pass 3: trap safety (interval-backed)
# ---------------------------------------------------------------------------

def _trap_pcs(cls: ClassFile, func: FunctionDef, replay: Replay,
              known: Dict[str, FlowCertificate]) -> Tuple[int, ...]:
    """pcs of reachable instructions not proven trap-free."""
    return tuple(sorted(
        pc for pc, (stack, __) in replay.items()
        if _may_trap(cls, func.code[pc], stack, known)
    ))


def _nonzero(val) -> bool:
    iv = val.interval
    return iv.lo > 0 or iv.hi < 0


def _within(idx, seq) -> bool:
    """idx provably a valid index for every possible length of seq."""
    return idx.interval.lo >= 0 and idx.interval.hi <= seq.interval.lo - 1


def _may_trap(cls: ClassFile, ins: Instr, stack,
              known: Dict[str, FlowCertificate]) -> bool:
    """Whether the intervals fail to rule out the op's trap (table kind)."""
    info = OPS[ins.op]
    trap = info.trap
    if trap is None:
        return False
    if trap == "zero-divisor":
        return not _nonzero(stack[-1])   # a float divisor is never tracked
    if trap == "index":
        # The sequence and the index are the two deepest operands.
        depth = len(info.pops)
        return not _within(stack[1 - depth], stack[-depth])
    if trap == "slice":
        end, start, seq = stack[-1], stack[-2], stack[-3]
        return not (
            start.interval.lo >= 0
            and start.interval.hi <= end.interval.lo
            and end.interval.hi <= seq.interval.lo
        )
    if trap == "negative-size":
        return stack[-1].interval.lo < 0
    if trap == "callee":
        class_name, func_name = cls.constant(ins.arg, K_FUNC)
        if class_name != cls.name:
            return True
        callee = known.get(func_name)
        return callee is None or not callee.trap_free
    return True   # conversion (NaN / out of range), host code


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _conservative_certificate(cls: ClassFile, func: FunctionDef,
                              resolver: Resolver) -> FlowCertificate:
    """Sound fallback for recursive components: everything flows."""
    all_labels = tuple(sorted(
        {f"arg{i}" for i in range(len(func.param_types))}
        | set(_class_callback_labels(cls))
    ))
    flows = []
    for pc, ins in enumerate(func.code):
        if ins.op is Op.CALLBACK:
            (name,) = cls.constant(ins.arg, K_CALLBACK)
            try:
                params, _ = resolver.callback_signature(name)
            except LinkError:
                params = (None,)
            flows.append(CallbackFlow(
                callback=name,
                pc=pc,
                arg_sources=tuple(all_labels for _ in params),
            ))
    allocs = tuple(sorted(
        pc for pc, ins in enumerate(func.code) if OPS[ins.op].allocates
    ))
    return FlowCertificate(
        function=f"{cls.name}.{func.name}",
        return_sources=all_labels,
        callback_flows=tuple(flows),
        readonly_params=(),
        escaping_allocs=allocs,
        local_allocs=(),
        trap_pcs=tuple(range(len(func.code))),
    )


def _certify_function(cls: ClassFile, func: FunctionDef, resolver: Resolver,
                      replay: Replay,
                      known: Dict[str, FlowCertificate]) -> FlowCertificate:
    taint = _TaintPass(cls, func, resolver, known)
    taint.collect(taint.solve())

    escape = _EscapePass(cls, func, resolver)
    escape.collect(escape.solve())

    readonly = tuple(
        index
        for index, vm_type in enumerate(func.param_types)
        if vm_type in _SEQ_TYPES
        and f"param:{index}" not in escape.written
        and f"param:{index}" not in escape.escaped
    )
    escaping = tuple(sorted(
        pc for pc in escape.alloc_sites
        if f"alloc:{pc}" in escape.escaped or f"alloc:{pc}" in escape.written
    ))
    local = tuple(sorted(
        pc for pc in escape.alloc_sites
        if pc not in set(escaping)
    ))

    flows = tuple(
        CallbackFlow(
            callback=name,
            pc=key if isinstance(key, int) else key[0],
            arg_sources=tuple(
                tuple(sorted(slot)) for slot in slots
            ),
        )
        for key, (name, slots) in sorted(
            taint.sites.items(),
            key=lambda item: (
                item[0] if isinstance(item[0], int) else item[0][0],
                item[1][0],
            ),
        )
    )

    return FlowCertificate(
        function=f"{cls.name}.{func.name}",
        return_sources=tuple(sorted(taint.return_sources)),
        callback_flows=flows,
        readonly_params=readonly,
        escaping_allocs=escaping,
        local_allocs=local,
        trap_pcs=_trap_pcs(cls, func, replay, known),
    )


def analyze_flows(cls: ClassFile, stacks: Dict[str, Replay],
                  resolver: Optional[Resolver] = None) -> ClassFlows:
    """Run the three flow passes over every function of a verified class.

    ``stacks`` is what :func:`~repro.analysis.bounds.certify_class` left
    for this class: per function, the abstract stack before each
    reachable pc, where the trap pass looks for trap sites.  Attaches a
    :class:`FlowCertificate` to each function as ``func.flows`` and the
    class rollup as ``cls.flows``.
    """
    if not getattr(cls, "verified", False):
        raise ValueError(
            f"class {cls.name!r} must be verified before flow analysis"
        )
    if resolver is None:
        resolver = self_resolver(cls)

    graph: Dict[str, Set[str]] = {}
    for name, func in cls.functions.items():
        callees: Set[str] = set()
        for ins in func.code:
            if ins.op is Op.CALL:
                class_name, func_name = cls.constant(ins.arg, K_FUNC)
                if class_name == cls.name and func_name in cls.functions:
                    callees.add(func_name)
        graph[name] = callees

    known: Dict[str, FlowCertificate] = {}
    for component in _sccs(graph):
        recursive = len(component) > 1 or any(
            name in graph[name] for name in component
        )
        for name in sorted(component):
            func = cls.functions[name]
            if recursive:
                cert = _conservative_certificate(cls, func, resolver)
            else:
                cert = _certify_function(cls, func, resolver,
                                         stacks[name], known)
            known[name] = cert
            func.flows = cert

    flows = ClassFlows(class_name=cls.name, functions=dict(known))
    cls.flows = flows
    return flows
