"""Information-flow certification over verified JaguarVM bytecode.

One label fixpoint, on the shared worklist engine in ``dataflow.py``,
plus trap sites read off the bounds certifier's stacks, all computed
once, at CREATE FUNCTION time.  Every local slot and operand-stack
entry carries a ``(taint, alias)`` pair of label sets:

* **taint / information flow** — which parameters (tuple data) and
  callback results (LOB reads, server state) can reach the function's
  return value and, critically, each *argument* of each callback the
  function invokes.  The paper's confinement model says an untrusted
  UDF must not leak tuple data through its server interface; the
  resulting :class:`FlowCertificate` is what lets the security manager
  refuse, at load, a UDF that smuggles tuple-derived values into a
  policy-declared *sink* callback (``static:flows`` audit action).

* **escape / read-only** — which allocation sites produce objects that
  never escape the call (not returned, never passed onward), and which
  array/string parameters are provably never written through nor
  retained.  Non-escaping allocations let the sandbox executor reclaim
  per-call heap like an arena; read-only parameters let the marshalling
  layer skip the defensive copy at the language boundary (the "JNI
  copies every byte array" tax of Figure 5) and the isolated design
  skip the worker-side copy after the shm hop.

Both halves are finite powersets joined by union, with no widening, so
the least fixpoint of the pair is the pair of least fixpoints.

**Trap safety** needs intervals, not labels: the abstract stacks the
bounds certifier already computed (its interval fixpoint is solved once
per function) prove that no reachable instruction can raise a VM trap
(division by zero, array/string index out of range, negative array
size, float NaN/overflow conversion).  Trap-free functions let the
compiled CASE machinery in ``sql/expressions.py`` skip short-circuit
partitioning and EXPLAIN print ``trap-free``.

Taint labels are ``arg{i}`` (parameter *i* — tuple-derived by
construction) and ``cb:{name}`` (the result of callback ``name`` —
server/LOB-derived).  Escape origins are ``param:{i}`` (may alias the
caller's buffer for parameter *i*) and ``alloc:{pc}`` (the object born
at allocation site ``pc``).

Intra-class calls are closed over the call graph one strongly-connected
component at a time, callees first (:mod:`~repro.analysis.pipeline`
walks them); recursive components fall back to a sound conservative
certificate (everything flows everywhere, nothing is read-only, nothing
is trap-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..vm.classfile import ClassFile, FunctionDef, K_CALLBACK, K_FUNC
from ..vm.opcodes import OPS, Instr, Op, step_stack
from ..vm.values import VMType
from ..vm.verifier import Resolver
from . import dataflow
from .bounds import Replay

__all__ = [
    "CallbackFlow",
    "FlowCertificate",
    "ClassFlows",
    "certify_flows",
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
# Taint and escape: one label fixpoint
# ---------------------------------------------------------------------------

#: One value's labels: ``(taint, alias)``.
Labels = Tuple[FrozenSet[str], FrozenSet[str]]

_NO_LABELS: Labels = (_EMPTY, _EMPTY)

_CALL_OPS = (Op.CALL, Op.NATIVE, Op.CALLBACK)


def _union(sets) -> FrozenSet[str]:
    merged: FrozenSet[str] = _EMPTY
    for labels in sets:
        merged = merged | labels
    return merged


def _join(a, b):
    return (
        tuple((x[0] | y[0], x[1] | y[1]) for x, y in zip(a[0], b[0])),
        tuple((x[0] | y[0], x[1] | y[1]) for x, y in zip(a[1], b[1])),
    )


class _LabelPass:
    """Taint and escape of one function, solved as one forward fixpoint.

    Every local slot and operand-stack entry holds a :data:`Labels`
    pair: the taint labels that may reach the value, and the escape
    origins it may alias.  The join is pairwise union: a finite powerset
    lattice with no widening and no top, so the least fixpoint does not
    depend on visit order.  A second walk over the solved in-states
    records where labels reach returns, callback arguments, array
    stores and calls.
    """

    def __init__(self, cls: ClassFile, func: FunctionDef,
                 resolver: Resolver, known: Dict[str, FlowCertificate]):
        self.cls = cls
        self.func = func
        self.code = func.code
        self.resolver = resolver
        self.known = known
        self.return_sources: Set[str] = set()
        #: pc -> (callback name, per-arg label sets, joined over visits)
        self.sites: Dict[object, Tuple[str, List[Set[str]]]] = {}
        self.alloc_sites: Set[int] = set()
        self.written: Set[str] = set()
        self.escaped: Set[str] = set()

    def run(self) -> None:
        cfg = self.func.cfg
        result = dataflow.solve(
            cfg,
            dataflow.DataflowProblem(
                entry=self._entry_state(),
                transfer=dataflow.block_transfer(cfg, self.code, self._step),
                join=_join,
            ),
        )
        for index, state in enumerate(result.in_states):
            if state is None:
                continue
            locals_, stack = list(state[0]), list(state[1])
            for pc in cfg.blocks[index].pcs:
                self._observe(pc, self.code[pc], stack)
                self._step(pc, self.code[pc], locals_, stack)

    def _entry_state(self):
        locals_ = [_NO_LABELS] * len(self.func.local_types)
        for index, vm_type in enumerate(self.func.param_types):
            alias = (frozenset({f"param:{index}"})
                     if vm_type in _SEQ_TYPES else _EMPTY)
            locals_[index] = (frozenset({f"arg{index}"}), alias)
        return (tuple(locals_), ())

    def _arg_count(self, ins: Instr) -> Tuple[int, bool]:
        """(number of VM args, pushes a result?) for a call-like op."""
        signature = self.resolver.call_signature(self.cls, ins)
        if signature is None:
            return (0, True)
        params, ret = signature
        return (len(params), ret is not VMType.VOID)

    def _callee(self, ins: Instr) -> Optional[FlowCertificate]:
        """The certificate of an intra-class CALL's already-certified
        target, else None (recursive, or another class)."""
        class_name, func_name = self.cls.constant(ins.arg, K_FUNC)
        if class_name != self.cls.name:
            return None
        return self.known.get(func_name)

    def _alloc(self, pc: int) -> FrozenSet[str]:
        self.alloc_sites.add(pc)
        return frozenset({f"alloc:{pc}"})

    def _step(self, pc: int, ins: Instr,
              locals_: List[Labels], stack: List[Labels]) -> None:
        op = ins.op
        if step_stack(ins, locals_, stack):
            return
        if op is Op.SCONST:
            stack.append((_EMPTY, self._alloc(pc)))
        elif op in _CALL_OPS:
            argc, pushes = self._arg_count(ins)
            args = stack[len(stack) - argc:] if argc else []
            del stack[len(stack) - argc:]
            if pushes:
                stack.append(self._call_result(ins, args))
        else:
            info = OPS[op]
            args = stack[len(stack) - len(info.pops):]
            del stack[len(stack) - len(info.pops):]
            if info.pushes:
                # Scalar results (loads, lengths, comparisons) alias
                # nothing; an allocation is its own origin.
                stack.append((
                    _union(taint for taint, __ in args),
                    self._alloc(pc) if info.allocates else _EMPTY,
                ))

    def _call_result(self, ins: Instr, args: List[Labels]) -> Labels:
        if ins.op is Op.CALLBACK:
            # A fresh server-owned object, carrying the callback's label.
            (name,) = self.cls.constant(ins.arg, K_CALLBACK)
            return (frozenset({f"cb:{name}"}), _EMPTY)
        taints = [taint for taint, __ in args]
        taint = _union(taints)
        if ins.op is Op.CALL:
            callee = self._callee(ins)
            if callee is None:
                # Recursive / unresolved callee: assume the result may
                # carry anything the class can observe.
                taint = taint | _class_callback_labels(self.cls)
            else:
                taint = taint | _substitute(callee.return_sources, taints)
        # A callee may return one of its arguments: the result may
        # alias anything passed in.
        return (taint, _union(alias for __, alias in args))

    def _observe(self, pc: int, ins: Instr, stack: List[Labels]) -> None:
        """Record what reaches ``ins``, from the stack before it."""
        op = ins.op
        if op is Op.RET:
            taint, alias = stack[-1]
            self.return_sources.update(taint)
            self.escaped.update(alias)
        elif op in (Op.ASTORE, Op.FASTORE):
            # stack: ... arr idx value
            self.written.update(stack[-3][1])
        elif op in _CALL_OPS:
            argc, __ = self._arg_count(ins)
            args = stack[len(stack) - argc:] if argc else []
            # Conservative: anything passed onward may be retained or
            # mutated by the callee.
            for __, alias in args:
                self.written.update(alias)
                self.escaped.update(alias)
            if op is Op.CALLBACK:
                (name,) = self.cls.constant(ins.arg, K_CALLBACK)
                site = self.sites.setdefault(
                    pc, (name, [set() for _ in range(argc)])
                )
                for slot, (taint, __) in zip(site[1], args):
                    slot.update(taint)
            elif op is Op.CALL:
                callee = self._callee(ins)
                if callee is None:
                    return
                taints = [taint for taint, __ in args]
                # Import the callee's callback flows, substituting its
                # parameter labels with what this site actually passes.
                for flow in callee.callback_flows:
                    site = self.sites.setdefault(
                        (pc, flow.callback, flow.pc),
                        (flow.callback, [set() for _ in flow.arg_sources]),
                    )
                    for slot, sources in zip(site[1], flow.arg_sources):
                        slot.update(_substitute(sources, taints))


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
# Trap safety, read off the certifier's stacks
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
            signature = resolver.call_signature(cls, ins)
            params = (None,) if signature is None else signature[0]
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
    labels = _LabelPass(cls, func, resolver, known)
    labels.run()

    readonly = tuple(
        index
        for index, vm_type in enumerate(func.param_types)
        if vm_type in _SEQ_TYPES
        and f"param:{index}" not in labels.written
        and f"param:{index}" not in labels.escaped
    )
    escaping = tuple(sorted(
        pc for pc in labels.alloc_sites
        if f"alloc:{pc}" in labels.escaped or f"alloc:{pc}" in labels.written
    ))
    local = tuple(sorted(
        pc for pc in labels.alloc_sites
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
            labels.sites.items(),
            key=lambda item: (
                item[0] if isinstance(item[0], int) else item[0][0],
                item[1][0],
            ),
        )
    )

    return FlowCertificate(
        function=f"{cls.name}.{func.name}",
        return_sources=tuple(sorted(labels.return_sources)),
        callback_flows=flows,
        readonly_params=readonly,
        escaping_allocs=escaping,
        local_allocs=local,
        trap_pcs=_trap_pcs(cls, func, replay, known),
    )


def certify_flows(
    cls: ClassFile,
    component: List[str],
    recursive: bool,
    stacks: Dict[str, Replay],
    resolver: Resolver,
    known: Dict[str, FlowCertificate],
) -> None:
    """Certify the flows of one strongly-connected component of the
    intra-class call graph; attach each member's ``flows``.

    Components arrive callees first, so ``known`` already holds every
    callee outside this one.  ``stacks`` is what
    :func:`~repro.analysis.bounds.certify_component` returned for this
    component: per function, the abstract stack before each reachable
    pc, where the trap sites are found.  A recursive component gets the
    conservative certificate.
    """
    for name in component:
        func = cls.functions[name]
        if recursive:
            cert = _conservative_certificate(cls, func, resolver)
        else:
            cert = _certify_function(cls, func, resolver,
                                     stacks[name], known)
        func.flows = known[name] = cert
