"""Effect and purity analysis over verified bytecode.

Abstract interpretation over opcodes, in the Froid/GRACEFUL spirit: the
analyzer walks every instruction of every function once, collecting an
*effect summary* — which natives it calls, which callbacks it invokes,
whether it allocates, whether it may fail to terminate — and then closes
the summaries over the intra-class call graph (Tarjan SCCs, so mutual
recursion converges in one pass).

JaguarVM makes purity unusually easy to decide: the VM has no globals,
no statics, and no shared heap — the *only* way sandboxed code can
observe or affect anything beyond its arguments is a CALLBACK into the
server (NATIVE calls are restricted to the trusted, side-effect-free
stdlib by construction; see ``vm/stdlib.py``).  So a function whose
transitive effect set contains no callbacks is a pure function of its
arguments — memoizable and foldable — which is exactly the property the
optimizer exploits.

Summaries are attached to each ``FunctionDef`` (``func.summary``) and
rolled up per class (``cls.analysis``) by :func:`analyze_class`, which
the class loader invokes right after verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..vm.classfile import (
    ClassFile,
    FunctionDef,
    K_CALLBACK,
    K_FUNC,
    K_NATIVE,
)
from ..vm.opcodes import OPS, Instr, Op
from .cfg import CFG, build_cfg
from .costs import RECURSION_FACTOR

#: Ceiling on cost units so recursive cycles cannot overflow to silly
#: magnitudes; anything near this is "assume the worst" territory.
MAX_COST_UNITS = 1e12

#: A foreign call whose summary cannot be found is assumed to do
#: anything: not pure, may not terminate, expensive.
_UNKNOWN_CALL_COST = 1e6


@dataclass(frozen=True)
class FunctionSummary:
    """Static effect + cost summary of one function (transitive).

    ``cost_units`` is in the optimizer's abstract units: one cheap
    built-in comparison ~ 1 unit, matching the convention of
    :class:`~repro.core.udf.CostHints`.
    """

    name: str
    natives: FrozenSet[str] = frozenset()
    callbacks: FrozenSet[str] = frozenset()
    allocates: bool = False
    may_not_terminate: bool = False
    has_unbounded_loop: bool = False
    recursive: bool = False
    unknown_effects: bool = False   # unresolvable foreign call
    loop_count: int = 0
    max_loop_depth: int = 0
    cost_units: float = 0.0

    @property
    def pure(self) -> bool:
        """A pure function of its arguments: safe to fold and memoize."""
        return not self.callbacks and not self.unknown_effects

    @property
    def reads_args_only(self) -> bool:
        return self.pure

    def describe(self) -> str:
        """One-line human rendering for lint output and EXPLAIN."""
        effects: List[str] = []
        if self.pure:
            effects.append("pure")
        for name in sorted(self.callbacks):
            effects.append(f"callback:{name}")
        if self.unknown_effects:
            effects.append("unknown-calls")
        if self.allocates:
            effects.append("allocates")
        if self.has_unbounded_loop:
            effects.append("never-terminates")
        elif self.may_not_terminate:
            effects.append("may-not-terminate")
        if self.natives:
            effects.append("natives:" + ",".join(sorted(self.natives)))
        return (
            f"{self.name}: {' '.join(effects)} "
            f"cost≈{self.cost_units:.0f} "
            f"loops={self.loop_count}(depth {self.max_loop_depth})"
        )


@dataclass
class ClassSummary:
    """Per-function summaries plus the class-level effect rollup.

    The rollup is the union over *all* functions — deliberately
    conservative: the security pre-check rejects a classfile whose
    bytecode so much as references a forbidden callback, reachable from
    the entry point or not (dead code is still attack surface).
    """

    class_name: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def callbacks(self) -> FrozenSet[str]:
        out: set = set()
        for summary in self.functions.values():
            out |= summary.callbacks
        return frozenset(out)

    @property
    def natives(self) -> FrozenSet[str]:
        out: set = set()
        for summary in self.functions.values():
            out |= summary.natives
        return frozenset(out)


#: Resolves a foreign (class, function) reference to its summary, or
#: None when unavailable (treated as unknown effects).
ForeignLookup = Callable[[str, str], Optional[FunctionSummary]]


@dataclass
class _Direct:
    """Per-function facts before call-graph closure."""

    cfg: CFG
    natives: set
    callbacks: set
    allocates: bool
    local_cost: float
    #: intra-class call sites: func name -> summed loop multiplier
    intra_calls: Dict[str, float]
    #: foreign call sites: (class, func) -> summed loop multiplier
    foreign_calls: Dict[Tuple[str, str], float]


def analyze_class(
    cls: ClassFile,
    foreign_summary: Optional[ForeignLookup] = None,
) -> ClassSummary:
    """Analyze every function of a *verified* class; attach summaries.

    Each ``FunctionDef`` gains a ``summary`` attribute and the class a
    ``cls.analysis`` rollup.  ``foreign_summary`` resolves CALLs into
    other classes (the class loader passes parent-first resolution);
    unresolvable targets poison the caller with ``unknown_effects``.
    """
    if not cls.verified:
        raise ValueError(
            f"class {cls.name!r} must be verified before analysis"
        )
    direct: Dict[str, _Direct] = {
        name: _direct_facts(cls, func)
        for name, func in cls.functions.items()
    }
    summaries = _close_over_calls(cls, direct, foreign_summary)
    for name, func in cls.functions.items():
        func.summary = summaries[name]
    result = ClassSummary(class_name=cls.name, functions=summaries)
    cls.analysis = result
    return result


def cfg_of(func: FunctionDef) -> CFG:
    """The function's CFG (rebuilt on demand; bodies are small)."""
    return build_cfg(func.code)


def _direct_facts(cls: ClassFile, func: FunctionDef) -> _Direct:
    cfg = build_cfg(func.code)
    natives: set = set()
    callbacks: set = set()
    allocates = False
    local_cost = 0.0
    intra_calls: Dict[str, float] = {}
    foreign_calls: Dict[Tuple[str, str], float] = {}
    for pc, ins in enumerate(func.code):
        multiplier = _loop_multiplier(cfg.depth_at(pc))
        if ins.op is Op.NATIVE:
            (name,) = cls.constant(ins.arg, K_NATIVE)
            natives.add(name)
        elif ins.op is Op.CALLBACK:
            (name,) = cls.constant(ins.arg, K_CALLBACK)
            callbacks.add(name)
        elif ins.op is Op.CALL:
            class_name, func_name = cls.constant(ins.arg, K_FUNC)
            if class_name == cls.name:
                intra_calls[func_name] = (
                    intra_calls.get(func_name, 0.0) + multiplier
                )
            else:
                key = (class_name, func_name)
                foreign_calls[key] = foreign_calls.get(key, 0.0) + multiplier
        info = OPS[ins.op]
        allocates = allocates or info.allocates
        local_cost += info.weight * multiplier
    return _Direct(
        cfg=cfg,
        natives=natives,
        callbacks=callbacks,
        allocates=allocates,
        local_cost=min(local_cost, MAX_COST_UNITS),
        intra_calls=intra_calls,
        foreign_calls=foreign_calls,
    )


def _loop_multiplier(depth: int) -> float:
    from .costs import ASSUMED_TRIP_COUNT

    return float(ASSUMED_TRIP_COUNT) ** depth


def _close_over_calls(
    cls: ClassFile,
    direct: Dict[str, _Direct],
    foreign_summary: Optional[ForeignLookup],
) -> Dict[str, FunctionSummary]:
    """Propagate effects and costs over the intra-class call graph.

    Functions are processed one strongly-connected component at a time,
    in reverse topological order, so every callee outside the SCC is
    final when its callers are summarized.  Inside a multi-function (or
    self-recursive) SCC, effects are unioned and the combined cost is
    scaled by :data:`~repro.analysis.costs.RECURSION_FACTOR` — depth
    cannot be known statically, only bounded by the run-time quota.
    """
    order = _sccs({name: list(d.intra_calls) for name, d in direct.items()})
    summaries: Dict[str, FunctionSummary] = {}
    for component in order:
        in_scc = set(component)
        recursive = len(component) > 1 or any(
            name in direct[name].intra_calls for name in component
        )
        natives: set = set()
        callbacks: set = set()
        allocates = False
        may_not_terminate = recursive
        has_unbounded_loop = False
        unknown = False
        cost = 0.0
        loop_count = 0
        max_depth = 0
        for name in component:
            facts = direct[name]
            natives |= facts.natives
            callbacks |= facts.callbacks
            allocates = allocates or facts.allocates
            loops = facts.cfg.loops
            loop_count += len(loops)
            max_depth = max(max_depth, facts.cfg.max_loop_depth)
            if loops:
                may_not_terminate = True
            if any(loop.unbounded for loop in loops):
                has_unbounded_loop = True
            cost += facts.local_cost
            for callee, multiplier in facts.intra_calls.items():
                if callee in in_scc:
                    continue  # recursion handled by the SCC factor
                callee_summary = summaries[callee]
                natives |= callee_summary.natives
                callbacks |= callee_summary.callbacks
                allocates = allocates or callee_summary.allocates
                may_not_terminate = (
                    may_not_terminate or callee_summary.may_not_terminate
                )
                has_unbounded_loop = (
                    has_unbounded_loop or callee_summary.has_unbounded_loop
                )
                unknown = unknown or callee_summary.unknown_effects
                cost += callee_summary.cost_units * multiplier
            for (fclass, fname), multiplier in facts.foreign_calls.items():
                resolved = (
                    foreign_summary(fclass, fname)
                    if foreign_summary is not None else None
                )
                if resolved is None:
                    unknown = True
                    may_not_terminate = True
                    cost += _UNKNOWN_CALL_COST * multiplier
                else:
                    natives |= resolved.natives
                    callbacks |= resolved.callbacks
                    allocates = allocates or resolved.allocates
                    may_not_terminate = (
                        may_not_terminate or resolved.may_not_terminate
                    )
                    has_unbounded_loop = (
                        has_unbounded_loop or resolved.has_unbounded_loop
                    )
                    unknown = unknown or resolved.unknown_effects
                    cost += resolved.cost_units * multiplier
        if recursive:
            cost *= RECURSION_FACTOR
        cost = min(cost, MAX_COST_UNITS)
        for name in component:
            facts = direct[name]
            summaries[name] = FunctionSummary(
                name=f"{cls.name}.{name}",
                natives=frozenset(natives),
                callbacks=frozenset(callbacks),
                allocates=allocates,
                may_not_terminate=may_not_terminate,
                has_unbounded_loop=has_unbounded_loop,
                recursive=recursive,
                unknown_effects=unknown,
                loop_count=len(facts.cfg.loops),
                max_loop_depth=facts.cfg.max_loop_depth,
                cost_units=cost,
            )
    return summaries


def _sccs(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs, emitted in reverse topological order (callees
    before callers), ignoring edges to names outside the graph."""
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
            edges = [e for e in graph[current] if e in graph]
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
