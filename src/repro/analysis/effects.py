"""Effect and purity analysis over verified bytecode.

Abstract interpretation over opcodes, in the Froid/GRACEFUL spirit: the
analyzer walks every instruction of every function once, collecting an
*effect summary* — which natives it calls, which callbacks it invokes,
whether it allocates, whether it may fail to terminate — and then closes
the summaries over the intra-class call graph, one strongly-connected
component at a time, callees first (so mutual recursion converges in
one pass).

JaguarVM makes purity unusually easy to decide: the VM has no globals,
no statics, and no shared heap — the *only* way sandboxed code can
observe or affect anything beyond its arguments is a CALLBACK into the
server (NATIVE calls are restricted to the trusted, side-effect-free
stdlib by construction; see ``vm/stdlib.py``).  So a function whose
transitive effect set contains no callbacks is a pure function of its
arguments — memoizable and foldable — which is exactly the property the
optimizer exploits.

:func:`summarize_component` attaches each ``FunctionDef``'s
``func.summary``; :func:`~repro.analysis.pipeline.load_time_analysis`,
which walks the components and which the class loader runs right after
verification, rolls them up per class as ``cls.analysis``.
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
from ..vm.opcodes import OPS, Op
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

    func: FunctionDef
    natives: set
    callbacks: set
    allocates: bool
    local_cost: float
    #: intra-class call sites: func name -> summed loop multiplier
    intra_calls: Dict[str, float]
    #: foreign call sites: (class, func) -> summed loop multiplier
    foreign_calls: Dict[Tuple[str, str], float]


def summarize_component(
    cls: ClassFile,
    component: List[str],
    recursive: bool,
    summaries: Dict[str, FunctionSummary],
    foreign_summary: ForeignLookup,
) -> None:
    """Summarize one strongly-connected component of the intra-class
    call graph; attach each member's ``summary``.

    Components arrive callees first (:mod:`~repro.analysis.pipeline`
    walks them), so every callee outside this one is already in
    ``summaries``.  Inside a multi-function (or self-recursive)
    component, effects are unioned and the combined cost is scaled by
    :data:`~repro.analysis.costs.RECURSION_FACTOR`: depth cannot be
    known statically, only bounded by the run-time quota.
    ``foreign_summary`` resolves CALLs into other classes; an
    unresolvable target poisons the caller with ``unknown_effects``.
    """
    direct = [_direct_facts(cls, cls.functions[name]) for name in component]
    in_scc = set(component)
    natives: set = set()
    callbacks: set = set()
    allocates = False
    may_not_terminate = recursive
    has_unbounded_loop = False
    unknown = False
    cost = 0.0
    for facts in direct:
        natives |= facts.natives
        callbacks |= facts.callbacks
        allocates = allocates or facts.allocates
        loops = facts.func.cfg.loops
        if loops:
            may_not_terminate = True
        if any(loop.unbounded for loop in loops):
            has_unbounded_loop = True
        cost += facts.local_cost
        callees = [
            (summaries[callee], multiplier)
            for callee, multiplier in facts.intra_calls.items()
            if callee not in in_scc   # recursion: the SCC factor
        ] + [
            (foreign_summary(*key), multiplier)
            for key, multiplier in facts.foreign_calls.items()
        ]
        for callee, multiplier in callees:
            if callee is None:   # unresolved: assume it does anything
                unknown = True
                may_not_terminate = True
                cost += _UNKNOWN_CALL_COST * multiplier
                continue
            natives |= callee.natives
            callbacks |= callee.callbacks
            allocates = allocates or callee.allocates
            may_not_terminate = may_not_terminate or callee.may_not_terminate
            has_unbounded_loop = (
                has_unbounded_loop or callee.has_unbounded_loop
            )
            unknown = unknown or callee.unknown_effects
            cost += callee.cost_units * multiplier
    if recursive:
        cost *= RECURSION_FACTOR
    cost = min(cost, MAX_COST_UNITS)
    for facts in direct:
        cfg = facts.func.cfg
        facts.func.summary = summaries[facts.func.name] = FunctionSummary(
            name=f"{cls.name}.{facts.func.name}",
            natives=frozenset(natives),
            callbacks=frozenset(callbacks),
            allocates=allocates,
            may_not_terminate=may_not_terminate,
            has_unbounded_loop=has_unbounded_loop,
            recursive=recursive,
            unknown_effects=unknown,
            loop_count=len(cfg.loops),
            max_loop_depth=cfg.max_loop_depth,
            cost_units=cost,
        )


def _direct_facts(cls: ClassFile, func: FunctionDef) -> _Direct:
    cfg = func.cfg
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
        func=func,
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
