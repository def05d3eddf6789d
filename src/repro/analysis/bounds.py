"""Static resource-bound certification over verified bytecode.

This is the load-time prover the paper's Section 6.2 wishes it had: the
1998 JVM could only say "UDFs can currently consume as much CPU time and
memory as they desire"; JaguarVM's answer so far has been *dynamic*
metering — a fuel decrement and check on every interpreted instruction
(and per JIT block).  This module proves bounds once, at CREATE FUNCTION
time, so the hot path can skip those checks for code that cannot run
away.

The certifier is an abstract interpreter over the CFG of PR 1:

* **interval domain** per local slot and operand-stack position, with
  widening at natural-loop headers so fixpoints converge fast;
* **affine tracking** — a value may carry ``coeff·atom + offset`` where
  the atom names an entry fact (``arg{i}``: integer argument *i*;
  ``len{i}``: length of string/array argument *i*), which is what lets a
  bound stay *symbolic* in the input size;
* **counted-loop trip bounds** — the JagScript compiler emits a fixed
  shape (``LOAD i; LOAD stop; ICMPLT; JZ exit`` in the header, a single
  ``LOAD i; ICONST step; IADD; STORE i`` increment); loops matching it
  with a loop-invariant stop get a proven trip count, everything else
  widens to ⊤;
* **worst-case fuel** — instructions executed, as a :class:`Bound`
  polynomial over ``pos{i}``/``len{i}`` atoms (so the bound specializes
  to Rel1/Rel100/Rel10000 the moment arguments are known), closed over
  the intra-class call graph in SCC order;
* **worst-case heap** — summed over the allocation-accounted opcodes
  (NEWARR/NEWFARR/ACOPY/SCONCAT/SSUB/I2S/F2S) with their statically
  bounded sizes;
* **worst-case call depth** over the intra-class call graph (recursion
  ⇒ ⊤);
* **guaranteed minimums** — fuel/heap every *successful* execution must
  consume, from blocks that dominate every exit plus proven minimum
  trip counts.  The security manager compares these against the quota:
  if even the minimum cannot fit, the UDF is rejected at load.

Soundness notes (64-bit wrap-around): intervals collapse to ⊤ when
arithmetic may leave the int64 range, and affine forms are dropped when
coefficients/offsets grow past 2^32, so a wrapped value can never hide
under a small certified bound.  Symbolic trip bounds are only emitted
for step ±1 strict comparisons, where the loop variable provably cannot
wrap before the comparison fails.  Upper bounds evaluating at or above
``MAX_BOUND`` are treated as ⊤ by consumers (the interpreter/JIT then
keep dynamic metering, which remains the backstop for everything the
prover declines to certify).

Soundness notes (the JIT's certified clone):

* **value bound** — an accumulator update ``x = x ± e`` is listed in
  ``nowrap_pcs`` only if every update that can run before it has an
  addend of finite interval in a block of finite run count.  Every
  value ``x`` then holds satisfies ``|x| <= M + Σ |e|·runs`` over those
  updates, ``M`` the largest magnitude ``x`` is otherwise stored (0 at
  entry), and ``value_bound`` is that sum.  The run counts are the
  fuel bound's, tightened to ``trip`` for a non-header block (a block
  runs at most once per passed header test unless an inner loop, with
  its own factor, repeats it).  ``Bound`` keeps integer coefficients
  exact, so the JIT's guard ``value_bound < 2^63`` is decided without
  rounding; when it holds, no listed add can leave int64 and a plain
  ``+`` equals the wrapped one.
* **in-bounds accesses** — the index is the counter of a counted loop
  of step +1 and strict test, starting ``>= 0`` (it cannot wrap: it
  only steps after passing ``counter < stop``), and the increment cannot
  reach the access without the header, so ``0 <= index < stop`` there.
  ``stop`` and the indexed sequence both carry the affine length
  ``1·len{k}`` exactly, and lengths never change, so ``stop`` equals
  the sequence's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..vm.classfile import ClassFile, FunctionDef, K_FUNC, K_STR
from ..vm.opcodes import OPS, Instr, Op, step_stack
from ..vm.values import VMType
from ..vm.verifier import Resolver
from . import dataflow
from .cfg import Loop
from .intervals import (
    Bound,
    INF,
    Interval,
    MAX_BOUND,
    NON_NEGATIVE,
    OptBound,
    TOP,
    badd,
    bmul,
    describe_bound,
)

_INT_MAX = 2 ** 63 - 1
_INT_MIN = -(2 ** 63)

#: Affine forms with coefficients/offsets beyond this are dropped (the
#: wrap-around soundness argument in the module docstring needs it).
_AFFINE_LIMIT = 2 ** 32

#: Per-block widening trigger: a block reprocessed this often has its
#: state forced to ⊤ (guards irreducible hand-written bytecode).
_MAX_VISITS = 64

#: Upper bound on the charge of I2S / F2S (decimal int64 / float repr).
_I2S_MAX = 20
_F2S_MAX = 32


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

K_INT = "int"      # INT and BOOL slots: interval = value range
K_SEQ = "seq"      # STR/ARR/FARR slots: interval = LENGTH range
K_OTHER = "other"  # FLOAT slots: untracked


@dataclass(frozen=True)
class AbsVal:
    """One abstract slot/stack value.

    When ``atom`` is set the concrete value (or length, for ``seq``)
    equals ``coeff * atom + offset`` exactly, where the atom is an entry
    fact about the arguments; the interval always holds as well.
    """

    kind: str
    interval: Interval = TOP
    atom: Optional[str] = None
    coeff: int = 1
    offset: int = 0


_INT_TOP = AbsVal(K_INT)
_BOOL = AbsVal(K_INT, Interval(0, 1))
_OTHER = AbsVal(K_OTHER)
_SEQ_TOP = AbsVal(K_SEQ, NON_NEGATIVE)


def _of_type(vm_type: VMType) -> AbsVal:
    if vm_type in (VMType.INT,):
        return _INT_TOP
    if vm_type is VMType.BOOL:
        return _BOOL
    if vm_type is VMType.FLOAT:
        return _OTHER
    return _SEQ_TOP


def _entry_value(index: int, vm_type: VMType) -> AbsVal:
    if vm_type is VMType.INT:
        return AbsVal(K_INT, TOP, atom=f"arg{index}")
    if vm_type is VMType.BOOL:
        return _BOOL
    if vm_type is VMType.FLOAT:
        return _OTHER
    return AbsVal(K_SEQ, NON_NEGATIVE, atom=f"len{index}")


def _affine_ok(coeff: int, offset: int) -> bool:
    return abs(coeff) <= _AFFINE_LIMIT and abs(offset) <= _AFFINE_LIMIT


def _mk(kind: str, interval: Interval, atom: Optional[str] = None,
        coeff: int = 1, offset: int = 0) -> AbsVal:
    if atom is not None and (coeff == 0 or not _affine_ok(coeff, offset)):
        atom = None
    if atom is None:
        coeff, offset = 1, 0
    return AbsVal(kind, interval, atom, coeff, offset)


def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.kind != b.kind:          # verified code keeps kinds consistent
        return _OTHER
    interval = a.interval.join(b.interval)
    if (a.atom, a.coeff, a.offset) == (b.atom, b.coeff, b.offset):
        return _mk(a.kind, interval, a.atom, a.coeff, a.offset)
    return _mk(a.kind, interval)


def _widen_val(a: AbsVal, b: AbsVal) -> AbsVal:
    joined = _join_val(a, b)
    return _mk(joined.kind, a.interval.widen(joined.interval),
               joined.atom, joined.coeff, joined.offset)


def _top_like(v: AbsVal) -> AbsVal:
    if v.kind == K_SEQ:
        return _SEQ_TOP
    if v.kind == K_INT:
        return _INT_TOP
    return _OTHER


# -- affine integer arithmetic over AbsVals ---------------------------------

def _aff_add(a: AbsVal, b: AbsVal) -> AbsVal:
    interval = a.interval.add(b.interval)
    if a.atom is not None and b.atom is None and b.interval.is_const:
        return _mk(K_INT, interval, a.atom, a.coeff,
                   a.offset + int(b.interval.lo))
    if b.atom is not None and a.atom is None and a.interval.is_const:
        return _mk(K_INT, interval, b.atom, b.coeff,
                   b.offset + int(a.interval.lo))
    if a.atom is not None and a.atom == b.atom:
        coeff = a.coeff + b.coeff
        offset = a.offset + b.offset
        if coeff == 0:
            return _mk(K_INT, Interval.const(offset))
        return _mk(K_INT, interval, a.atom, coeff, offset)
    return _mk(K_INT, interval)


def _aff_neg(a: AbsVal) -> AbsVal:
    interval = a.interval.neg()
    if a.atom is not None:
        return _mk(K_INT, interval, a.atom, -a.coeff, -a.offset)
    return _mk(K_INT, interval)


def _aff_sub(a: AbsVal, b: AbsVal) -> AbsVal:
    return _aff_add(a, _aff_neg(b))


def _aff_mul(a: AbsVal, b: AbsVal) -> AbsVal:
    interval = a.interval.mul(b.interval)
    if a.atom is not None and b.atom is None and b.interval.is_const:
        c = int(b.interval.lo)
        return _mk(K_INT, interval, a.atom, a.coeff * c, a.offset * c)
    if b.atom is not None and a.atom is None and a.interval.is_const:
        c = int(a.interval.lo)
        return _mk(K_INT, interval, b.atom, b.coeff * c, b.offset * c)
    return _mk(K_INT, interval)


def _clamp_len(v: AbsVal) -> AbsVal:
    """Reinterpret an int AbsVal as a sequence length (``>= 0``)."""
    lo = max(0.0, v.interval.lo)
    hi = max(lo, v.interval.hi)
    return _mk(K_SEQ, Interval(lo, hi), v.atom, v.coeff, v.offset)


# -- conversion to symbolic bounds ------------------------------------------

def _upper(v: AbsVal) -> OptBound:
    """Sound upper bound on ``max(0, value)`` (length, for ``seq``)."""
    if v.interval.hi != INF:
        return Bound.const(max(0.0, v.interval.hi))
    if v.atom is None:
        return None
    if v.atom.startswith("len"):
        if v.coeff >= 1:
            return (Bound.atom(v.atom, float(v.coeff))
                    + Bound.const(max(0.0, v.offset)))
        return Bound.const(max(0.0, v.offset))
    # arg atoms: only coeff == 1, offset >= 0 survives wrap-around
    # (see the module docstring); everything else is ⊤.
    if v.coeff == 1 and v.offset >= 0:
        return (Bound.atom("pos" + v.atom[3:], 1.0)
                + Bound.const(float(v.offset)))
    return None


def _lower(v: AbsVal) -> int:
    """Sound lower bound on ``max(0, value)``."""
    lo = v.interval.lo
    if lo == -INF or lo == INF:
        return 0
    return max(0, int(lo))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopBound:
    """Proven iteration bounds of one natural loop.

    A *counted* loop (header ``LOAD counter; LOAD stop; ICMPLT; JZ exit``,
    ``ICMPGT`` counting down, one ``counter = counter + step`` per
    iteration, ``stop`` never stored in the loop) also records its
    ``counter`` and ``stop`` slots and its ``step``; any other loop has
    them None.
    """

    header_pc: int
    trip_min: int
    trip_bound: OptBound   # None = ⊤ (not a provably counted loop)
    counter: Optional[int] = None
    stop_slot: Optional[int] = None
    step: Optional[int] = None

    def describe(self) -> str:
        text = (f"loop@{self.header_pc}: "
                f"{self.trip_min}..{describe_bound(self.trip_bound)} trips")
        if self.counter is not None:
            text += (f", counter L{self.counter} to L{self.stop_slot} "
                     f"step {self.step}")
        return text


@dataclass(frozen=True)
class ResourceCertificate:
    """Per-function resource bounds, proven at load time.

    ``fuel_bound`` is transitive (includes callees); ``local_fuel_bound``
    counts only this method's instructions (CALL = 1) — the JIT charges
    per method, so each activation pays its own local bound.  ``None``
    plays ⊤ throughout.  ``min_fuel``/``min_memory`` are what every
    *successful* execution must consume at minimum.
    """

    function: str
    fuel_bound: OptBound
    local_fuel_bound: OptBound
    mem_bound: OptBound
    depth_bound: Optional[int]
    min_fuel: int
    min_memory: int
    loops: Tuple[LoopBound, ...] = ()
    #: IADD pcs of counted-loop increments proven never to wrap: the
    #: loop variable passed ``var < stop`` (``>``, counting down) against
    #: a loop-invariant int64 ``stop`` just before each step, so the JIT
    #: and kernels may add without the 64-bit wrap there.
    wrap_free_pcs: Tuple[int, ...] = ()
    #: IADD/ISUB pcs of accumulator updates ``x = x ± e`` whose result
    #: stays within ``value_bound`` in magnitude: they may skip the wrap
    #: whenever ``value_bound`` evaluates below 2^63 for the arguments.
    nowrap_pcs: Tuple[int, ...] = ()
    value_bound: OptBound = None
    #: ALOAD/ASTORE/SINDEX/FALOAD/FASTORE pcs whose index is always in
    #: range: the counter of a counted loop up to ``len`` of that array.
    in_bounds_pcs: Tuple[int, ...] = ()

    @property
    def fully_bounded(self) -> bool:
        """Fuel provably finite: per-instruction metering is elidable."""
        return self.fuel_bound is not None

    def fuel_charge(self, args: Sequence[object]) -> Optional[int]:
        """Concrete worst-case fuel for ``args``, or None (stay metered)."""
        return _charge(self.fuel_bound, args)

    def local_fuel_charge(self, args: Sequence[object]) -> Optional[int]:
        return _charge(self.local_fuel_bound, args)

    def describe(self) -> str:
        depth = "⊤" if self.depth_bound is None else str(self.depth_bound)
        return (
            f"{self.function}: fuel≤{describe_bound(self.fuel_bound)} "
            f"mem≤{describe_bound(self.mem_bound)} depth≤{depth} "
            f"min_fuel={self.min_fuel} min_mem={self.min_memory}"
        )


def atom_env(args: Sequence[object]) -> Callable[[str], float]:
    """Evaluate certificate atoms against concrete invocation arguments."""
    def env(atom: str) -> float:
        index = int(atom[3:])
        value = args[index]
        if atom.startswith("len"):
            return float(len(value))  # type: ignore[arg-type]
        number = float(value)         # type: ignore[arg-type]
        return number if number > 0 else 0.0
    return env


def constant_bound(bound: OptBound) -> Optional[int]:
    """The bound's value when it is input-independent, else None.

    Admission control and cost derivation can only act on claims known
    before the arguments exist, i.e. bounds with no symbolic atoms.
    """
    if bound is None or any(monomial for monomial, __ in bound.terms):
        return None
    return int(math.ceil(bound.evaluate(lambda atom: 0.0)))


def _charge(bound: OptBound, args: Sequence[object]) -> Optional[int]:
    if bound is None:
        return None
    try:
        value = bound.evaluate(atom_env(args))
    except (IndexError, TypeError, ValueError):
        return None
    if value >= MAX_BOUND:
        return None
    return int(math.ceil(value))


@dataclass
class ClassCertificates:
    """Per-function certificates of one class."""

    class_name: str
    functions: Dict[str, ResourceCertificate]

    @property
    def fully_bounded(self) -> bool:
        return all(c.fully_bounded for c in self.functions.values())


#: Resolves a foreign (class, function) reference to its certificate,
#: or None when unavailable (treated as unbounded).
ForeignCertificates = Callable[[str, str], Optional[ResourceCertificate]]


#: Per reachable pc, the abstract operand stack before it and, per
#: entry, the local slot a LOAD in the same block pushed it from.
Replay = Dict[int, Tuple[Tuple[AbsVal, ...], Tuple[Optional[int], ...]]]


def certify_component(
    cls: ClassFile,
    component: List[str],
    resolver: Resolver,
    certificates: Dict[str, ResourceCertificate],
    foreign_certificate: ForeignCertificates,
) -> Dict[str, Replay]:
    """Certify one strongly-connected component of the intra-class call
    graph; attach each member's ``certificate``.

    Components arrive callees first, so ``certificates`` already holds
    every callee outside this one.  A call into a not-yet-final
    certificate (recursion) or an unresolvable foreign class yields ⊤
    fuel/memory/depth; dynamic metering remains its backstop.

    Returns each member's :data:`Replay`: the flow pass finds trap
    sites in it instead of solving the interval fixpoint again.  Nothing
    else keeps it.
    """
    stacks: Dict[str, Replay] = {}
    for name in component:
        func = cls.functions[name]
        certifier = _FunctionCertifier(
            cls, func, resolver, certificates, foreign_certificate,
        )
        func.certificate = certificates[name] = certifier.certify()
        stacks[name] = certifier.replay
    return stacks


# ---------------------------------------------------------------------------
# Per-function certifier
# ---------------------------------------------------------------------------

#: One abstract machine state: (locals, operand stack).
_State = Tuple[Tuple[AbsVal, ...], Tuple[AbsVal, ...]]


@dataclass(frozen=True)
class _AllocSite:
    block: int
    upper: OptBound    # bytes charged, upper bound
    lower: int         # bytes charged, lower bound


class _Counted(NamedTuple):
    """A counted loop's shape: ``var`` steps by ``step`` at ``store_pc``
    and is compared against the loop-invariant ``stop_slot``."""

    var: int
    stop_slot: int
    step: int
    store_pc: int


def _magnitude(interval: Interval) -> Optional[int]:
    """Exact ``max |v|`` over a finite interval, else None."""
    magnitude = max(abs(interval.lo), abs(interval.hi))
    if isinstance(magnitude, float) and not magnitude < 2.0 ** 53:
        return None   # infinite, or a float too large to be exact
    return int(math.ceil(magnitude))


@dataclass(frozen=True)
class _CallSite:
    block: int
    callee: Optional[ResourceCertificate]   # None = unresolved/recursive
    substitution: Dict[str, OptBound]       # callee atom -> caller bound


class _FunctionCertifier:
    def __init__(
        self,
        cls: ClassFile,
        func: FunctionDef,
        resolver: Resolver,
        intra: Dict[str, ResourceCertificate],
        foreign: Optional[ForeignCertificates],
    ):
        self.cls = cls
        self.func = func
        self.code = func.code
        self.resolver = resolver
        self.intra = intra
        self.foreign = foreign
        self.cfg = func.cfg
        self.entry_state = self._entry_state()
        self.in_states: List[Optional[_State]] = (
            [None] * len(self.cfg.blocks)
        )
        self.out_states: List[Optional[_State]] = (
            [None] * len(self.cfg.blocks)
        )

    # -- driver -------------------------------------------------------------

    def certify(self) -> ResourceCertificate:
        self._fixpoint()
        self.wrap_free: List[int] = []
        self.counted: Dict[int, _Counted] = {}
        trips = {
            loop.header: self._loop_trip(loop) for loop in self.cfg.loops
        }
        mults = self._block_multipliers(trips)
        self.replay = self._replay()
        allocs, calls = self._collect_sites()
        local_fuel, fuel, mem = self._upper_bounds(mults, allocs, calls)
        depth = self._depth_bound(calls)
        min_fuel, min_memory = self._minimums(trips, allocs, calls)
        nowrap, value_bound = self._value_facts(
            self._block_multipliers(trips, runs=True)
        )
        loop_bounds = tuple(
            LoopBound(
                self.cfg.blocks[loop.header].start, *trips[loop.header],
                # counter, stop slot, step
                *self.counted.get(loop.header, (None,) * 4)[:3],
            )
            for loop in self.cfg.loops
        )
        return ResourceCertificate(
            function=f"{self.cls.name}.{self.func.name}",
            fuel_bound=fuel,
            local_fuel_bound=local_fuel,
            mem_bound=mem,
            depth_bound=depth,
            min_fuel=min_fuel,
            min_memory=min_memory,
            loops=loop_bounds,
            wrap_free_pcs=tuple(sorted(self.wrap_free)),
            nowrap_pcs=nowrap,
            value_bound=value_bound,
            in_bounds_pcs=self._in_bounds(),
        )

    # -- abstract interpretation -------------------------------------------

    def _entry_state(self) -> _State:
        locals_: List[AbsVal] = []
        for index, vm_type in enumerate(self.func.local_types):
            if index < len(self.func.param_types):
                locals_.append(_entry_value(index, vm_type))
            else:
                locals_.append(_of_type(vm_type))
        return (tuple(locals_), ())

    def _fixpoint(self) -> None:
        # The interval lattice as a DataflowProblem: the shared worklist
        # engine reproduces the historical iteration order exactly, so
        # the resulting certificates stay bit-identical (pinned by the
        # migration-parity test in tests/analysis/test_dataflow.py).
        result = dataflow.solve(
            self.cfg,
            dataflow.DataflowProblem(
                entry=self.entry_state,
                transfer=self._run_block,
                join=self._join_state,
                widen=self._widen_state,
                top=self._top_state,
            ),
            max_visits=_MAX_VISITS,
        )
        self.in_states = result.in_states
        self.out_states = result.out_states

    @staticmethod
    def _top_state(state: _State) -> _State:
        locals_, stack = state
        return (
            tuple(_top_like(v) for v in locals_),
            tuple(_top_like(v) for v in stack),
        )

    @staticmethod
    def _join_state(a: _State, b: _State) -> _State:
        return (
            tuple(_join_val(x, y) for x, y in zip(a[0], b[0])),
            tuple(_join_val(x, y) for x, y in zip(a[1], b[1])),
        )

    @staticmethod
    def _widen_state(old: _State, new: _State) -> _State:
        return (
            tuple(_widen_val(x, y) for x, y in zip(old[0], new[0])),
            tuple(_widen_val(x, y) for x, y in zip(old[1], new[1])),
        )

    def _run_block(self, index: int, state: _State) -> _State:
        locals_, stack = list(state[0]), list(state[1])
        for pc in self.cfg.blocks[index].pcs:
            self._step(pc, self.code[pc], locals_, stack)
        return (tuple(locals_), tuple(stack))

    def _step(self, pc: int, ins: Instr,
              locals_: List[AbsVal], stack: List[AbsVal]) -> None:
        op = ins.op
        info = OPS[op]
        if step_stack(ins, locals_, stack):
            return
        if op is Op.ICONST or op is Op.BCONST:
            stack.append(_mk(K_INT, Interval.const(ins.arg)))
        elif op is Op.SCONST:
            (text,) = self.cls.constant(ins.arg, K_STR)
            stack.append(_mk(K_SEQ, Interval.const(len(text))))
        elif info.pops is None:   # CALL, NATIVE, CALLBACK
            self._step_call(pc, ins, stack)
        else:
            args = stack[len(stack) - len(info.pops):]
            del stack[len(stack) - len(info.pops):]
            transfer = _TRANSFERS.get(op)
            if transfer is not None:
                stack.append(transfer(*args))
            else:
                stack.extend(_of_type(t) for t in info.pushes)

    def _step_call(self, pc: int, ins: Instr, stack: List[AbsVal]) -> None:
        signature = self.resolver.call_signature(self.cls, ins)
        if signature is None:
            # Unresolvable (should not happen for verified code):
            # recover the proven post-call depth from the verifier.
            depth = (
                self.func.stack_in[pc + 1]
                if self.func.stack_in is not None
                and pc + 1 < len(self.func.stack_in)
                else len(stack)
            )
            del stack[depth:]
            while len(stack) < depth:
                stack.append(_OTHER)
            return
        params, ret = signature
        del stack[len(stack) - len(params):]
        if ret is not VMType.VOID:
            stack.append(_of_type(ret))

    # -- trip counts --------------------------------------------------------

    def _entry_locals(self, loop: Loop) -> Optional[Tuple[AbsVal, ...]]:
        header = self.cfg.blocks[loop.header]
        states: List[Tuple[AbsVal, ...]] = []
        if loop.header == 0:
            states.append(self.entry_state[0])
        for pred in header.predecessors:
            if pred in loop.body:
                continue
            out = self.out_states[pred]
            if out is None:
                return None
            states.append(out[0])
        if not states:
            return None
        merged = states[0]
        for other in states[1:]:
            merged = tuple(
                _join_val(x, y) for x, y in zip(merged, other)
            )
        return merged

    def _loop_trip(self, loop: Loop) -> Tuple[int, OptBound]:
        """(guaranteed minimum trips, symbolic maximum trips or ⊤)."""
        if loop.unbounded:
            return (0, None)
        blocks = self.cfg.blocks
        code = self.code
        header = blocks[loop.header]
        if header.end - header.start < 4:
            return (0, None)
        i0, i1, i2, i3 = code[header.end - 4:header.end]
        if not (i0.op is Op.LOAD and i1.op is Op.LOAD and i3.op is Op.JZ):
            return (0, None)
        if i2.op in (Op.ICMPLT, Op.ICMPLE):
            down, inclusive = False, i2.op is Op.ICMPLE
        elif i2.op in (Op.ICMPGT, Op.ICMPGE):
            down, inclusive = True, i2.op is Op.ICMPGE
        else:
            return (0, None)
        var, stop_slot = i0.arg, i1.arg
        if var == stop_slot:
            return (0, None)
        if self.cfg.block_of[i3.arg] in loop.body:
            return (0, None)   # the JZ must be the loop exit
        store_pcs = []
        for block_index in loop.body:
            for pc in blocks[block_index].pcs:
                ins = code[pc]
                if ins.op is Op.STORE and ins.arg == stop_slot:
                    return (0, None)   # stop must be loop-invariant
                if ins.op is Op.STORE and ins.arg == var:
                    store_pcs.append(pc)
        if len(store_pcs) != 1:
            return (0, None)
        store_pc = store_pcs[0]
        if store_pc < 3:
            return (0, None)
        p_load, p_const, p_add = code[store_pc - 3:store_pc]
        if not (p_load.op is Op.LOAD and p_load.arg == var
                and p_const.op is Op.ICONST and p_add.op is Op.IADD):
            return (0, None)
        step = p_const.arg
        if (not down and step < 1) or (down and step > -1):
            return (0, None)
        inc_block = self.cfg.block_of[store_pc]
        if (self.cfg.block_of[store_pc - 3] != inc_block
                or inc_block not in loop.body):
            return (0, None)
        back_sources = [
            p for p in header.predecessors if p in loop.body
        ]
        dom = self.cfg.dominators
        if not back_sources or not all(
            inc_block in dom[src] for src in back_sources
        ):
            return (0, None)   # increment must run every iteration
        if not inclusive:
            self.counted[loop.header] = _Counted(var, stop_slot, step,
                                                 store_pc)
        entry = self._entry_locals(loop)
        if entry is None:
            return (0, None)
        init, stop = entry[var], entry[stop_slot]
        hi = self._trip_upper(init, stop, step, down, inclusive)
        lo = self._trip_lower(loop, inc_block, init, stop, step,
                              down, inclusive)
        if hi is not None and not any(
            other.body < loop.body and inc_block in other.body
            for other in self.cfg.loops
        ):
            # Outside any inner loop the increment runs once per passed
            # header test, so the proof of ``hi`` bounds its result too.
            self.wrap_free.append(store_pc - 1)
        return (lo, hi)

    @staticmethod
    def _trip_upper(init: AbsVal, stop: AbsVal, step: int,
                    down: bool, inclusive: bool) -> OptBound:
        magnitude = abs(step)
        incl = 1 if inclusive else 0
        if not down:
            far, near = stop.interval.hi, init.interval.lo
        else:
            far, near = init.interval.hi, stop.interval.lo
        if far != INF and near != -INF:
            # Concrete: also prove the loop variable cannot wrap past
            # the comparison (the last step must stay inside int64).
            if not down and far + incl - 1 + magnitude > _INT_MAX:
                return None
            if down and near - incl + 1 - magnitude < _INT_MIN:
                return None
            trips = max(0.0, math.ceil((far - near + incl) / magnitude))
            return Bound.const(trips)
        # Symbolic: only step ±1 strict comparisons are wrap-safe.
        if magnitude != 1 or inclusive:
            return None
        if not down:
            if init.interval.lo == -INF:
                return None
            bound = _upper(stop)
            slack = max(0.0, -init.interval.lo)
        else:
            if stop.interval.lo == -INF:
                return None
            bound = _upper(init)
            slack = max(0.0, -stop.interval.lo)
        if bound is None:
            return None
        return bound + Bound.const(slack)

    def _trip_lower(self, loop: Loop, inc_block: int,
                    init: AbsVal, stop: AbsVal, step: int,
                    down: bool, inclusive: bool) -> int:
        # Early exits (break) or an increment inside a nested loop can
        # shorten the run; then only 0 iterations are guaranteed.
        for block_index in loop.body:
            if block_index == loop.header:
                continue
            block = self.cfg.blocks[block_index]
            if any(s not in loop.body for s in block.successors):
                return 0
        for other in self.cfg.loops:
            if other is loop or other.header == loop.header:
                continue
            if other.body < loop.body and inc_block in other.body:
                return 0
        magnitude = abs(step)
        incl = 1 if inclusive else 0
        if not down:
            far, near = stop.interval.lo, init.interval.hi
        else:
            far, near = init.interval.lo, stop.interval.hi
        if far in (INF, -INF) or near in (INF, -INF):
            return 0
        return max(0, math.ceil((far - near + incl) / magnitude))

    # -- value and index facts ----------------------------------------------

    def _value_facts(
        self, runs: List[OptBound]
    ) -> Tuple[Tuple[int, ...], OptBound]:
        """``(nowrap_pcs, value_bound)``: accumulator updates that cannot
        wrap while ``value_bound`` stays below 2^63.

        An int local other than a parameter takes part when each of its
        stores is an update ``x = x ± e`` or a value of finite interval.
        An update is bounded when ``e`` has a finite interval and its
        block a finite run count.  Every value ``x`` holds up to an update
        is then at most the largest stored magnitude plus ``|e|·runs``
        summed over the updates that can run before it, so an update that
        no unbounded one reaches is listed, and the sum over the updates
        reaching a listed one joins ``value_bound``.  Counter increments
        (``wrap_free``) need no guard and are not listed.
        """
        nparams = len(self.func.param_types)
        stores: Dict[int, List[int]] = {}
        for pc in self.replay:
            ins = self.code[pc]
            if (ins.op is Op.STORE and ins.arg >= nparams
                    and self.func.local_types[ins.arg] is VMType.INT):
                stores.setdefault(ins.arg, []).append(pc)
        nowrap: List[int] = []
        value_bound: OptBound = None
        for slot, pcs in stores.items():
            largest = 0
            updates: List[Tuple[int, OptBound]] = []
            for pc in pcs:
                update = self._update(pc, slot, runs)
                if update is not None:
                    updates.append(update)
                    continue
                magnitude = _magnitude(self.replay[pc][0][-1].interval)
                if magnitude is None:
                    break
                largest = max(largest, magnitude)
            else:
                listed = [
                    pc for pc, __ in updates
                    if pc not in self.wrap_free and all(
                        term is not None
                        for other, term in updates if self._reaches(other, pc)
                    )
                ]
                if not listed:
                    continue
                total = Bound.const(largest)
                for other, term in updates:
                    if any(self._reaches(other, pc) for pc in listed):
                        total = total + term
                value_bound = (total if value_bound is None
                               else value_bound.join(total))
                nowrap += listed
        return tuple(sorted(nowrap)), value_bound

    def _update(self, store_pc: int, slot: int,
                runs: List[OptBound]) -> Optional[Tuple[int, OptBound]]:
        """``(add pc, |e|·runs or None if unbounded)`` when ``store_pc``
        ends ``x = x ± e`` for ``x`` in ``slot``, else None."""
        add_pc = store_pc - 1
        block = self.cfg.block_of[store_pc]
        if (add_pc < 0 or self.code[add_pc].op not in (Op.IADD, Op.ISUB)
                or self.cfg.block_of[add_pc] != block):
            return None
        (a, a_slot), (b, b_slot) = self._operands(add_pc, 2)
        if a_slot == slot:
            addend = b
        elif b_slot == slot and self.code[add_pc].op is Op.IADD:
            addend = a
        else:
            return None
        magnitude = _magnitude(addend.interval)
        if magnitude is None or runs[block] is None:
            return (add_pc, None)
        return (add_pc, runs[block].ceiled().scale(magnitude))

    def _in_bounds(self) -> Tuple[int, ...]:
        """Accesses whose index is a counted loop's counter running from
        ``>= 0`` by +1 to ``len`` of the very sequence indexed."""
        found = []
        for pc in self.replay:
            info = OPS[self.code[pc].op]
            if info.trap != "index":
                continue
            operands = self._operands(pc, len(info.pops))
            (seq, seq_slot), (__, index_slot) = operands[:2]
            if seq_slot is not None and any(
                self._indexes_below_len(loop, pc, seq, seq_slot, index_slot)
                for loop in self.cfg.loops
            ):
                found.append(pc)
        return tuple(found)

    def _indexes_below_len(self, loop: Loop, pc: int, seq: AbsVal,
                           seq_slot: int, index_slot: Optional[int]) -> bool:
        counted = self.counted.get(loop.header)
        block = self.cfg.block_of[pc]
        if (counted is None or counted.var != index_slot
                or counted.step != 1 or block not in loop.body
                or block == loop.header):
            return False
        entry = self._entry_locals(loop)
        if entry is None or entry[counted.var].interval.lo < 0:
            return False
        # ``stop`` and the sequence both have length ``len{k}`` exactly.
        stop = entry[counted.stop_slot]
        if (seq.atom is None or not seq.atom.startswith("len")
                or (seq.coeff, seq.offset) != (1, 0)
                or (stop.atom, stop.coeff, stop.offset) != (seq.atom, 1, 0)):
            return False
        if any(self.code[p].op is Op.STORE and self.code[p].arg == seq_slot
               for b in loop.body for p in self.cfg.blocks[b].pcs):
            return False
        # The counter passed ``counter < stop`` at the header and has not
        # been stepped since.
        return not self._reaches(counted.store_pc, pc, avoiding=loop.header)

    def _reaches(self, src: int, dst: int,
                 avoiding: Optional[int] = None) -> bool:
        """Whether ``dst`` can run after ``src`` (or is ``src``), on a
        path that does not pass block ``avoiding``."""
        start, goal = self.cfg.block_of[src], self.cfg.block_of[dst]
        if start == goal and src <= dst:
            return True
        seen = set()
        todo = list(self.cfg.blocks[start].successors)
        while todo:
            b = todo.pop()
            if b in seen or b == avoiding:
                continue
            seen.add(b)
            todo += self.cfg.blocks[b].successors
        return goal in seen

    # -- upper bounds -------------------------------------------------------

    def _block_multipliers(
        self, trips: Dict[int, Tuple[int, OptBound]], runs: bool = False
    ) -> List[OptBound]:
        """Per block, how often it runs per call.  The fuel bound takes
        ``trip + 1`` per enclosing loop; with ``runs`` only a loop's
        header does (its final test), since another block of the loop
        runs at most once per passed test (twice would close a cycle
        around it, that is an inner loop, whose own factor counts it)."""
        mults: List[OptBound] = []
        for block in self.cfg.blocks:
            mult: OptBound = Bound.const(1)
            for loop in self.cfg.loops:
                if block.index in loop.body:
                    trip = trips[loop.header][1]
                    extra = 0 if runs and block.index != loop.header else 1
                    mult = bmul(
                        mult,
                        None if trip is None else trip + Bound.const(extra),
                    )
            mults.append(mult)
        return mults

    def _collect_sites(
        self,
    ) -> Tuple[List[_AllocSite], List[_CallSite]]:
        allocs: List[_AllocSite] = []
        calls: List[_CallSite] = []
        for pc, (stack, __) in self.replay.items():
            block, ins = self.cfg.block_of[pc], self.code[pc]
            alloc = self._alloc_at(block, ins, stack)
            if alloc is not None:
                allocs.append(alloc)
            if ins.op is Op.CALL:
                calls.append(self._call_at(block, ins, stack))
        return allocs, calls

    def _replay(self) -> Replay:
        """Per reachable pc, in order: the abstract operand stack before
        it and, per entry, the local slot a LOAD in the same block pushed
        it from (None for any other value)."""
        out = {}
        for block in self.cfg.blocks:
            state = self.in_states[block.index]
            if state is None:
                continue
            locals_, stack = list(state[0]), list(state[1])
            loaded: List[Optional[int]] = [None] * len(stack)
            for pc in block.pcs:
                ins = self.code[pc]
                out[pc] = (tuple(stack), tuple(loaded))
                self._step(pc, ins, locals_, stack)
                if ins.op is Op.DUP:
                    loaded.append(loaded[-1])
                elif ins.op is Op.SWAP:
                    loaded[-1], loaded[-2] = loaded[-2], loaded[-1]
                else:
                    del loaded[len(stack) - self._pushes(ins):]
                    slot = ins.arg if ins.op is Op.LOAD else None
                    loaded += [slot] * (len(stack) - len(loaded))
        return out

    def _pushes(self, ins: Instr) -> int:
        """How many values ``ins`` pushes (DUP aside: at most one)."""
        pushes = OPS[ins.op].pushes
        if pushes is not None:
            return len(pushes)
        if ins.op in (Op.CALL, Op.NATIVE, Op.CALLBACK):
            signature = self.resolver.call_signature(self.cls, ins)
            return int(signature is not None
                       and signature[1] is not VMType.VOID)
        return int(ins.op is Op.LOAD)

    def _operands(self, pc: int, count: int):
        """The ``count`` operands ``pc`` pops, deepest first, as
        ``(abstract value, LOAD slot or None)`` pairs."""
        stack, loaded = self.replay[pc]
        return list(zip(stack[-count:], loaded[-count:]))

    def _alloc_at(self, block: int, ins: Instr,
                  stack: List[AbsVal]) -> Optional[_AllocSite]:
        op = ins.op
        if op is Op.NEWARR:
            v = stack[-1]
            return _AllocSite(block, _upper(v), _lower(v))
        if op is Op.NEWFARR:
            v = stack[-1]
            upper = _upper(v)
            return _AllocSite(
                block,
                None if upper is None else upper.scale(8.0),
                8 * _lower(v),
            )
        if op is Op.ACOPY:
            v = stack[-1]
            return _AllocSite(block, _upper(v), _lower(v))
        if op is Op.SCONCAT:
            b, a = stack[-1], stack[-2]
            return _AllocSite(
                block, badd(_upper(a), _upper(b)), _lower(a) + _lower(b)
            )
        if op is Op.SSUB:
            end, start, seq = stack[-1], stack[-2], stack[-3]
            upper = _upper(_clamp_len(_aff_sub(end, start)))
            if upper is None:
                upper = _upper(seq)
            low = 0
            if end.interval.lo != -INF and start.interval.hi != INF:
                low = max(0, int(end.interval.lo - start.interval.hi))
            return _AllocSite(block, upper, low)
        if op is Op.I2S:
            return _AllocSite(block, Bound.const(_I2S_MAX), 1)
        if op is Op.F2S:
            return _AllocSite(block, Bound.const(_F2S_MAX), 1)
        return None

    def _call_at(self, block: int, ins: Instr,
                 stack: List[AbsVal]) -> _CallSite:
        class_name, func_name = self.cls.constant(ins.arg, K_FUNC)
        if class_name == self.cls.name:
            callee_cert = self.intra.get(func_name)
        elif self.foreign is not None:
            callee_cert = self.foreign(class_name, func_name)
        else:
            callee_cert = None
        substitution: Dict[str, OptBound] = {}
        signature = self.resolver.call_signature(self.cls, ins)
        if signature is None:
            return _CallSite(block, None, substitution)
        params, _ret = signature
        if params:
            args = stack[len(stack) - len(params):]
            for k, value in enumerate(args):
                substitution[f"pos{k}"] = _upper(value)
                substitution[f"len{k}"] = _upper(value)
        return _CallSite(block, callee_cert, substitution)

    @staticmethod
    def _substitute(bound: OptBound,
                    mapping: Dict[str, OptBound]) -> OptBound:
        if bound is None:
            return None
        total = Bound.const(0)
        for monomial, coeff in bound.terms:
            term = Bound.const(coeff)
            for atom in monomial:
                replacement = mapping.get(atom)
                if replacement is None:
                    return None
                term = term * replacement
            total = total + term
        return total

    def _upper_bounds(
        self,
        mults: List[OptBound],
        allocs: List[_AllocSite],
        calls: List[_CallSite],
    ) -> Tuple[OptBound, OptBound, OptBound]:
        local_fuel: OptBound = Bound.const(0)
        for block in self.cfg.blocks:
            size = Bound.const(block.end - block.start)
            local_fuel = badd(local_fuel, bmul(size, mults[block.index]))
        fuel = local_fuel
        mem: OptBound = Bound.const(0)
        for site in allocs:
            mem = badd(mem, bmul(site.upper, mults[site.block]))
        for site in calls:
            if site.callee is None:
                fuel = None
                mem = None
                break
            callee_fuel = self._substitute(
                site.callee.fuel_bound, site.substitution
            )
            callee_mem = self._substitute(
                site.callee.mem_bound, site.substitution
            )
            fuel = badd(fuel, bmul(callee_fuel, mults[site.block]))
            mem = badd(mem, bmul(callee_mem, mults[site.block]))
        return local_fuel, fuel, mem

    def _depth_bound(self, calls: List[_CallSite]) -> Optional[int]:
        depth = 1
        for site in calls:
            if site.callee is None or site.callee.depth_bound is None:
                return None
            depth = max(depth, 1 + site.callee.depth_bound)
        return depth

    # -- guaranteed minimums ------------------------------------------------

    def _minimums(
        self,
        trips: Dict[int, Tuple[int, OptBound]],
        allocs: List[_AllocSite],
        calls: List[_CallSite],
    ) -> Tuple[int, int]:
        code = self.code
        blocks = self.cfg.blocks
        exits = [
            b.index for b in blocks
            if code[b.end - 1].op in (Op.RET, Op.RETV)
        ]
        if not exits:
            return (0, 0)   # e.g. `while True: pass`: nothing guaranteed
        dom = self.cfg.dominators
        must_exec = {
            b.index for b in blocks
            if all(b.index in dom[e] for e in exits)
        }
        block_fuel = {b.index: float(b.end - b.start) for b in blocks}
        block_mem = {b.index: 0.0 for b in blocks}
        for site in allocs:
            block_mem[site.block] += site.lower
        for site in calls:
            if site.callee is not None:
                block_fuel[site.block] += site.callee.min_fuel
                block_mem[site.block] += site.callee.min_memory

        loops = self.cfg.loops
        child_blocks: Dict[int, set] = {loop.header: set() for loop in loops}
        children: Dict[int, List[Loop]] = {loop.header: [] for loop in loops}
        top_level: List[Loop] = []
        for loop in loops:
            parent: Optional[Loop] = None
            for other in loops:
                if other is loop or not (loop.body < other.body):
                    continue
                if parent is None or other.body < parent.body:
                    parent = other
            if parent is None:
                top_level.append(loop)
            else:
                children[parent.header].append(loop)
                child_blocks[parent.header] |= set(loop.body)

        def loop_minimum(loop: Loop) -> Tuple[float, float]:
            trip_min = trips[loop.header][0]
            if trip_min <= 0:
                return (0.0, 0.0)
            sources = [
                p for p in blocks[loop.header].predecessors
                if p in loop.body
            ]
            if not sources:
                return (0.0, 0.0)
            fuel = mem = 0.0
            nested = child_blocks[loop.header]
            for index in loop.body:
                if index in nested:
                    continue
                if all(index in dom[src] for src in sources):
                    fuel += block_fuel[index]
                    mem += block_mem[index]
            for child in children[loop.header]:
                if all(child.header in dom[src] for src in sources):
                    child_fuel, child_mem = loop_minimum(child)
                    fuel += child_fuel
                    mem += child_mem
            return (trip_min * fuel, trip_min * mem)

        in_any_loop = set()
        for loop in loops:
            in_any_loop |= set(loop.body)
        top_headers = {loop.header for loop in top_level}
        min_fuel = min_mem = 0.0
        for index in must_exec:
            if index not in in_any_loop or index in top_headers:
                # a top-level loop header runs once on entry even with
                # zero trips; per-iteration re-runs (and everything in
                # nested loops) come from loop_minimum instead.
                min_fuel += block_fuel[index]
                min_mem += block_mem[index]
        for loop in top_level:
            if loop.header in must_exec:
                loop_fuel, loop_mem = loop_minimum(loop)
                min_fuel += loop_fuel
                min_mem += loop_mem
        cap = float(2 ** 62)
        return (int(min(min_fuel, cap)), int(min(min_mem, cap)))


def _clamp_int_len(v: AbsVal) -> AbsVal:
    """SLEN/ALEN/FALEN: a sequence's length AbsVal, as an int value."""
    lo = max(0.0, v.interval.lo)
    hi = max(lo, v.interval.hi)
    return _mk(K_INT, Interval(lo, hi), v.atom, v.coeff, v.offset)


def _ssub_result(seq: AbsVal, start: AbsVal, end: AbsVal) -> AbsVal:
    """SSUB succeeds only when 0 <= start <= end <= len(seq)."""
    diff = _aff_sub(end, start)
    hi = min(diff.interval.hi, seq.interval.hi)
    if hi < 0:
        hi = 0.0
    lo = min(max(0.0, diff.interval.lo), hi)
    return _mk(K_SEQ, Interval(lo, hi), diff.atom, diff.coeff, diff.offset)


#: Interval transfers of the opcodes whose result says more than the
#: top value of its type (every other opcode pops its operands and
#: pushes ``_of_type`` of each result type).  Operands deepest first.
_TRANSFERS = {
    Op.IADD: _aff_add,
    Op.ISUB: _aff_sub,
    Op.IMUL: _aff_mul,
    Op.INEG: _aff_neg,
    Op.I2S: lambda x: _mk(K_SEQ, Interval(1, _I2S_MAX)),
    Op.F2S: lambda x: _mk(K_SEQ, Interval(1, _F2S_MAX)),
    Op.SCONCAT: lambda a, b: _clamp_len(_aff_add(a, b)),
    Op.SLEN: _clamp_int_len,
    Op.ALEN: _clamp_int_len,
    Op.FALEN: _clamp_int_len,
    Op.SINDEX: lambda s, i: _mk(K_INT, Interval(0, 0x10FFFF)),
    Op.SSUB: _ssub_result,
    Op.NEWARR: _clamp_len,
    Op.NEWFARR: _clamp_len,
    Op.ALOAD: lambda a, i: _mk(K_INT, Interval(0, 255)),
    Op.ACOPY: lambda a: a,
}
