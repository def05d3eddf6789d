"""Generic worklist dataflow engine over the bytecode CFG.

The fixpoint itself, factored out of the load-time analyses so each
only supplies a *lattice*:

* an entry (boundary) state, given to block 0,
* a per-block transfer function (usually lifted from a per-opcode small
  step via :func:`block_transfer`),
* a join for control-flow merges,
* optionally a widening operator, applied at natural-loop headers so
  ascending chains converge fast, and
* optionally a ``top`` coercion, forced when a block has been revisited
  more than ``max_visits`` times — the safety net that guarantees
  termination even for lattices of unbounded height.

States flow forward, from the entry along successor edges:
``in_states[b]`` is the state *given to* block ``b``'s transfer and
``out_states[b]`` is what the transfer produced.  Two lattices use it
per function: the bounds certifier's intervals (with widening and top)
and the flow pass's ``(taint, alias)`` labels (joins only).

The worklist is LIFO and propagation is change-driven (``joined !=
old``), which reproduces the exact iteration order of the original
bounds certifier — that is what lets ``bounds.py`` delegate its fixpoint
here and still emit bit-identical :class:`ResourceCertificate`s (pinned
by the migration-parity test in ``tests/analysis/test_dataflow.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from .cfg import CFG

__all__ = [
    "DataflowProblem",
    "DataflowResult",
    "solve",
    "block_transfer",
]

#: Default revisit cap per block before the state is coerced to top.
#: Matches the bounds certifier's historical ``_MAX_VISITS``.
MAX_VISITS = 64

State = Any
Transfer = Callable[[int, State], State]
Join = Callable[[State, State], State]


@dataclass
class DataflowProblem:
    """A lattice plus transfer functions; everything the engine needs.

    ``transfer(block_index, state)`` consumes the block's in-state and
    returns its out-state.  ``join`` merges two in-states at a
    control-flow merge.  ``widen(old, joined)`` is applied at
    natural-loop headers to accelerate convergence;
    ``top(state)`` is forced after ``max_visits`` revisits of one block.
    Both are ``None`` for finite-height lattices, where plain joins
    already converge.
    """

    entry: State
    transfer: Transfer
    join: Join
    widen: Optional[Join] = None
    top: Optional[Callable[[State], State]] = None


@dataclass
class DataflowResult:
    """Per-block fixpoint states; ``None`` for unreachable blocks."""

    in_states: List[Optional[State]]
    out_states: List[Optional[State]]


def solve(
    cfg: CFG,
    problem: DataflowProblem,
    max_visits: int = MAX_VISITS,
) -> DataflowResult:
    """Run the worklist fixpoint and return the per-block states: the
    entry state seeds block 0 and out-states propagate to successors."""
    count = len(cfg.blocks)
    widen_points = frozenset(loop.header for loop in cfg.loops)
    in_states: List[Optional[State]] = [None] * count
    out_states: List[Optional[State]] = [None] * count
    visits = [0] * count
    in_states[0] = problem.entry
    worklist = [0]
    while worklist:
        index = worklist.pop()
        state = in_states[index]
        if state is None:
            continue
        visits[index] += 1
        if visits[index] > max_visits and problem.top is not None:
            state = problem.top(state)
            in_states[index] = state
        out = problem.transfer(index, state)
        out_states[index] = out
        for succ in cfg.blocks[index].successors:
            old = in_states[succ]
            if old is None:
                in_states[succ] = out
                worklist.append(succ)
                continue
            joined = problem.join(old, out)
            if succ in widen_points and problem.widen is not None:
                joined = problem.widen(old, joined)
            if joined != old:
                in_states[succ] = joined
                worklist.append(succ)
    return DataflowResult(in_states=in_states, out_states=out_states)


def block_transfer(cfg: CFG, code, step) -> Transfer:
    """Lift a per-instruction small step into a forward block transfer.

    ``step(pc, instruction, locals_, stack)`` mutates the mutable
    ``locals_`` / ``stack`` lists in place, exactly the protocol the
    opcode-dispatch interpreters in ``bounds.py`` and ``flows.py`` use.
    States are ``(locals_tuple, stack_tuple)`` pairs.
    """

    def transfer(index: int, state):
        locals_, stack = list(state[0]), list(state[1])
        for pc in cfg.blocks[index].pcs:
            step(pc, code[pc], locals_, stack)
        return (tuple(locals_), tuple(stack))

    return transfer
