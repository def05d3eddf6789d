"""Structured control flow for verified bytecode.

The JIT and the tier-1 kernels emit Python, which has ``while``, ``if``,
``break`` and ``continue`` but no ``goto``.  :func:`plan` lowers one
function's CFG to that vocabulary along its dominator tree, in the
manner of Ramsey, "Beyond Relooper" (ICFP 2022):

* a loop header becomes ``while True:`` (a certified counted loop may
  become a ``for``, see :func:`plan`), and the blocks its loop exits to
  are placed after the loop statement;
* a block with one forward in-edge is emitted inline, at that edge;
* a block with several forward in-edges (a *merge*) is placed after the
  code of its immediate dominator, so the edges into it fall through;
* an edge to the innermost loop's header is ``continue`` and an edge to
  the code right after the innermost loop is ``break``.  Any other edge
  goes through the exit variable: ``__x = id; break`` leaves the
  innermost loop, and a dispatch after each ``while`` statement it
  leaves carries on toward the target.  A merge reached that way with no
  loop to leave gets a one-shot ``while True: ... break`` around the
  code placed before it.

Only a reducible CFG has this form, so the verifier runs :func:`plan`
and rejects a function with a retreating edge whose target does not
dominate its source, or whose structured form would exceed the host
compiler's nesting limits.  The JagScript compiler emits neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..errors import VerifyError
from .classfile import FunctionDef
from .opcodes import Op

#: Label of the kernel's row end: ``continue`` of its row loop.
EXIT = -1

#: CPython refuses more than 100 indentation levels and more than 20
#: statically nested loops.  The back ends put at most four levels and
#: one loop around a plan, so these leave both limits out of reach.
MAX_INDENT = 90
MAX_LOOPS = 19


@dataclass
class Plan:
    """A function's structured form, ready to be printed.

    ``lines`` holds ``(indent, item)`` pairs.  An ``int`` item is a
    basic block's instructions; ``("if", block, truthy)`` branches on the
    condition that block's last instruction pops (``if cond:`` when
    ``truthy``, else ``if not cond:``); a ``str`` is Python as is.
    """

    lines: List[Tuple[int, object]]
    starts: Tuple[Tuple[int, int], ...]   # block -> pcs [start, end) to emit
    uses_exit_var: bool


class _Frame:
    """One Python loop around the current position."""

    __slots__ = ("cont", "brk", "escapes")

    def __init__(self, cont, brk):
        self.cont = cont        # label ``continue`` reaches, or None
        self.brk = brk          # label ``break`` reaches, or None
        self.escapes: List[int] = []   # labels whose ``__x`` leaves here


def plan(func: FunctionDef, where: str = "<code>",
         kernel: bool = False,
         counted: Optional[Mapping[int, Tuple[int, int, int]]] = None,
         ) -> Plan:
    """Structure the verified code of ``func`` along its CFG; raise
    :class:`VerifyError` if it has no structured form.

    With ``kernel`` set, RET is an edge to :data:`EXIT` inside a row loop
    (the kernel's "append the result and end the row"); otherwise it
    returns.

    ``counted`` maps a loop's header pc to its proven ``(counter, stop
    slot, step)``.  Such a loop of step ±1 whose header is only its test
    and whose one back edge ends a block in the increment becomes ``for
    Lc in range(Lc, Lstop[, -1]):``.  Its test and increment are not
    emitted, an edge to a block that is only the increment is
    ``continue``, and the ``for``'s ``else:`` gives the counter the value
    the test would have left, ``max`` (``min`` counting down) of its
    start and ``stop``, before the test's exit edge.
    """
    return _Planner(func.code, func.cfg, where, kernel, counted).run()


class _Planner:
    def __init__(self, code, cfg, where: str, kernel: bool, counted):
        self.code = code
        self.blocks = cfg.blocks
        self.dom = cfg.dominators
        self.where = where
        self.kernel = kernel
        self.loops = {loop.header: loop.body for loop in cfg.loops}
        self.starts = tuple((b.start, b.end) for b in cfg.blocks)
        self.fors = self._for_loops(counted or {})
        #: increment block -> header, for a block that is only the step
        self.increments = {
            tail: h for h, (__, __, __, tail) in self.fors.items()
            if self.starts[tail][0] == self.starts[tail][1]
        }
        self.rpo = self._reverse_postorder()
        self.after = self._placements()
        self.placed = {p for ps in self.after.values() for p in ps}
        self.wrapped: set = set()

    def _for_loops(self, counted) -> dict:
        """Header -> ``(counter, stop, step, tail)`` of each loop that
        becomes a ``for``, where block ``tail`` ends in the increment and
        the back edge; ``starts`` then leaves both out of its code."""
        fors = {}
        starts = list(self.starts)
        for h, body in self.loops.items():
            start, end = self.starts[h]
            shape = counted.get(start)
            back = [p for p in self.blocks[h].predecessors if p in body]
            if (shape is None or shape[2] not in (1, -1)
                    or end - start != 4 or len(back) != 1):
                continue
            counter, __, step = shape
            tail_start, tail_end = self.starts[back[0]]
            step_code = [(ins.op, ins.arg)
                         for ins in self.code[tail_end - 5:tail_end]]
            if tail_end - tail_start >= 5 and step_code == [
                (Op.LOAD, counter), (Op.ICONST, step), (Op.IADD, None),
                (Op.STORE, counter), (Op.JMP, start),
            ]:
                fors[h] = shape + (back[0],)
                starts[back[0]] = (tail_start, tail_end - 5)
        self.starts = tuple(starts)
        return fors

    def _reverse_postorder(self) -> List[int]:
        """RPO index per block; a retreating edge whose target does not
        dominate its source makes the CFG irreducible."""
        blocks, dom = self.blocks, self.dom
        state = [0] * len(blocks)      # 0 unseen, 1 on the DFS stack, 2 done
        post: List[int] = []
        state[0] = 1
        stack = [(0, 0)]
        while stack:
            b, i = stack[-1]
            succs = blocks[b].successors
            if i == len(succs):
                stack.pop()
                state[b] = 2
                post.append(b)
                continue
            stack[-1] = (b, i + 1)
            s = succs[i]
            if state[s] == 0:
                state[s] = 1
                stack.append((s, 0))
            elif state[s] == 1 and s not in dom[b]:
                raise VerifyError(
                    f"{self.where}@{blocks[b].end - 1}: irreducible "
                    f"control flow: retreating edge to {blocks[s].start} "
                    f"does not come from inside a loop it heads"
                )
        rpo = [0] * len(blocks)
        for index, b in enumerate(reversed(post)):
            rpo[b] = index
        return rpo

    def _placements(self) -> dict:
        """Blocks placed after another block's code (or loop), per owner."""
        blocks, dom, loops = self.blocks, self.dom, self.loops
        idom = [0] + [max(dom[b] - {b}, key=lambda d: len(dom[d]))
                      for b in range(1, len(blocks))]
        heads_loop = set()          # blocks dominating a loop header
        for header in loops:
            heads_loop |= dom[header]
        escapes = [set() for __ in blocks]   # edges leaving b's subtree
        for block in blocks:
            for s in block.successors:
                for d in dom[block.index] - dom[s]:
                    escapes[d].add(s)

        def exited(b):
            return {h for h, body in loops.items()
                    if idom[b] in body and b not in body}

        after: dict = {}
        for b in range(1, len(blocks)):
            if b in self.increments:
                continue   # a ``for`` statement steps its counter
            merge = sum(b not in dom[p] for p in blocks[b].predecessors) > 1
            leaves = exited(b)
            # Where an exit goes decides how edges reach it.  One whose code
            # only jumps on to other exits of the loops it leaves (``break``
            # in a loop body) stays inside the loop.  One that returns with
            # no loop of its own (``return`` in a loop body) stays inline,
            # or follows the innermost loop it leaves if several edges
            # reach it.  Any other follows the outermost loop it leaves, so
            # a loop after a loop does not nest inside it.
            if not leaves:
                pass
            elif escapes[b]:
                if all(leaves & exited(s) for s in escapes[b]):
                    leaves = set()
            elif b not in heads_loop:
                innermost = min(leaves, key=lambda h: len(loops[h]))
                leaves = {innermost} if merge else set()
            if leaves:
                owner = max(leaves, key=lambda h: len(loops[h]))
            elif merge:
                owner = idom[b]
            else:
                continue
            after.setdefault(owner, []).append(b)
        for placed in after.values():
            placed.sort(key=self.rpo.__getitem__)
        return after

    # -- passes ---------------------------------------------------------------

    def run(self) -> Plan:
        while True:
            self.lines: List[Tuple[int, object]] = []
            self.need_wrap: set = set()
            self.uses_exit_var = False
            self.depth = 0
            frames = [_Frame(EXIT, None)] if self.kernel else []
            self._unit(0, EXIT, frames, 0)
            if not self.need_wrap:
                break
            if self.need_wrap <= self.wrapped:  # pragma: no cover
                raise VerifyError(f"{self.where}: no structured form")
            # Merges an edge could not reach get their one-shot loop.
            self.wrapped |= self.need_wrap
        return Plan(self.lines, self.starts, self.uses_exit_var)

    def _emit(self, indent: int, item) -> None:
        if indent > MAX_INDENT:
            raise VerifyError(f"{self.where}: control flow nests too deeply")
        self.lines.append((indent, item))

    def _push(self, frames, frame) -> list:
        if len(frames) >= MAX_LOOPS:
            raise VerifyError(f"{self.where}: loops nest too deeply")
        return frames + [frame]

    # -- structure ------------------------------------------------------------

    def _unit(self, x: int, follow: int, frames: list, indent: int,
              in_loop: bool = False) -> bool:
        """Emit block ``x``, the blocks placed after it and, iteratively,
        the block it ends by falling into.  True if control never falls
        off the end (it always continues, breaks or returns)."""
        self.depth += 1
        if self.depth > MAX_INDENT:
            raise VerifyError(f"{self.where}: control flow nests too deeply")
        moved = False
        while x is not None:
            header = x in self.loops and not in_loop
            placed = self.after.get(x, ())
            if x in self.loops:
                # Exits follow the while statement; merges stay inside.
                placed = [p for p in placed
                          if (p in self.loops[x]) == in_loop]
            chain = list(placed) + [follow]
            fr, at = frames, indent
            for p in reversed(placed):
                if p in self.wrapped:
                    self._emit(at, "while True:")
                    fr = self._push(fr, _Frame(None, p))
                    at += 1
            if header:
                moved, tail = self._loop(x, chain[0], fr, at), None
            else:
                moved, tail = self._block(x, chain[0], fr, at,
                                          tail_ok=not placed)
            x, in_loop = tail, False
            for i, p in enumerate(placed):
                if p in self.wrapped:
                    self._emit(at, "break")
                    frame, fr, at = fr[-1], fr[:-1], at - 1
                    self._dispatch(frame, p, fr, at)
                if i + 1 < len(placed):
                    moved = self._unit(p, chain[i + 1], fr, at)
                else:
                    x = p
        self.depth -= 1
        return moved

    def _loop(self, h: int, follow: int, frames: list, indent: int) -> bool:
        frame = _Frame(h, follow)
        form = self.fors.get(h)
        if form is None:
            self._emit(indent, "while True:")
        else:
            counter, stop, step, __ = form
            down = "" if step == 1 else ", -1"
            self._emit(indent, f"for L{counter} in "
                               f"range(L{counter}, L{stop}{down}):")
        self._unit(h, h, self._push(frames, frame), indent + 1, in_loop=True)
        if form is not None:
            # Normal exit: the code after the loop, from the test's exit.
            self._emit(indent, "else:")
            post = "max" if step == 1 else "min"
            self._emit(indent + 1,
                       f"L{counter} = {post}(L{counter}, L{stop})")
            self._edge(h, self.blocks[h].successors[0], follow, frames,
                       indent + 1, False)
        self._dispatch(frame, follow, frames, indent)
        return False

    def _block(self, x: int, follow: int, frames: list, indent: int,
               tail_ok: bool):
        """Emit ``x`` and its outgoing edges: ``(moved, tail)`` where
        ``tail`` is a block to emit next at the same indent, or None."""
        block = self.blocks[x]
        if x in self.fors:   # the for statement tested the counter
            return self._edge(x, block.successors[1], follow, frames, indent,
                              tail_ok)
        self._emit(indent, x)
        last = self.code[block.end - 1]
        if last.op in (Op.RET, Op.RETV):
            if self.kernel:
                return self._goto(EXIT, follow, frames, indent), None
            return True, None
        if last.op not in (Op.JZ, Op.JNZ):
            (target,) = block.successors
            return self._edge(x, target, follow, frames, indent, tail_ok)
        taken, fall = block.successors
        first, second = (taken, last.op is Op.JNZ), (fall, last.op is Op.JZ)
        if self._returns(x, fall):
            # Try the returning arm first: ``if c: return`` chains stay flat.
            first, second = second, first
        a_lines, a_moved = self._arm(x, first[0], follow, frames, indent + 1)
        if a_moved:
            # An arm that always continues, breaks or returns needs no
            # else: the other one follows the if, at the same indent.
            self._emit(indent, ("if", x, first[1]))
            self.lines += a_lines
            return self._edge(x, second[0], follow, frames, indent, tail_ok)
        b_lines, b_moved = self._arm(x, second[0], follow, frames, indent + 1)
        if b_moved or not a_lines:
            self._emit(indent, ("if", x, second[1]))
            self.lines += b_lines or [(indent + 1, "pass")]
            self.lines += [(i - 1, item) for i, item in a_lines]
            return a_moved, None
        self._emit(indent, ("if", x, first[1]))
        self.lines += a_lines
        if b_lines:
            self._emit(indent, "else:")
            self.lines += b_lines
        return a_moved and b_moved, None

    def _returns(self, x: int, b: int) -> bool:
        """Whether the edge ``x -> b`` inlines a block that ends in RET."""
        return (b not in self.placed and b not in self.dom[x]
                and self.code[self.blocks[b].end - 1].op in (Op.RET, Op.RETV))

    def _arm(self, x, target, follow, frames, indent):
        """Emit one edge of a branch into its own line list."""
        saved, self.lines = self.lines, []
        moved, __ = self._edge(x, target, follow, frames, indent, False)
        lines, self.lines = self.lines, saved
        return lines, moved

    def _edge(self, src, dst, follow, frames, indent, tail_ok):
        # The for statement steps the counter: the step's own block is
        # the next iteration.
        dst = self.increments.get(dst, dst)
        if dst in self.dom[src] or dst in self.placed:
            return self._goto(dst, follow, frames, indent), None
        if tail_ok:
            return False, dst
        return self._unit(dst, follow, frames, indent), None

    def _goto(self, label: int, follow: int, frames: list,
              indent: int) -> bool:
        """Jump to ``label`` from the end of the current statement list."""
        if frames:
            top = frames[-1]
            if top.cont == label:
                self._emit(indent, "continue")
                return True
            if top.brk == label:
                self._emit(indent, "break")
                return True
        if follow == label:
            return False
        if not self._reaches(label, follow, frames):
            self.need_wrap.add(label)
            return True
        top = frames[-1]
        if label not in top.escapes:
            top.escapes.append(label)
        self.uses_exit_var = True
        self._emit(indent, f"__x = {self._exit_id(label)}")
        self._emit(indent, "break")
        return True

    def _reaches(self, label, follow, frames) -> bool:
        """Whether leaving loops outward eventually lands on ``label``."""
        while True:
            if follow == label:
                return True
            if not frames:
                return False
            top = frames[-1]
            if label in (top.cont, top.brk):
                return True
            if top.brk is None:
                return False
            follow, frames = top.brk, frames[:-1]

    def _dispatch(self, frame, follow, frames, indent) -> None:
        """After a loop statement: carry in-flight exits onward."""
        for label in frame.escapes:
            self._emit(indent, f"if __x == {self._exit_id(label)}:")
            lands = follow == label or (
                frames and label in (frames[-1].cont, frames[-1].brk)
            )
            if lands:
                self._emit(indent + 1, "__x = 0")
            self._goto(label, follow, frames, indent + 1)

    def _exit_id(self, label: int) -> int:
        """The value ``__x`` holds while an edge to ``label`` is in flight."""
        return -1 if label == EXIT else self.starts[label][0] + 1
