"""The shared worklist dataflow engine: unit tests for propagation,
widening, the visit cap — and the migration-parity pin proving the
bounds certifier emits bit-identical ResourceCertificates now that its
fixpoint runs on the engine."""

import pytest

from repro.analysis import bounds, dataflow
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import DataflowProblem, block_transfer, solve

from tests.analysis.test_bounds import (
    ARG_ALLOC,
    ARG_LOOP,
    BRANCHY,
    CALLER,
    CONST_ALLOC_LOOP,
    CONST_LOOP,
    DATA_LOOP,
    RECURSIVE,
    SPIN,
    STRAIGHT,
    certificates_of,
    compiled,
)

CORPUS = {
    "STRAIGHT": STRAIGHT,
    "CONST_LOOP": CONST_LOOP,
    "ARG_LOOP": ARG_LOOP,
    "DATA_LOOP": DATA_LOOP,
    "SPIN": SPIN,
    "CONST_ALLOC_LOOP": CONST_ALLOC_LOOP,
    "ARG_ALLOC": ARG_ALLOC,
    "CALLER": CALLER,
    "RECURSIVE": RECURSIVE,
    "BRANCHY": BRANCHY,
}


# ---------------------------------------------------------------------------
# Engine unit tests on toy lattices
# ---------------------------------------------------------------------------

def _cfg_for(source, func="f"):
    cls = compiled(source)
    fn = cls.functions[func]
    return fn, build_cfg(fn.code)


class TestForward:
    def test_straightline_reaches_every_block(self):
        fn, cfg = _cfg_for(STRAIGHT)
        # Trivial "reachable" lattice: state is True, join is or.
        result = solve(
            cfg,
            DataflowProblem(
                entry=True,
                transfer=lambda index, state: state,
                join=lambda a, b: a or b,
            ),
        )
        assert all(state is True for state in result.in_states)

    def test_loop_converges_by_join(self):
        # Instruction-count-mod-nothing lattice: the in-state of the
        # loop header is the join of the preheader and the back edge;
        # a monotone finite lattice converges without widening.
        fn, cfg = _cfg_for(CONST_LOOP)
        result = solve(
            cfg,
            DataflowProblem(
                entry=frozenset([0]),
                transfer=lambda index, state: state | frozenset([index]),
                join=lambda a, b: a | b,
            ),
        )
        headers = {loop.header for loop in cfg.loops}
        assert headers, "CONST_LOOP must contain a loop"
        for header in headers:
            # The header's fixpoint state includes its own body blocks,
            # proving the back edge was propagated.
            body = cfg.loops[0].body
            assert any(b in result.in_states[header] for b in body)

    def test_visit_cap_forces_top(self):
        # A deliberately non-converging transfer (always grows) must be
        # cut off by the visit cap + top coercion rather than diverge.
        fn, cfg = _cfg_for(CONST_LOOP)
        TOP = frozenset(["top"])
        result = solve(
            cfg,
            DataflowProblem(
                entry=frozenset(),
                transfer=lambda index, state: (
                    state
                    if state == TOP
                    else frozenset(state | {len(state)})
                ),
                join=lambda a, b: a | b,
                top=lambda state: TOP,
            ),
            max_visits=4,
        )
        assert TOP.issubset(
            set().union(*(s for s in result.in_states if s is not None))
        )

    def test_widening_applied_at_headers_only(self):
        fn, cfg = _cfg_for(CONST_LOOP)
        widened_at = []

        def widen(old, new):
            widened_at.append(True)
            return new | frozenset(["widened"])

        result = solve(
            cfg,
            DataflowProblem(
                entry=frozenset([0]),
                transfer=lambda index, state: state | frozenset([index]),
                join=lambda a, b: a | b,
                widen=widen,
            ),
        )
        assert widened_at, "widen hook never fired at the loop header"
        header = cfg.loops[0].header
        assert "widened" in result.in_states[header]

    def test_unreachable_blocks_stay_none(self):
        # Hand-built bytecode with a dead block the jump skips over.
        from repro.vm.opcodes import Instr, Op

        code = (
            Instr(Op.ICONST, 1),
            Instr(Op.JMP, 3),
            Instr(Op.POP, None),   # dead
            Instr(Op.RET, None),
        )
        cfg = build_cfg(code)
        result = solve(
            cfg,
            DataflowProblem(
                entry=True,
                transfer=lambda index, state: state,
                join=lambda a, b: a or b,
            ),
        )
        assert None in result.in_states


class TestBlockTransfer:
    def test_matches_manual_walk(self):
        fn, cfg = _cfg_for(STRAIGHT)
        seen = []

        def step(pc, ins, locals_, stack):
            seen.append(pc)

        transfer = block_transfer(cfg, fn.code, step)
        transfer(0, ((), ()))
        assert seen == list(cfg.blocks[0].pcs)


# ---------------------------------------------------------------------------
# Migration parity: bounds on the shared engine == the legacy fixpoint
# ---------------------------------------------------------------------------

class _LegacyCertifier(bounds._FunctionCertifier):
    """The pre-engine fixpoint loop, verbatim, as the golden reference."""

    def _fixpoint(self):
        headers = {loop.header for loop in self.cfg.loops}
        visits = [0] * len(self.cfg.blocks)
        self.in_states[0] = self.entry_state
        worklist = [0]
        while worklist:
            index = worklist.pop()
            state = self.in_states[index]
            if state is None:
                continue
            visits[index] += 1
            if visits[index] > bounds._MAX_VISITS:
                state = self._top_state(state)
                self.in_states[index] = state
            out = self._run_block(index, state)
            self.out_states[index] = out
            for succ in self.cfg.blocks[index].successors:
                old = self.in_states[succ]
                if old is None:
                    self.in_states[succ] = out
                    worklist.append(succ)
                    continue
                joined = self._join_state(old, out)
                if succ in headers:
                    joined = self._widen_state(old, joined)
                if joined != old:
                    self.in_states[succ] = joined
                    worklist.append(succ)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_certificates_bit_identical_to_legacy_fixpoint(label, monkeypatch):
    source = CORPUS[label]
    engine_certs = certificates_of(compiled(source)).functions
    monkeypatch.setattr(bounds, "_FunctionCertifier", _LegacyCertifier)
    legacy_certs = certificates_of(compiled(source)).functions
    assert set(engine_certs) == set(legacy_certs)
    for name in engine_certs:
        got, want = engine_certs[name], legacy_certs[name]
        assert got == want, f"{label}.{name} diverged from legacy fixpoint"
        # Bit-identical also in the human renderings consumed by
        # EXPLAIN and the lint CLI.
        assert repr(got) == repr(want)
        assert got.describe() == want.describe()


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_fixpoint_states_identical_to_legacy(label):
    cls_a = compiled(CORPUS[label])
    cls_b = compiled(CORPUS[label])
    from repro.vm.verifier import self_resolver

    for name, func in cls_a.functions.items():
        new = bounds._FunctionCertifier(
            cls_a, func, self_resolver(cls_a), {}, None
        )
        new._fixpoint()
        old = _LegacyCertifier(
            cls_b, cls_b.functions[name], self_resolver(cls_b), {}, None
        )
        old._fixpoint()
        assert new.in_states == old.in_states
        assert new.out_states == old.out_states
