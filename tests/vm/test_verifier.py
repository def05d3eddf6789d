"""Bytecode verifier: accepts compiled output, rejects attacks.

These are the Section 6.1 guarantees: malformed or type-confused
bytecode never reaches the interpreter.  Each rejection test hand-builds
the kind of classfile a malicious client could upload.
"""

import pytest

from repro.errors import VerifyError
from repro.vm import compile_source, verify_class
from repro.vm.classfile import ClassFile, FunctionDef, PoolEntry
from repro.vm.opcodes import Instr, Op
from repro.vm.values import VMType

I = VMType.INT
F = VMType.FLOAT
B = VMType.BOOL
S = VMType.STR
A = VMType.ARR


def make_class(code, params=(), ret=I, locals_=None, pool=None, name="f"):
    cls = ClassFile(name="Evil", pool=list(pool or []))
    cls.add_function(
        FunctionDef(
            name=name,
            param_types=tuple(params),
            ret_type=ret,
            local_types=tuple(locals_ if locals_ is not None else params),
            code=tuple(code),
        )
    )
    return cls


class TestAccepts:
    def test_minimal_return(self):
        cls = make_class([Instr(Op.ICONST, 7), Instr(Op.RET, None)])
        verify_class(cls)
        assert cls.verified
        assert cls.functions["f"].max_stack == 1

    def test_compiled_programs_verify(self):
        source = (
            "def f(data: bytes, n: int) -> int:\n"
            "    s: int = 0\n"
            "    for p in range(n):\n"
            "        for i in range(len(data)):\n"
            "            s = s + data[i]\n"
            "    return s"
        )
        verify_class(compile_source(source, "OK"))

    def test_branch_join_with_equal_stacks(self):
        # cond ? 1 : 2, then return
        code = [
            Instr(Op.BCONST, 1),
            Instr(Op.JZ, 4),
            Instr(Op.ICONST, 1),
            Instr(Op.JMP, 5),
            Instr(Op.ICONST, 2),
            Instr(Op.RET, None),
        ]
        verify_class(make_class(code))

    def test_max_stack_computed(self):
        code = [
            Instr(Op.ICONST, 1),
            Instr(Op.ICONST, 2),
            Instr(Op.ICONST, 3),
            Instr(Op.IADD, None),
            Instr(Op.IADD, None),
            Instr(Op.RET, None),
        ]
        cls = make_class(code)
        verify_class(cls)
        assert cls.functions["f"].max_stack == 3


class TestRejects:
    def expect_reject(self, cls, fragment):
        with pytest.raises(VerifyError) as info:
            verify_class(cls)
        assert fragment in str(info.value)
        assert not cls.verified

    def test_empty_code(self):
        self.expect_reject(make_class([]), "empty code")

    def test_stack_underflow(self):
        self.expect_reject(
            make_class([Instr(Op.IADD, None), Instr(Op.ICONST, 0),
                        Instr(Op.RET, None)]),
            "underflow",
        )

    def test_type_confusion_int_as_array(self):
        # Push an int, then try to index it as an array.
        code = [
            Instr(Op.ICONST, 0),
            Instr(Op.ICONST, 0),
            Instr(Op.ALOAD, None),
            Instr(Op.RET, None),
        ]
        self.expect_reject(make_class(code), "expected arr")

    def test_float_int_confusion(self):
        code = [
            Instr(Op.FCONST, 1.0),
            Instr(Op.ICONST, 1),
            Instr(Op.IADD, None),
            Instr(Op.RET, None),
        ]
        self.expect_reject(make_class(code), "expected int")

    def test_branch_target_out_of_range(self):
        code = [Instr(Op.JMP, 99), Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "out of range")

    def test_fall_off_end(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.POP, None)]
        self.expect_reject(make_class(code), "falls off end")

    def test_read_before_write(self):
        code = [Instr(Op.LOAD, 0), Instr(Op.RET, None)]
        self.expect_reject(
            make_class(code, params=(), locals_=[I]), "read before write"
        )

    def test_local_out_of_range(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.STORE, 5),
                Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, locals_=[I]), "out of range")

    def test_store_wrong_type(self):
        code = [Instr(Op.FCONST, 1.0), Instr(Op.STORE, 0),
                Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, locals_=[I]), "expected int")

    def test_return_wrong_type(self):
        code = [Instr(Op.FCONST, 1.0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "expected int")

    def test_return_with_dirty_stack(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.ICONST, 2), Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "not empty")

    def test_retv_in_nonvoid(self):
        code = [Instr(Op.RETV, None)]
        self.expect_reject(make_class(code), "RETV in a non-void")

    def test_ret_in_void(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.RET, None)]
        self.expect_reject(
            make_class(code, ret=VMType.VOID), "RET in a void"
        )

    def test_inconsistent_join_stacks(self):
        # One path pushes an int, the other a float, then they join.
        code = [
            Instr(Op.BCONST, 1),
            Instr(Op.JZ, 4),
            Instr(Op.ICONST, 1),
            Instr(Op.JMP, 5),
            Instr(Op.FCONST, 2.0),
            Instr(Op.POP, None),
            Instr(Op.ICONST, 0),
            Instr(Op.RET, None),
        ]
        self.expect_reject(make_class(code), "inconsistent stack")

    def test_unreachable_code(self):
        code = [
            Instr(Op.ICONST, 1),
            Instr(Op.RET, None),
            Instr(Op.ICONST, 2),
            Instr(Op.RET, None),
        ]
        self.expect_reject(make_class(code), "unreachable")

    def test_pool_index_out_of_range(self):
        code = [Instr(Op.SCONST, 3), Instr(Op.POP, None),
                Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "out of range")

    def test_pool_kind_mismatch(self):
        pool = [PoolEntry.funcref("X", "y")]
        code = [Instr(Op.SCONST, 0), Instr(Op.POP, None),
                Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, pool=pool), "kind")

    def test_unknown_call_target(self):
        pool = [PoolEntry.funcref("Evil", "missing")]
        code = [Instr(Op.CALL, 0), Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, pool=pool), "unknown function")

    def test_call_arity_enforced(self):
        # f calls itself (needs 1 int) with an empty stack.
        pool = [PoolEntry.funcref("Evil", "f")]
        code = [Instr(Op.CALL, 0), Instr(Op.RET, None)]
        self.expect_reject(
            make_class(code, params=(I,), pool=pool), "underflow"
        )

    def test_unknown_native(self):
        pool = [PoolEntry.nativeref("system")]
        code = [Instr(Op.NATIVE, 0), Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, pool=pool), "unknown native")

    def test_unknown_callback(self):
        pool = [PoolEntry.callbackref("cb_format_disk")]
        code = [Instr(Op.CALLBACK, 0), Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code, pool=pool), "unknown callback")

    def test_jz_needs_bool(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.JZ, 0),
                Instr(Op.ICONST, 0), Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "expected bool")

    def test_swap_needs_two(self):
        code = [Instr(Op.ICONST, 1), Instr(Op.SWAP, None),
                Instr(Op.RET, None)]
        self.expect_reject(make_class(code), "underflow")

    def test_two_entry_loop_is_irreducible(self):
        # The entry jumps into the cycle A -> B -> A at both A and B, so
        # neither heads it: no structured form, no JIT.
        code = [
            Instr(Op.LOAD, 0), Instr(Op.JZ, 5),        # entry: to A or B
            Instr(Op.LOAD, 0), Instr(Op.JZ, 7),        # A: exit or ...
            Instr(Op.JMP, 5),                          # ... on to B
            Instr(Op.LOAD, 0), Instr(Op.JNZ, 2),       # B: back to A
            Instr(Op.ICONST, 1), Instr(Op.RET, None),
        ]
        with pytest.raises(VerifyError, match=r"Evil\.f@\d+: irreducible"):
            verify_class(make_class(code, params=(B,)))

    def test_infinite_empty_loop_is_legal_but_bounded_elsewhere(self):
        # A JMP-to-self is *verifiable* (fuel stops it at run time).
        code = [Instr(Op.JMP, 0)]
        verify_class(make_class(code, ret=VMType.VOID))


class TestExecutionRefusesUnverified:
    def test_interpreter_refuses(self):
        from repro.vm import run_function, single_class_context

        cls = make_class([Instr(Op.ICONST, 7), Instr(Op.RET, None)])
        ctx = single_class_context(cls)
        with pytest.raises(VerifyError, match="unverified"):
            run_function(cls, cls.functions["f"], [], ctx)

    def test_jit_refuses(self):
        from repro.vm import single_class_context
        from repro.vm.jit import invoke_jit

        cls = make_class([Instr(Op.ICONST, 7), Instr(Op.RET, None)])
        ctx = single_class_context(cls)
        with pytest.raises(VerifyError, match="unverified"):
            invoke_jit(cls, cls.functions["f"], [], ctx)

    def test_mutating_class_clears_verified(self):
        cls = make_class([Instr(Op.ICONST, 7), Instr(Op.RET, None)])
        verify_class(cls)
        cls.add_function(
            FunctionDef(
                name="g",
                param_types=(),
                ret_type=I,
                local_types=(),
                code=(Instr(Op.ICONST, 1), Instr(Op.RET, None)),
            )
        )
        assert not cls.verified
