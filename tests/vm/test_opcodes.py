"""The opcode table: one row per opcode, every column decided."""

import dataclasses
import string

from repro.vm.opcodes import OPS, Op, OpInfo
from repro.vm.values import VMType

TRAP_KINDS = {None, "zero-divisor", "conversion", "index", "slice",
              "negative-size", "callee", "host"}


def test_no_column_has_a_default():
    # A row must spell out every column; ``None`` where one does not apply.
    for field in dataclasses.fields(OpInfo):
        assert field.default is dataclasses.MISSING, field.name
        assert field.default_factory is dataclasses.MISSING, field.name


def test_every_op_has_a_row_defining_every_column():
    assert set(OPS) == set(Op)
    for op in Op:
        info = OPS[op]
        assert isinstance(info, OpInfo), op
        assert (info.pops is None) == (info.pushes is None), op
        if info.pops is not None:
            assert all(isinstance(t, VMType)
                       for t in info.pops + info.pushes), op
        if info.py is not None:
            fields = {name for __, name, __, __
                      in string.Formatter().parse(info.py) if name}
            assert fields == {str(i) for i in range(len(info.pops))}, op
            assert len(info.pushes) == 1, op
        assert isinstance(info.wraps, bool), op
        if info.wraps:
            assert info.py is not None and info.pushes == (VMType.INT,), op
        assert info.sql is None or (
            isinstance(info.sql, str) and info.py is not None), op
        assert info.trap in TRAP_KINDS, op
        assert isinstance(info.allocates, bool), op
        assert isinstance(info.weight, float) and info.weight >= 1.0, op
