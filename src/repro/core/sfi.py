"""Design 1 variant: native UDFs with SFI-style access checks.

Two threads of the paper meet here:

* Section 4: "No protection mechanism (like software fault isolation)
  was used ... From published research on the subject [WLAG93], we
  expect such a mechanism to add an overhead of approximately 25%."
* Section 5.4: "we tested a second version of the C++ UDF that
  explicitly checks the bounds of every array access.  When compared to
  this version ... JNI performs only 20% worse."

True SFI rewrites machine code; for host-language (Python) UDF code the
honest equivalent is to interpose on the *data* the UDF manipulates:
byte-array arguments are wrapped in :class:`GuardedBytes`, whose every
indexed access performs an explicit bounds check before touching the
underlying buffer.  That reproduces both the cost structure the paper
measures (a per-access tax proportional to data-dependent work) and the
guarantee (no access outside the argument region), while CPU/memory
remain unpoliced — exactly SFI's limitation that Section 2.3 points out.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SFIViolation
from .integrated import NativeIntegratedExecutor


class GuardedBytes:
    """A byte buffer whose accesses are explicitly range-checked.

    Mirrors the instrumentation SFI would add around loads/stores: each
    ``__getitem__``/``__setitem__`` validates the address first.  Slices
    are validated end-to-end; iteration goes through the checked path.
    """

    __slots__ = ("_data", "_length")

    def __init__(self, data):
        self._data = bytearray(data)
        self._length = len(self._data)

    def __len__(self) -> int:
        return self._length

    def _check(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise SFIViolation(
                f"access at {index} outside region [0, {self._length})"
            )
        return index

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                raise SFIViolation("strided access is not permitted")
            return bytes(self._data[start:stop])
        return self._data[self._check(index)]

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            raise SFIViolation("slice stores are not permitted")
        self._data[self._check(index)] = value & 0xFF

    def __iter__(self):
        for index in range(self._length):
            yield self._data[index]

    def tobytes(self) -> bytes:
        return bytes(self._data)


class SFIExecutor(NativeIntegratedExecutor):
    """Native in-process execution with guarded byte-array arguments.

    Wraps the arguments, then runs the inherited batch routine, so the
    design's span includes guard wrapping: that per-access tax is
    exactly the overhead the design exists to pay.
    """

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        # Wrapping stays per-value (each call gets its own guarded
        # region), but the dispatch overhead is paid once for the batch.
        wrap = GuardedBytes
        guarded_list = [
            [
                wrap(a) if isinstance(a, (bytes, bytearray, memoryview))
                else a
                for a in args
            ]
            for args in args_list
        ]
        return super().invoke_batch(guarded_list)
