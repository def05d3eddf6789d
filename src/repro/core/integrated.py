"""Design 1: native UDFs integrated into the server process ("C++").

"Clearly, Design 1 will have the best performance of all the options
since it essentially corresponds to hard-coding the UDF into the server.
However ... system security might be compromised."

The executor is a direct call.  Callbacks do not cross any boundary: the
UDF receives a context whose ``callback`` goes straight to the broker —
the reason Figure 8's C++ line stays flat.

The security consequences are faithfully reproduced too: an exception
escapes into the server thread, and a malicious callable can reach any
server state it can import.  (Tests demonstrate both.)
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .factory import UDFExecutor
from .udf import (
    NativeUDFContext,
    ServerEnvironment,
    UDFDefinition,
    native_batch,
    resolve_native_payload,
)


class NativeIntegratedExecutor(UDFExecutor):
    """Direct in-process invocation of a host callable."""

    def __init__(self, definition: UDFDefinition, env: ServerEnvironment):
        super().__init__(definition, env)
        self._func: Callable = resolve_native_payload(definition.payload)
        self._batch: Optional[Callable] = None

    def begin_query(self, binding=None) -> None:
        super().begin_query(binding)
        # The binding check and ctx dispatch are hoisted out of the
        # loop; the remaining per-call cost is the bare host-callable
        # invocation.
        self._batch = native_batch(self._func, NativeUDFContext(self.binding))

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        if self._batch is None:
            self.begin_query()
        return self._batch(args_list)

    def end_query(self) -> None:
        super().end_query()
        self._batch = None
