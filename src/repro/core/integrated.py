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

from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from .factory import UDFExecutor
from .udf import ServerEnvironment, UDFDefinition, resolve_native_payload


class NativeUDFContext:
    """What an in-process native UDF gets to see.

    Deliberately *not* a security boundary: Design 1 trusts the UDF.
    The context is a convenience handle for callbacks, matching how a
    C++ UDF would simply call into server functions.
    """

    __slots__ = ("_binding",)

    def __init__(self, binding):
        self._binding = binding

    def callback(self, name: str, *args):
        return self._binding.invoke(name, *args)


class NativeIntegratedExecutor(UDFExecutor):
    """Direct in-process invocation of a host callable."""

    def __init__(self, definition: UDFDefinition, env: ServerEnvironment):
        super().__init__(definition, env)
        self._func: Callable = resolve_native_payload(definition.payload)
        code = getattr(self._func, "__code__", None)
        self._takes_ctx = bool(
            code is not None
            and code.co_argcount > 0
            and code.co_varnames[0] == "ctx"
        )
        self._ctx: Optional[NativeUDFContext] = None

    def begin_query(self, binding=None) -> None:
        super().begin_query(binding)
        self._ctx = NativeUDFContext(self.binding)

    def _raw_invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        """The unrecorded call path (SFI re-enters here with guards on).

        The binding check and ctx dispatch are hoisted out of the loop;
        the remaining per-call cost is the bare host-callable invocation.
        """
        func = self._func
        if self._takes_ctx:
            ctx = self._ctx
            return [func(ctx, *args) for args in args_list]
        return [func(*args) for args in args_list]

    def invoke_batch(self, args_list: Sequence[Sequence[object]]) -> list:
        if self.binding is None:
            self.begin_query()
        prof = self.profile
        if prof is None:
            return self._raw_invoke_batch(args_list)
        started = perf_counter_ns()
        try:
            results = self._raw_invoke_batch(args_list)
        except BaseException as exc:
            prof.record_error(exc)
            raise
        if args_list:
            prof.record_invocations(
                len(args_list), perf_counter_ns() - started
            )
        return results

    def end_query(self) -> None:
        super().end_query()
        self._ctx = None
