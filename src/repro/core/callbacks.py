"""UDF -> server callbacks (Section 4 of the paper).

"Some UDFs may require additional communication with the database server.
For example, a UDF that extracts pixel (i, j) of an image may be given a
*handle* to the image, rather than the entire image.  The UDF will then
need to ask the server for the appropriate data ... We call such requests
'callbacks'."

A :class:`CallbackBroker` is the server-side registry of callback
endpoints.  Each endpoint has a VM-typed signature (so the verifier can
link CALLBACK instructions eagerly) and a handler.  Handlers frequently
need per-query state — e.g. which large objects the current query's
handles refer to — so invocation goes through a :class:`CallbackBinding`
that pairs the broker with a handle table.

The paper's benchmark callback transfers no data ("No data is actually
transferred during the callback"); that is ``cb_noop``.  The Clip()/
Lookup() style of partial object access is ``cb_lob_read`` /
``cb_lob_length``, which the image example uses.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..errors import CallbackError
from ..vm.values import VMType

Signature = Tuple[Tuple[VMType, ...], VMType]

I = VMType.INT
A = VMType.ARR
VOID = VMType.VOID

#: Signatures of the callbacks every server deployment exposes.  UDFs
#: still need an explicit per-UDF *permission* for each one; presence in
#: this table only makes the name linkable.
_STANDARD_SIGNATURES: Dict[str, Signature] = {
    # The paper's benchmark callback: crosses the boundary, moves no data.
    "cb_noop": ((), I),
    # Partial reads of a large object through a handle (Clip()/Lookup()).
    "cb_lob_length": ((I,), I),
    "cb_lob_read": ((I, I, I), A),
    # Diagnostic logging: a UDF may record an integer status code in the
    # server log.  The code leaves the sandbox, which makes this an
    # *egress sink*: the flow certifier must prove no tuple-derived
    # value can reach it (see SINK_CALLBACKS).
    "cb_log": ((I,), I),
}

#: Callbacks whose arguments leave the database's confinement boundary
#: (logs, traces, external channels).  The information-flow pass refuses
#: at load any UDF whose bytecode can move tuple-derived data into one
#: of these, with a ``static:flows`` audit entry.
SINK_CALLBACKS = frozenset({"cb_log"})


def standard_callback_signatures() -> Dict[str, Signature]:
    """A copy of the standard signature table (safe to extend)."""
    return dict(_STANDARD_SIGNATURES)


def standard_sink_callbacks() -> frozenset:
    """The deployment's declared egress-sink callbacks."""
    return SINK_CALLBACKS


class CallbackBroker:
    """Server-side registry of callback endpoints.

    Handlers registered here take ``(binding, *vm_args)``: the binding
    carries per-query state (the handle table), the remaining arguments
    are the VM values the UDF passed.
    """

    def __init__(self) -> None:
        self._signatures: Dict[str, Signature] = {}
        self._handlers: Dict[str, Callable] = {}
        for name, handler in _standard_handlers().items():
            self.register(name, _STANDARD_SIGNATURES[name], handler)

    def register(
        self, name: str, signature: Signature, handler: Callable
    ) -> None:
        if name in self._signatures:
            raise CallbackError(f"callback {name!r} is already registered")
        self._signatures[name] = signature
        self._handlers[name] = handler

    def signatures(self) -> Dict[str, Signature]:
        return dict(self._signatures)

    def handler(self, name: str) -> Callable:
        try:
            return self._handlers[name]
        except KeyError:
            raise CallbackError(f"unknown callback {name!r}") from None

    def bind(self, handles: Optional[Dict[int, object]] = None) -> "CallbackBinding":
        """Create a per-query binding with its own handle table."""
        return CallbackBinding(self, handles or {})


class CallbackBinding:
    """Per-query callback state: a broker plus a handle table.

    The binding is also the query's handler table: :meth:`as_handlers`
    binds each callback name once per query to an entry that counts the
    crossing in :attr:`invocations` and calls the broker's handler
    directly.  Sandboxed contexts get the entries of their grant;
    :meth:`invoke` (a native UDF's context, an isolated worker's
    callback request) goes through the same entries.
    """

    def __init__(self, broker: CallbackBroker, handles: Dict[int, object]):
        self.broker = broker
        self.handles = handles
        #: Counts per callback name; lets experiments confirm how often
        #: the boundary was crossed.
        self.invocations: Dict[str, int] = {}
        self._entries: Dict[str, Callable] = {}

    def add_handle(self, handle: int, target: object) -> None:
        self.handles[handle] = target

    def resolve_handle(self, handle: int) -> object:
        try:
            return self.handles[handle]
        except KeyError:
            raise CallbackError(f"unknown object handle {handle}") from None

    def _bind(self, name: str) -> Callable:
        """``name``'s entry: count the crossing, call the handler.  It
        takes the binding first, like the handler, so the binding can
        hold its entries without a reference cycle."""
        handler = self.broker.handler(name)
        invocations = self.invocations

        def entry(binding, *args):
            try:
                invocations[name] += 1
            except KeyError:
                invocations[name] = 1
            return handler(binding, *args)

        self._entries[name] = entry
        return entry

    def invoke(self, name: str, *args):
        try:
            entry = self._entries[name]
        except KeyError:
            entry = self._bind(name)
        return entry(self, *args)

    def as_handlers(
        self, names: Optional[Iterable[str]] = None
    ) -> Dict[str, Callable]:
        """The ``name -> callable`` table a VM execution context
        consumes: the entries of ``names`` the broker serves, or of
        every callback it serves, each bound to this binding."""
        served = self.broker.signatures()
        if names is None:
            names = served
        entries = self._entries
        return {
            name: partial(entries.get(name) or self._bind(name), self)
            for name in names if name in served
        }


# ---------------------------------------------------------------------------
# Standard handlers
# ---------------------------------------------------------------------------

def _cb_noop(binding: CallbackBinding) -> int:
    return 0


def _cb_log(binding: CallbackBinding, code: int) -> int:
    # The log lives on the binding so tests/examples can inspect what a
    # UDF tried to emit; a real deployment would append to the server
    # log, i.e. outside the confinement boundary.
    log = getattr(binding, "log_records", None)
    if log is None:
        log = binding.log_records = []
    log.append(code)
    return 0


def _cb_lob_length(binding: CallbackBinding, handle: int) -> int:
    target = binding.resolve_handle(handle)
    return _lob_length(target)


def _cb_lob_read(
    binding: CallbackBinding, handle: int, offset: int, length: int
) -> bytearray:
    target = binding.resolve_handle(handle)
    if length < 0 or offset < 0:
        raise CallbackError("negative offset/length in cb_lob_read")
    return _lob_read(target, offset, length)


def _lob_length(target: object) -> int:
    if isinstance(target, (bytes, bytearray, memoryview)):
        return len(target)
    read_range = getattr(target, "length", None)
    if callable(read_range):
        return target.length()
    raise CallbackError(f"handle target {type(target).__name__} has no length")


def _lob_read(target: object, offset: int, length: int) -> bytearray:
    if isinstance(target, (bytes, bytearray, memoryview)):
        end = min(offset + length, len(target))
        return bytearray(target[offset:end])
    read_range = getattr(target, "read_range", None)
    if callable(read_range):
        return bytearray(target.read_range(offset, length))
    raise CallbackError(
        f"handle target {type(target).__name__} is not readable"
    )


def _standard_handlers() -> Dict[str, Callable]:
    return {
        "cb_noop": _cb_noop,
        "cb_lob_length": _cb_lob_length,
        "cb_lob_read": _cb_lob_read,
        "cb_log": _cb_log,
    }
