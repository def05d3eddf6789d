"""The paper's generic benchmark UDF (Section 5.1), in both languages.

"We used a 'generic' UDF that takes four parameters (ByteArray,
NumDataIndepComps, NumDataDepComps, NumCallbacks) and returns an
integer":

* loop 1 performs ``NumDataIndepComps`` simple integer additions
  (data-independent computation);
* loop 2 iterates over the entire byte array ``NumDataDepComps`` times
  (data-dependent computation — this is where bounds checking bites);
* loop 3 issues ``NumCallbacks`` callbacks that transfer no data
  (``cb_noop``).

The module provides the native (host Python) version — used by Designs
1, 1+SFI, and 2 — and the JagScript source compiled for Designs 3 and 4,
plus a do-nothing variant for the calibration experiments (Figures 4-5),
and helpers that wrap each into a registrable
:class:`~repro.core.udf.UDFDefinition`.
"""

from __future__ import annotations

from typing import Optional

from .designs import Design
from .udf import CostHints, UDFDefinition, UDFSignature

SIGNATURE = UDFSignature(
    param_types=("bytes", "int", "int", "int"), ret_type="int"
)


def generic_native(ctx, data, num_indep, num_dep, num_callbacks):
    """Native (trusted, host-language) version of the generic UDF."""
    s = 0
    for __ in range(num_indep):
        s = s + 1
    for __ in range(num_dep):
        for i in range(len(data)):
            s = s + data[i]
    for __ in range(num_callbacks):
        s = s + ctx.callback("cb_noop")
    return s


def noop_native(data, num_indep, num_dep, num_callbacks):
    """The trivial UDF of the calibration experiments: does no work."""
    return 0


GENERIC_JAGSCRIPT = '''
def generic(data: bytes, num_indep: int, num_dep: int,
            num_callbacks: int) -> int:
    """Sandboxed version of the paper's generic benchmark UDF."""
    s: int = 0
    for j in range(num_indep):
        s = s + 1
    for p in range(num_dep):
        for i in range(len(data)):
            s = s + data[i]
    for c in range(num_callbacks):
        s = s + cb_noop()
    return s
'''

NOOP_JAGSCRIPT = '''
def noop(data: bytes, num_indep: int, num_dep: int,
         num_callbacks: int) -> int:
    return 0
'''


def generic_definition(
    design: Design,
    name: Optional[str] = None,
    fuel: Optional[int] = None,
    memory: Optional[int] = None,
) -> UDFDefinition:
    """The generic UDF registered under ``design``."""
    udf_name = name or f"generic_{design.value}"
    if design.is_sandboxed:
        payload = GENERIC_JAGSCRIPT.encode("utf-8")
        entry = "generic"
    else:
        payload = b"repro.core.generic_udf:generic_native"
        entry = "generic_native"
    return UDFDefinition(
        name=udf_name,
        signature=SIGNATURE,
        design=design,
        payload=payload,
        entry=entry,
        callbacks=("cb_noop",),
        cost=CostHints(cost_per_call=1000.0, selectivity=0.5),
        fuel=fuel,
        memory=memory,
    )


def noop_definition(design: Design, name: Optional[str] = None) -> UDFDefinition:
    """The trivial calibration UDF registered under ``design``."""
    udf_name = name or f"noop_{design.value}"
    if design.is_sandboxed:
        payload = NOOP_JAGSCRIPT.encode("utf-8")
        entry = "noop"
    else:
        payload = b"repro.core.generic_udf:noop_native"
        entry = "noop_native"
    return UDFDefinition(
        name=udf_name,
        signature=SIGNATURE,
        design=design,
        payload=payload,
        entry=entry,
        callbacks=(),
        cost=CostHints(cost_per_call=10.0, selectivity=1.0),
    )

