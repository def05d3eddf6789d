"""Static cost estimation: CostHints derivation from opcode weights.

The dynamic model in ``core/cost_model.py`` *fits* coefficients from
calibration runs; this module is its static counterpart in the GRACEFUL
tradition — it predicts a per-invocation cost from bytecode alone, before
the UDF has ever run, so a UDF registered without explicit ``CostHints``
still participates sensibly in expensive-predicate ordering.

The unit convention matches ``CostHints.cost_per_call``: one cheap
built-in comparison ~ 1 unit.  The per-opcode weights are the
``weight`` column of :data:`repro.vm.opcodes.OPS`, summed by the effect
analysis.  They mirror the dynamic model's structure — an interpreted
opcode is a handful of units, a NATIVE call is a trusted in-process
stdlib call, and a CALLBACK crosses the sandbox/server boundary (argument marshalling, security check, broker
dispatch), the dominant term by two orders of magnitude, exactly the
``c_callback * NumCallbacks`` term of Section 5.6.

Loops multiply: a statically unknowable trip count is assumed to be
:data:`ASSUMED_TRIP_COUNT` per nesting level, and recursive cycles are
scaled by :data:`RECURSION_FACTOR`.  Both are order-of-magnitude knobs,
not measurements — the point is getting the *relative* ranking of
predicates right, and callbacks-vs-arithmetic dominates that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.udf import CostHints
    from .effects import FunctionSummary

#: Assumed iterations per loop-nesting level when the trip count cannot
#: be bounded statically.
ASSUMED_TRIP_COUNT = 16

#: Multiplier applied to the combined cost of a recursive call cycle.
RECURSION_FACTOR = ASSUMED_TRIP_COUNT

#: Selectivity assigned to derived hints: with no value distribution to
#: consult, a coin flip is the least-wrong prior (same default the
#: declared-hints path uses).
DERIVED_SELECTIVITY = 0.5


def derive_cost_hints(
    summary: "FunctionSummary", certificate: object = None
) -> "CostHints":
    """Turn a function's static summary into optimizer-facing CostHints.

    The result carries ``derived=True`` so EXPLAIN can distinguish
    analyzer estimates from operator-declared figures.

    When a resource ``certificate`` proves a *constant* fuel bound, it
    caps the estimate: the heuristic :data:`ASSUMED_TRIP_COUNT`
    pessimism can overstate tight counted loops by orders of magnitude,
    while the certified bound is the worst case the function can
    actually execute.  Boundary-crossing weights (callbacks) are not
    capped — fuel counts instructions, not marshalling.
    """
    from ..core.udf import CostHints
    from .bounds import constant_bound

    # At least one unit: a zero-cost predicate would sort in front of
    # built-in comparisons, which no UDF invocation ever beats.
    cost = max(summary.cost_units, 1.0)
    fuel_const = (
        constant_bound(getattr(certificate, "fuel_bound", None))
        if certificate is not None
        else None
    )
    if fuel_const is not None and not summary.callbacks:
        cost = min(cost, max(float(fuel_const), 1.0))
    return CostHints(
        cost_per_call=cost,
        selectivity=DERIVED_SELECTIVITY,
        derived=True,
    )
