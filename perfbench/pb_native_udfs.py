"""Native (host-language) UDF bodies for the NATIVE designs.

CREATE FUNCTION names them as ``pb_native_udfs:<function>``; the engine
imports this module in the server process and in every isolated worker.
The JagScript twins are in :mod:`udf_sources`.
"""


def probe(ctx, data, num_callbacks):
    """Touches the by-value argument just enough to prove it arrived."""
    s = len(data) + data[0]
    for __ in range(num_callbacks):
        s = s + ctx.callback("cb_noop")
    return s


def generic(ctx, data, num_indep, num_dep, num_callbacks):
    """The paper's generic benchmark UDF (Section 5.1)."""
    s = 0
    for __ in range(num_indep):
        s = s + 1
    for __ in range(num_dep):
        for i in range(len(data)):
            s = s + data[i]
    for __ in range(num_callbacks):
        s = s + ctx.callback("cb_noop")
    return s
