"""Callbacks bound once per query: a bounded audit log, counted crossings.

A sandboxed UDF's security manager logs every denial and load-time
verdict, but an allowed run-time callback only at its first crossing per
name; every crossing is counted in its query's
:class:`~repro.core.callbacks.CallbackBinding` (``invocations``).  So a
UDF that calls back on every row leaves its log the same size after N
statements as after 2N, and retains nothing per statement.
"""

import gc

import pytest

from repro.database import Database
from repro.errors import SecurityViolation
from repro.vm.security import Permissions

ROWS = 6
CALLBACKS = 4

PROBE_JAGSCRIPT = """
def probe(data: bytes, num_callbacks: int) -> int:
    s: int = len(data) + data[0]
    for c in range(num_callbacks):
        s = s + cb_noop()
    return s
"""

#: design -> (LANGUAGE, DESIGN) as CREATE FUNCTION spells them.
DESIGNS = {
    "native_integrated": ("NATIVE", "INTEGRATED"),
    "native_sfi": ("NATIVE", "SFI"),
    "native_isolated": ("NATIVE", "ISOLATED"),
    "sandbox_jit": ("JAGUAR", "SANDBOX"),
    "sandbox_interp": ("JAGUAR", "SANDBOX_INTERP"),
    "sandbox_isolated": ("JAGUAR", "SANDBOX_ISOLATED"),
}
SANDBOXED = ("sandbox_jit", "sandbox_interp", "sandbox_isolated")
IN_PROCESS = ("native_integrated", "native_sfi", "sandbox_jit",
              "sandbox_interp")


def probe_native(ctx, data, num_callbacks):
    s = len(data) + data[0]
    for __ in range(num_callbacks):
        s = s + ctx.callback("cb_noop")
    return s


def create_probe(db, design):
    language, keyword = DESIGNS[design]
    if language == "NATIVE":
        body = "tests.core.test_callback_audit:probe_native"
    else:
        body = PROBE_JAGSCRIPT
    db.execute(
        f"CREATE FUNCTION probe(bytes, int) RETURNS int "
        f"LANGUAGE {language} DESIGN {keyword} ENTRY 'probe' "
        f"CALLBACKS 'cb_noop' AS '{body}'"
    )


def probe_db(design, rows=ROWS):
    db = Database()
    db.execute("CREATE TABLE t (id INT, a BYTEARRAY)")
    for i in range(rows):
        db.execute(f"INSERT INTO t VALUES ({i}, zerobytes({i + 1}))")
    create_probe(db, design)
    return db


def record_bindings(db, monkeypatch):
    """Every callback binding a statement of ``db`` makes, in order."""
    bindings = []
    original = db.broker.bind

    def recording(*args, **kwargs):
        binding = original(*args, **kwargs)
        bindings.append(binding)
        return binding

    monkeypatch.setattr(db.broker, "bind", recording)
    return bindings


def run_probes(db, statements, callbacks=CALLBACKS):
    for __ in range(statements):
        rows = db.query(f"SELECT probe(a, {callbacks}) FROM t")
        assert [r[0] for r in rows] == [
            (i + 1) for i in range(len(rows))
        ]


def security_of(db):
    return db.vm.get_udf("probe").security


@pytest.mark.parametrize("design", list(DESIGNS))
def test_log_bounded_and_every_crossing_counted(design, monkeypatch):
    """N statements and 2N leave the same audit log; each statement's
    binding counts rows x callbacks crossings."""
    n = 3
    db = probe_db(design)
    try:
        bindings = record_bindings(db, monkeypatch)
        run_probes(db, n)
        sandboxed = design in SANDBOXED
        if sandboxed:
            after_n = len(security_of(db).audit_log)
        run_probes(db, n)
        if sandboxed:
            log = security_of(db).audit_log
            assert len(log) == after_n
            assert not [r for r in log if not r.allowed]
            # Run time logs the first allowed crossing of the name, at
            # most: the isolated designs cross in their workers.
            crossed = [r for r in log if r.action == "callback"]
            assert len(crossed) == (design != "sandbox_isolated")
        assert [b.invocations for b in bindings] == (
            [{"cb_noop": ROWS * CALLBACKS}] * (2 * n)
        )
    finally:
        db.close()


@pytest.mark.parametrize("design", SANDBOXED)
def test_call_outside_the_grant_is_one_attributed_denial(design):
    """A grant narrowed after load (the load-time check passed) still
    refuses the CALLBACK at run time, once per crossing, naming the
    class, in the server's log under every design."""
    db = probe_db(design)
    try:
        security = security_of(db)
        # Before any statement: an isolated worker's zygote inherits the
        # program, grant included, when the first statement forks it.
        security.permissions = Permissions.none()
        before = len(security.audit_log)
        with pytest.raises(SecurityViolation, match="udf_probe") as denied:
            db.query(f"SELECT probe(a, {CALLBACKS}) FROM t WHERE id = 0")
        assert "cb_noop" in str(denied.value)
        # Design 4's worker checks the call; its denial ships back with
        # the batch's error and joins the server's log.
        (record,) = security.audit_log[before:]
        assert (record.action, record.target, record.allowed) == (
            "callback", "cb_noop", False
        )
        assert record.class_name == "udf_probe"
        # A call that makes no callback is still allowed.
        assert db.query("SELECT probe(a, 0) FROM t WHERE id = 0") == [(1,)]
    finally:
        db.close()


def live_objects():
    gc.collect()
    return len(gc.get_objects())


@pytest.mark.parametrize("design", IN_PROCESS)
def test_statements_retain_nothing(design):
    """50 probe statements making 10 callbacks per row leave the live
    object count within a small constant of where warm-up left it.  Each
    allowed callback used to append an audit record (+1 object per
    crossing, 16 x 10 per statement here), and each sandboxed statement
    left its resource account in the UDF's thread group (+1)."""
    rows, statements = 16, 50
    db = probe_db(design, rows=rows)
    try:
        run_probes(db, 5, callbacks=10)
        before = live_objects()
        run_probes(db, statements, callbacks=10)
        grown = live_objects() - before
        assert grown < 25, (
            f"{grown} objects retained by {statements} statements"
        )
    finally:
        db.close()
