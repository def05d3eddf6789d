"""Flow-certificate parity: the fast paths must never change results.

The flow certificates unlock three executor/optimizer fast paths —
defensive-copy elision for read-only parameters, arena-style quota
reclamation for non-escaping allocations, and the trap-free CASE batch
form for inlined UDF bodies.  All of them are pure optimizations:
stripping every loaded function's flow certificate and dropping each
tier-1 kernel (the defensive baseline, built here end to end, including
in isolated workers; the engine keeps no switch for it) must leave
every query result bit-identical across all six designs and batch sizes
1 and 64, and for the isolated designs across worker-pool widths 1 and
2 (in-process designs do not read ``parallelism``).

The suite also pins the load gate on the SQL surface: a CREATE
FUNCTION whose payload leaks tuple data into the ``cb_log`` sink is
refused before it ever reaches the catalog.
"""

import pytest

from repro.core.designs import Design
from repro.database import Database
from repro.errors import SecurityViolation

BATCH_SIZES = (1, 64)
PARALLELISM_LEVELS = (1, 2)


# -- native payloads (module-level so worker processes can import them) -------

def triple_native(x):
    return x * 3


def blen_native(data):
    return len(data)


# -- fixtures -----------------------------------------------------------------

SETUP = """
CREATE TABLE stocks (id INT, price INT, type TEXT);
INSERT INTO stocks VALUES (1, 10, 'tech');
INSERT INTO stocks VALUES (2, NULL, 'oil');
INSERT INTO stocks VALUES (3, 10, 'tech');
INSERT INTO stocks VALUES (4, -5, NULL);
INSERT INTO stocks VALUES (5, 7, 'oil');
INSERT INTO stocks VALUES (6, 10, 'gas');
INSERT INTO stocks VALUES (7, NULL, 'tech');
INSERT INTO stocks VALUES (8, 7, 'gas');
INSERT INTO stocks VALUES (9, 0, 'oil');
INSERT INTO stocks VALUES (10, 3, 'tech');
"""

#: ``t1`` is small, pure, branchy arithmetic: inlinable and trap-free —
#: it exercises the trap-free CASE batch form.  ``blen`` takes a BYTES
#: argument it only reads: the copy-elision path.  ``mash`` allocates a
#: buffer that never escapes: the arena path.  The native designs run
#: host payloads (no certificates, the unchanged baseline).
JAGUAR_T1 = (
    "def t1(x: int) -> int:\n"
    "    if x < 0:\n"
    "        return 0 - x\n"
    "    return x * 3\n"
)
JAGUAR_BLEN = "def blen(data: bytes) -> int:\n    return len(data)\n"
JAGUAR_MASH = (
    "def mash(x: int) -> int:\n"
    "    buf: bytes = bytearray(16)\n"
    "    buf[3] = 9\n"
    "    return len(buf) + x\n"
)


def _jaguar(design_sql, name, signature, body, cost=None):
    cost_clause = f"COST {cost} " if cost else ""
    return (
        f"CREATE FUNCTION {name}({signature}) RETURNS int LANGUAGE JAGUAR "
        f"DESIGN {design_sql} {cost_clause}AS '{body}'"
    )


def _native(design_sql, name, signature, payload, cost=None):
    cost_clause = f"COST {cost} " if cost else ""
    return (
        f"CREATE FUNCTION {name}({signature}) RETURNS int LANGUAGE NATIVE "
        f"DESIGN {design_sql} {cost_clause}AS '{payload}'"
    )


DESIGN_SQL = {
    Design.NATIVE_INTEGRATED: "INTEGRATED",
    Design.NATIVE_SFI: "SFI",
    Design.NATIVE_ISOLATED: "ISOLATED",
    Design.SANDBOX_JIT: "SANDBOX",
    Design.SANDBOX_INTERP: "SANDBOX_INTERP",
    Design.SANDBOX_ISOLATED: "SANDBOX_ISOLATED",
}

NATIVE = (
    Design.NATIVE_INTEGRATED, Design.NATIVE_SFI, Design.NATIVE_ISOLATED,
)

QUERIES = [
    "SELECT id, t1(id) FROM stocks ORDER BY id",
    "SELECT id FROM stocks WHERE t1(id) > 12 AND type <> 'gas' ORDER BY id",
    "SELECT type, count(*), sum(t1(price)) FROM stocks "
    "GROUP BY type ORDER BY type",
    "SELECT id, blen(payload) FROM blobs ORDER BY id",
    "SELECT id FROM blobs WHERE blen(payload) > 4 ORDER BY id",
    "SELECT id, mash(id) FROM stocks WHERE id < 6 ORDER BY id",
]

#: Isolated designs spawn worker processes per UDF query, so the matrix
#: runs a representative subset for them (one UDF per fast path).
ISOLATED_QUERIES = [QUERIES[1], QUERIES[3], QUERIES[5]]

IN_PROCESS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_SFI,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)
ISOLATED = (Design.NATIVE_ISOLATED, Design.SANDBOX_ISOLATED)


def _fresh_db(design):
    db = Database()
    for statement in SETUP.strip().split(";"):
        if statement.strip():
            db.execute(statement)
    db.execute("CREATE TABLE blobs (id INT, payload BYTEARRAY)")
    table = db.catalog.get_table("blobs")
    for blob_id in range(1, 6):
        db.insert_row(table, [blob_id, bytes(range(blob_id * 2))])

    sql = DESIGN_SQL[design]
    if design in NATIVE:
        db.execute(_native(
            sql, "t1", "int",
            "tests.sql.test_flows_parity:triple_native", cost=500,
        ))
        db.execute(_native(
            sql, "blen", "bytes",
            "tests.sql.test_flows_parity:blen_native",
        ))
        db.execute(_native(
            sql, "mash", "int",
            "tests.sql.test_flows_parity:triple_native",
        ))
    else:
        db.execute(_jaguar(sql, "t1", "int", JAGUAR_T1, cost=500))
        db.execute(_jaguar(sql, "blen", "bytes", JAGUAR_BLEN))
        db.execute(_jaguar(sql, "mash", "int", JAGUAR_MASH))
    return db


def _strip_flows(db):
    """Disable every flow fast path: back to the defensive baseline.

    Each loaded UDF's functions lose their flow certificates and its
    kernel is dropped; the zygote is retired, so the next worker is
    forked from a process that sees the stripped programs.  Returns how
    many UDFs had an entry certificate to strip.
    """
    stripped = 0
    for name, loaded in db.vm.loaded_udfs.items():
        entry = db.registry.get(name).entry
        functions = loaded.main_class.functions
        stripped += functions[entry].flows is not None
        for func in functions.values():
            func.flows = None
        loaded.kernel = None
        loaded.kernel_refusal = "stripped"
    db.environment.retire_zygote()
    return stripped


def _snapshot(db, queries, levels=(1,)):
    rows = {}
    for batch_size in BATCH_SIZES:
        for level in levels:
            db.batch_size = batch_size
            db.parallelism = level
            for sql in queries:
                rows[(sql, batch_size, level)] = db.query(sql)
    return rows


class TestFlowParity:
    @pytest.mark.parametrize("design", IN_PROCESS)
    def test_in_process_designs(self, design):
        with _fresh_db(design) as db:
            certified = _snapshot(db, QUERIES)
            stripped = _strip_flows(db)
            if design not in NATIVE:
                assert stripped >= 3  # every jaguar UDF was certified
            baseline = _snapshot(db, QUERIES)
            assert certified == baseline

    @pytest.mark.parametrize("design", ISOLATED)
    def test_isolated_designs(self, design):
        with _fresh_db(design) as db:
            certified = _snapshot(db, ISOLATED_QUERIES, PARALLELISM_LEVELS)
            stripped = _strip_flows(db)
            if design not in NATIVE:
                assert stripped >= 3
            baseline = _snapshot(db, ISOLATED_QUERIES, PARALLELISM_LEVELS)
            assert certified == baseline

    def test_native_definitions_carry_no_flows(self):
        with _fresh_db(Design.NATIVE_INTEGRATED) as db:
            assert _strip_flows(db) == 0


class TestSqlLoadGate:
    def test_exfiltrating_udf_refused_at_create_function(self):
        with Database() as db:
            with pytest.raises(SecurityViolation) as exc:
                db.execute(
                    "CREATE FUNCTION leak(int) RETURNS int LANGUAGE JAGUAR "
                    "DESIGN SANDBOX CALLBACKS 'cb_log' AS "
                    "'def leak(x: int) -> int:\n"
                    "    disguised: int = x * 31 + 7\n"
                    "    return cb_log(disguised)\n'"
                )
            assert "tuple-derived data" in str(exc.value)
            assert "rejected at load" in str(exc.value)
            # The refusal left no catalog entry behind.
            assert "leak" not in db.registry.names()

    def test_constant_argument_sink_is_admitted(self):
        with Database() as db:
            db.execute(
                "CREATE FUNCTION heartbeat(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX CALLBACKS 'cb_log' AS "
                "'def heartbeat(x: int) -> int:\n    return cb_log(1)\n'"
            )
            assert "heartbeat" in db.registry.names()
