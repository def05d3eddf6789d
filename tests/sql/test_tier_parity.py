"""Tier-1 parity: a cross-design differential over the batch kernel.

Tier 1 is decided at CREATE FUNCTION and is only ever an optimization.
``SANDBOX`` and ``SANDBOX_ISOLATED`` run an eligible UDF's whole-batch
kernel; ``SANDBOX_INTERP`` and ``NATIVE_INTEGRATED`` never do.  Every
query must return the same rows on all of them, at batch sizes 1 and 64
(and, for the isolated design, worker-pool widths 1 and 2; in-process
designs do not read ``parallelism``) — including errors: a UDF that
traps mid-batch deopts and re-raises exactly what the interpreter
raises, and a quota exhausted under a non-default ``QuotaPolicy`` fails
with the same class and message.  A guard checks the kernel really ran
(the ``kernel_batches`` counter, shared with forked workers), and the
defensive baseline the flow parity suite builds (every loaded
function's flow facts stripped, the kernel dropped) runs tier 0.
"""

from functools import lru_cache

import pytest

from repro.core.designs import Design
from repro.database import Database
from repro.errors import ArithmeticFault, FuelExhausted
from repro.vm.resources import QuotaPolicy

from tests.sql.test_flows_parity import _strip_flows

BATCH_SIZES = (1, 64)
PARALLELISM_LEVELS = (1, 2)


# -- native payloads (module-level so worker processes can import them) -------

def triple_native(x):
    return x * 3 + 1


def clip_native(x):
    return x if x < 50 else 50


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

#: ``arith`` is the prime tier-1 target: pure, typed, constant-bound
#: arithmetic (at parallelism 2 a ``SANDBOX_ISOLATED`` batch runs the
#: kernel in two worker processes).  ``clip`` is branchy (both kernel
#: block forms).
JAGUAR_ARITH = "def arith(x: int) -> int:\n    return x * 3 + 1\n"
JAGUAR_CLIP = (
    "def clip(x: int) -> int:\n"
    "    if x < 50:\n"
    "        return x\n"
    "    return 50\n"
)
#: Traps when ``x == -5`` (row id 4): a forced mid-batch deopt whose
#: tier-0 rerun re-raises the fault.
JAGUAR_TRAPPY = (
    "def trappy(x: int) -> int:\n"
    "    return 100 // (x + 5)\n"
)
#: Cheap for ``x >= 0``, expensive for negative ``x``: under a small
#: quota the expensive path exhausts fuel (row id 4 again).
JAGUAR_BRANCHY = (
    "def branchy(x: int) -> int:\n"
    "    if x < 0:\n"
    "        y = x * 3\n"
    "        y = y * 5 + 1\n"
    "        y = y * 7 + 2\n"
    "        y = y * 11 + 3\n"
    "        y = y * 13 + 4\n"
    "        return y\n"
    "    return x + 1\n"
)
BRANCHY_FUEL = 12

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
#: The designs that run the kernel, and the two references that never do.
KERNEL_DESIGNS = (Design.SANDBOX_JIT, Design.SANDBOX_ISOLATED)
REFERENCES = (Design.NATIVE_INTEGRATED, Design.SANDBOX_INTERP)

QUERIES = [
    "SELECT id, arith(id) FROM stocks ORDER BY id",
    "SELECT id FROM stocks WHERE arith(id) > 12 AND type <> 'gas' "
    "ORDER BY id",
    "SELECT type, count(*), sum(arith(price)) FROM stocks "
    "GROUP BY type ORDER BY type",
    "SELECT id, clip(arith(id)) FROM stocks ORDER BY id",
]

#: Isolated designs spawn worker processes per UDF query, so the matrix
#: runs a representative subset for them.
ISOLATED_QUERIES = [QUERIES[0], QUERIES[3]]

IN_PROCESS = (
    Design.NATIVE_INTEGRATED,
    Design.NATIVE_SFI,
    Design.SANDBOX_JIT,
    Design.SANDBOX_INTERP,
)
ISOLATED = (Design.NATIVE_ISOLATED, Design.SANDBOX_ISOLATED)


def _fresh_db(design, policy=None):
    db = Database()
    if policy is not None:
        db.vm.policy = policy  # before CREATE FUNCTION: loading reads it
    for statement in SETUP.strip().split(";"):
        if statement.strip():
            db.execute(statement)
    sql = DESIGN_SQL[design]
    if design in NATIVE:
        db.execute(
            f"CREATE FUNCTION arith(int) RETURNS int LANGUAGE NATIVE "
            f"DESIGN {sql} COST 500 AS "
            f"'tests.sql.test_tier_parity:triple_native'"
        )
        db.execute(
            f"CREATE FUNCTION clip(int) RETURNS int LANGUAGE NATIVE "
            f"DESIGN {sql} AS 'tests.sql.test_tier_parity:clip_native'"
        )
    else:
        db.execute(
            f"CREATE FUNCTION arith(int) RETURNS int LANGUAGE JAGUAR "
            f"DESIGN {sql} COST 500 AS '{JAGUAR_ARITH}'"
        )
        db.execute(
            f"CREATE FUNCTION clip(int) RETURNS int LANGUAGE JAGUAR "
            f"DESIGN {sql} AS '{JAGUAR_CLIP}'"
        )
    return db


def _levels(design):
    """Pool widths worth running: only isolated designs read one."""
    return PARALLELISM_LEVELS if design.is_isolated else (1,)


def _snapshot(db, queries, levels=(1,)):
    """Rows per (query, batch size); every width in ``levels`` agrees."""
    rows = {}
    for batch_size in BATCH_SIZES:
        for level in levels:
            db.batch_size = batch_size
            db.parallelism = level
            for sql in queries:
                got = db.query(sql)
                assert rows.setdefault((sql, batch_size), got) == got, (
                    sql, batch_size, level
                )
    return rows


@lru_cache(maxsize=None)
def _reference(design, isolated_subset):
    queries = ISOLATED_QUERIES if isolated_subset else QUERIES
    with _fresh_db(design) as db:
        return _snapshot(db, queries)


def _assert_matches_references(design, queries, isolated_subset=False):
    with _fresh_db(design) as db:
        rows = _snapshot(db, queries, _levels(design))
    for reference in REFERENCES:
        assert rows == _reference(reference, isolated_subset), reference


def _error(design, udf, body, query, policy=None):
    """``(class, message)`` of the error ``query`` raises under every
    batch size and pool width (all must agree)."""
    outcomes = set()
    with _fresh_db(design, policy) as db:
        db.execute(
            f"CREATE FUNCTION {udf}(int) RETURNS int LANGUAGE JAGUAR "
            f"DESIGN {DESIGN_SQL[design]} AS '{body}'"
        )
        for batch_size in BATCH_SIZES:
            for level in _levels(design):
                db.batch_size = batch_size
                db.parallelism = level
                with pytest.raises(Exception) as exc:
                    db.query(query)
                outcomes.add((type(exc.value), str(exc.value)))
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()


TRAPPY_QUERY = "SELECT trappy(price) FROM stocks WHERE price IS NOT NULL"
BRANCHY_QUERY = "SELECT branchy(price) FROM stocks WHERE price IS NOT NULL"


class TestTierParity:
    @pytest.mark.parametrize("design", IN_PROCESS)
    def test_in_process_designs(self, design):
        _assert_matches_references(design, QUERIES)

    @pytest.mark.parametrize("design", ISOLATED)
    def test_isolated_designs(self, design):
        _assert_matches_references(
            design, ISOLATED_QUERIES, isolated_subset=True
        )

    @pytest.mark.parametrize("design", KERNEL_DESIGNS)
    def test_forced_mid_batch_deopt_error_parity(self, design):
        # Row id=4 has price=-5: trappy(-5) divides by zero mid-batch.
        # The kernel deopts and the tier-0 rerun re-raises the same
        # fault the interpreter raises.
        kernel = _error(design, "trappy", JAGUAR_TRAPPY, TRAPPY_QUERY)
        assert kernel[0] is ArithmeticFault
        assert kernel == _error(
            Design.SANDBOX_INTERP, "trappy", JAGUAR_TRAPPY, TRAPPY_QUERY
        )

    @pytest.mark.parametrize("design", KERNEL_DESIGNS)
    def test_fuel_exhaustion_parity_under_quota_policy(self, design):
        # The kernel cannot prepay the certified worst case under this
        # policy, deopts, and tier 0 runs out of fuel on row id=4 with
        # the interpreter's exact error.
        policy = QuotaPolicy(fuel=BRANCHY_FUEL)
        kernel = _error(
            design, "branchy", JAGUAR_BRANCHY, BRANCHY_QUERY, policy
        )
        assert kernel[0] is FuelExhausted
        assert kernel == _error(
            Design.SANDBOX_INTERP, "branchy", JAGUAR_BRANCHY,
            BRANCHY_QUERY, policy,
        )

    @pytest.mark.parametrize("design", KERNEL_DESIGNS)
    def test_kernel_actually_ran(self, design, kernel_batches):
        # Guard against the suite silently comparing tier 0 with itself.
        queries = (
            QUERIES if design is Design.SANDBOX_JIT else ISOLATED_QUERIES
        )
        with _fresh_db(design) as db:
            _snapshot(db, queries)
        assert kernel_batches.value > 0

    @pytest.mark.parametrize("design", REFERENCES)
    def test_references_never_run_a_kernel(self, design, kernel_batches):
        with _fresh_db(design) as db:
            _snapshot(db, QUERIES)
        assert kernel_batches.value == 0

    @pytest.mark.parametrize("design", KERNEL_DESIGNS)
    def test_stripped_flows_fall_back_to_tier0(self, design, kernel_batches):
        queries = (
            QUERIES if design is Design.SANDBOX_JIT else ISOLATED_QUERIES
        )
        with _fresh_db(design) as db:
            _strip_flows(db)
            rows = _snapshot(db, queries)
            plan = [
                line for (line,) in db.query(f"EXPLAIN {queries[0]}")
            ]
        assert kernel_batches.value == 0
        assert any("tier0(stripped)" in line for line in plan)
        assert rows == _reference(
            Design.SANDBOX_INTERP, design is Design.SANDBOX_ISOLATED
        )
