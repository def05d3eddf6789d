"""Inlining parity: ``inlining=True`` must never change what a query returns.

The matrix sweeps every inlinable sample UDF across all six designs,
batch sizes {1, 64}, and parallelism {1, 2}, asserting bit-identical
rows against the same database with inlining off.  Sandboxed designs
actually rewrite call sites; native designs refuse (opaque host code)
and must be byte-for-byte unaffected.

Also covered: the zero-VM-entry acceptance criterion (an inlined pure
UDF in WHERE executes with no per-design UDF counters at all, only the
``inlined_calls`` stamp), EXPLAIN's ``inlined`` / ``opaque(<reason>)``
markers, and adaptive-feedback isolation (inlined evaluation must not
feed observed UDF costs).
"""

import pytest

from repro.core.designs import Design
from repro.database import Database

JAG_PLUS1 = "def plus1(x: int) -> int:\n    return x + 1"
JAG_CLIP = (
    "def clip(x: int) -> int:\n"
    "    if x < 0:\n"
    "        return 0\n"
    "    return x"
)
JAG_SCALE = "def scale(x: float) -> float:\n    return x * 2.0 - 1.0"

#: (name, signature, jagscript body, native module:function)
SAMPLES = [
    ("plus1", "(int) RETURNS int", JAG_PLUS1, "tests.sql.inline_samples:plus1"),
    ("clip", "(int) RETURNS int", JAG_CLIP, "tests.sql.inline_samples:clip"),
    ("scale", "(float) RETURNS float", JAG_SCALE,
     "tests.sql.inline_samples:scale"),
]

_DESIGN_SQL = {
    Design.NATIVE_INTEGRATED: "LANGUAGE NATIVE DESIGN INTEGRATED",
    Design.NATIVE_SFI: "LANGUAGE NATIVE DESIGN SFI",
    Design.NATIVE_ISOLATED: "LANGUAGE NATIVE DESIGN ISOLATED",
    Design.SANDBOX_JIT: "LANGUAGE JAGUAR DESIGN SANDBOX",
    Design.SANDBOX_INTERP: "LANGUAGE JAGUAR DESIGN SANDBOX_INTERP",
    Design.SANDBOX_ISOLATED: "LANGUAGE JAGUAR DESIGN SANDBOX_ISOLATED",
}

ALL_DESIGNS = tuple(_DESIGN_SQL)
IN_PROCESS = tuple(d for d in ALL_DESIGNS if not d.is_isolated)
ISOLATED = tuple(d for d in ALL_DESIGNS if d.is_isolated)

QUERIES = [
    "SELECT id, plus1(x) FROM t ORDER BY id",
    "SELECT id FROM t WHERE plus1(x) > 0 ORDER BY id",
    "SELECT id, clip(x) FROM t WHERE clip(x) > 3 ORDER BY id",
    "SELECT id, scale(f) FROM t WHERE scale(f) < 10.0 ORDER BY id",
    "SELECT id, plus1(clip(x)) FROM t ORDER BY id",
    "SELECT sum(plus1(x)) FROM t WHERE x IS NOT NULL",
    "SELECT id FROM t ORDER BY clip(x) DESC, id LIMIT 5",
]

#: Isolated designs spawn a worker process per UDF query; a
#: representative subset keeps the matrix affordable.
ISOLATED_QUERIES = QUERIES[1:4]


def _payload(design, jag, native):
    if design.is_sandboxed:
        return jag.replace("'", "''")
    return native


def _fresh_db(design, **kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INT, x INT, f FLOAT)")
    rows = []
    for i in range(30):
        x = None if i % 7 == 3 else (i - 12) * 3
        f = None if i % 11 == 5 else (i - 15) / 2.0
        rows.append((i, x, f))
    db.insert_rows("t", rows)
    for name, sig, jag, native in SAMPLES:
        db.execute(
            f"CREATE FUNCTION {name}{sig} {_DESIGN_SQL[design]} "
            f"AS '{_payload(design, jag, native)}'"
        )
    return db


class TestInlineParityMatrix:
    @pytest.mark.parametrize("design", IN_PROCESS)
    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_in_process(self, design, parallelism):
        with _fresh_db(design) as db:
            db.parallelism = parallelism
            for batch_size in (1, 64):
                db.batch_size = batch_size
                for sql in QUERIES:
                    db.inlining = False
                    reference = db.query(sql)
                    db.inlining = True
                    assert db.query(sql) == reference, (
                        design, batch_size, parallelism, sql
                    )

    @pytest.mark.parametrize("design", ISOLATED)
    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_isolated(self, design, parallelism):
        with _fresh_db(design) as db:
            db.parallelism = parallelism
            for batch_size in (1, 64):
                db.batch_size = batch_size
                for sql in ISOLATED_QUERIES:
                    db.inlining = False
                    reference = db.query(sql)
                    db.inlining = True
                    assert db.query(sql) == reference, (
                        design, batch_size, parallelism, sql
                    )


class TestRegistrationVerdict:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_sandboxed_bodies_lift_native_code_refuses_impure(self, design):
        from repro.analysis.decompile import InlineRefusal, InlineTemplate

        with _fresh_db(design) as db:
            inline = db.registry.get("plus1").inline
            if design.is_sandboxed:
                assert isinstance(inline, InlineTemplate)
            else:
                assert isinstance(inline, InlineRefusal)
                assert inline.reason == "impure"


class TestZeroVMEntries:
    @pytest.mark.parametrize(
        "design", (Design.SANDBOX_JIT, Design.SANDBOX_INTERP)
    )
    def test_inlined_where_clause_never_enters_vm(self, design):
        with _fresh_db(design, metrics=True, inlining=True) as db:
            rows = db.query("SELECT id FROM t WHERE plus1(x) > 0")
            assert rows
            counters = db.stats()["metrics"]["counters"]
            # No per-design UDF activity at all: no executor was even
            # created, so not a single invocation/batch counter exists.
            design_keys = [
                key for key in counters
                if key.startswith(f"udf.plus1.{design.value}.")
            ]
            assert design_keys == []
            assert counters["udf.plus1.inlined_calls"] > 0

    def test_opaque_udf_still_counts_calls(self):
        design = Design.SANDBOX_JIT
        with _fresh_db(design, metrics=True, inlining=False) as db:
            db.query("SELECT id FROM t WHERE plus1(x) > 0")
            counters = db.stats()["metrics"]["counters"]
            assert counters[f"udf.plus1.{design.value}.calls"] > 0
            assert "udf.plus1.inlined_calls" not in counters

    def test_inlined_counter_counts_rows(self):
        with _fresh_db(
            Design.SANDBOX_JIT, metrics=True, inlining=True
        ) as db:
            db.query("SELECT plus1(x) FROM t WHERE x IS NOT NULL")
            counters = db.stats()["metrics"]["counters"]
            # One inlined evaluation per row reaching the projection.
            non_null = sum(
                1 for (x,) in db.query("SELECT x FROM t") if x is not None
            )
            assert counters["udf.plus1.inlined_calls"] >= non_null


class TestExplainMarkers:
    def _db(self, **kwargs):
        db = _fresh_db(Design.SANDBOX_JIT, **kwargs)
        db.execute(
            "CREATE FUNCTION looped(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS 'def looped(n: int) -> int:\n"
            "    total: int = 0\n"
            "    i: int = 0\n"
            "    while i < n:\n"
            "        total = total + i\n"
            "        i = i + 1\n"
            "    return total'"
        )
        return db

    def test_inlined_marker_in_filter(self):
        with self._db(inlining=True) as db:
            text = "\n".join(
                line for (line,) in db.execute(
                    "EXPLAIN SELECT id FROM t WHERE plus1(x) > 0"
                ).rows
            )
            assert "udf plus1: inlined" in text
            assert "plus1(" not in text  # the call site is gone

    def test_opaque_marker_carries_reason(self):
        with self._db(inlining=True) as db:
            text = "\n".join(
                line for (line,) in db.execute(
                    "EXPLAIN SELECT looped(x) FROM t WHERE looped(x) > 0"
                ).rows
            )
            assert "opaque(loop)" in text

    def test_inlining_off_is_seed_identical(self):
        with self._db(inlining=False) as db:
            text = "\n".join(
                line for (line,) in db.execute(
                    "EXPLAIN SELECT looped(x) FROM t WHERE plus1(x) > 0"
                ).rows
            )
            assert "inlined" not in text
            assert "opaque" not in text
            assert "plus1(t.x)" in text

    def test_analyze_reports_inlined_rows(self):
        with self._db(inlining=True) as db:
            text = "\n".join(
                line for (line,) in db.execute(
                    "EXPLAIN ANALYZE SELECT id FROM t WHERE plus1(x) > 0"
                ).rows
            )
            assert "udf plus1 [inlined]: rows=" in text


class TestAdaptiveIsolation:
    def test_inlined_calls_do_not_feed_observed_costs(self):
        with _fresh_db(
            Design.SANDBOX_JIT, adaptive=True, inlining=True
        ) as db:
            for __ in range(5):
                db.query("SELECT id FROM t WHERE plus1(x) > 0")
            # The adaptive store never saw a plus1 invocation: inlined
            # evaluation is native SQL, and feeding its (near-zero)
            # timings would corrupt the cost model of designs that
            # still really execute the UDF.
            assert db.observability.adaptive.observed_cost("plus1") is None

    def test_opaque_calls_still_feed_observed_costs(self):
        with _fresh_db(
            Design.SANDBOX_JIT, adaptive=True, inlining=False
        ) as db:
            for __ in range(30):
                db.query("SELECT id FROM t WHERE plus1(x) > 0")
            assert db.observability.adaptive.observed_cost("plus1") is not None


class TestInliningSemantics:
    def test_null_arguments_stay_null(self):
        with _fresh_db(Design.SANDBOX_JIT, inlining=True) as db:
            rows = dict(db.query("SELECT id, plus1(x) FROM t"))
            nulls = dict(db.query("SELECT id, x FROM t"))
            for rid, value in rows.items():
                if nulls[rid] is None:
                    assert value is None
                else:
                    assert value == nulls[rid] + 1

    def test_truncating_division_matches_vm(self):
        # SQL // floors; the VM truncates toward zero.  The idiv
        # builtin in lifted bodies must follow the VM.
        with Database(inlining=True) as db:
            db.execute("CREATE TABLE n (x INT)")
            db.execute("INSERT INTO n VALUES (-7)")
            db.execute(
                "CREATE FUNCTION half(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS 'def half(x: int) -> int:\n"
                "    return x // 2'"
            )
            db.inlining = False
            reference = db.query("SELECT half(x) FROM n")
            db.inlining = True
            assert db.query("SELECT half(x) FROM n") == reference == [(-3,)]

    @pytest.mark.parametrize("name, body", [
        ("inc", "x + 1"),
        ("dbl", "x * 2"),
        ("neg", "-x"),
    ])
    def test_int_arithmetic_wraps_like_the_vm(self, name, body):
        # SQL integers are unbounded; the lifted IADD/IMUL/INEG must
        # wrap to int64 exactly as the VM does.
        int_max = 2 ** 63 - 1
        with Database(inlining=True) as db:
            db.execute("CREATE TABLE n (x INT)")
            db.insert_rows("n", [(v,) for v in (
                -int_max - 1, -int_max, -1, 0, 1, int_max - 1, int_max,
            )])
            db.execute(
                f"CREATE FUNCTION {name}(int) RETURNS int LANGUAGE JAGUAR "
                f"DESIGN SANDBOX AS 'def {name}(x: int) -> int:\n"
                f"    return {body}'"
            )
            sql = f"SELECT x, {name}(x) FROM n ORDER BY x"
            assert "inlined" in "\n".join(
                row[0] for row in db.query("EXPLAIN " + sql)
            )
            db.inlining = False
            reference = db.query(sql)
            db.inlining = True
            assert db.query(sql) == reference
            assert all(-int_max - 1 <= v <= int_max for __, v in reference)

    def test_runtime_trap_still_raises_inlined(self):
        from repro.errors import ExecutionError, UDFCrashed

        with Database(inlining=True) as db:
            db.execute("CREATE TABLE n (x INT)")
            db.execute("INSERT INTO n VALUES (0)")
            db.execute(
                "CREATE FUNCTION inv(int) RETURNS int LANGUAGE JAGUAR "
                "DESIGN SANDBOX AS 'def inv(x: int) -> int:\n"
                "    return 100 // x'"
            )
            with pytest.raises((ExecutionError, UDFCrashed)):
                db.query("SELECT inv(x) FROM n")

    def test_inlining_flag_is_per_query(self):
        with _fresh_db(Design.SANDBOX_JIT, metrics=True) as db:
            db.inlining = True
            db.query("SELECT id FROM t WHERE plus1(x) > 0")
            db.inlining = False
            db.query("SELECT id FROM t WHERE plus1(x) > 0")
            counters = db.stats()["metrics"]["counters"]
            # Both modes ran: the stamp from the first, real VM calls
            # from the second.
            assert counters["udf.plus1.inlined_calls"] > 0
            assert counters["udf.plus1.sandbox_jit.calls"] > 0
