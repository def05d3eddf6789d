"""UDFs through the full SQL path, parametrized over all six designs.

The query template is exactly the paper's benchmark query (Section 5.1):
``SELECT UDF(R.ByteArray, ...) FROM Rel R WHERE <condition>``, and every
design must return identical answers.
"""

import pytest

from repro.core.designs import Design
from repro.core.generic_udf import GENERIC_JAGSCRIPT


@pytest.fixture
def rel(db):
    db.execute("CREATE TABLE rel (id INT, arr BYTEARRAY)")
    db.execute(
        "INSERT INTO rel VALUES "
        "(0, patbytes(50, 0)), (1, patbytes(50, 1)), (2, patbytes(50, 2)), "
        "(3, zerobytes(50)), (4, NULL)"
    )
    return db


def create_generic(db, design: Design, name: str) -> None:
    if design.is_sandboxed:
        body = GENERIC_JAGSCRIPT.replace("def generic(", f"def {name}(")
        escaped = body.replace("'", "''")
        db.execute(
            f"CREATE FUNCTION {name}(bytes, int, int, int) RETURNS int "
            f"LANGUAGE JAGUAR DESIGN {_design_word(design)} "
            f"CALLBACKS 'cb_noop' AS '{escaped}'"
        )
    else:
        db.execute(
            f"CREATE FUNCTION {name}(bytes, int, int, int) RETURNS int "
            f"LANGUAGE NATIVE DESIGN {_design_word(design)} "
            f"CALLBACKS 'cb_noop' "
            f"AS 'repro.core.generic_udf:generic_native'"
        )


def _design_word(design: Design) -> str:
    return {
        Design.NATIVE_INTEGRATED: "INTEGRATED",
        Design.NATIVE_SFI: "SFI",
        Design.NATIVE_ISOLATED: "ISOLATED",
        Design.SANDBOX_JIT: "SANDBOX",
        Design.SANDBOX_INTERP: "SANDBOX_INTERP",
        Design.SANDBOX_ISOLATED: "SANDBOX_ISOLATED",
    }[design]


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
class TestAllDesignsThroughSQL:
    def test_projection(self, rel, design):
        create_generic(rel, design, "g")
        rows = rel.query(
            "SELECT id, g(arr, 3, 1, 1) FROM rel WHERE id < 3 ORDER BY id"
        )
        # noop callback adds 0; value = 3 + sum(arr).
        from repro.sql.expressions import _patbytes

        expected = [
            (i, 3 + sum(_patbytes(50, i))) for i in range(3)
        ]
        assert rows == expected

    def test_predicate_use(self, rel, design):
        create_generic(rel, design, "g")
        count = rel.execute(
            "SELECT count(*) FROM rel WHERE g(arr, 0, 1, 0) = 0 "
            "AND arr IS NOT NULL"
        ).scalar()
        assert count == 1  # only the zerobytes row sums to 0

    def test_null_argument_short_circuits(self, rel, design):
        create_generic(rel, design, "g")
        rows = rel.query("SELECT g(arr, 1, 0, 0) FROM rel WHERE id = 4")
        assert rows == [(None,)]


class TestDesignInteroperability:
    def test_two_designs_in_one_query(self, rel):
        create_generic(rel, Design.NATIVE_INTEGRATED, "g_native")
        create_generic(rel, Design.SANDBOX_JIT, "g_sandbox")
        rows = rel.query(
            "SELECT g_native(arr, 1, 1, 0), g_sandbox(arr, 1, 1, 0) "
            "FROM rel WHERE id = 1"
        )
        assert rows[0][0] == rows[0][1]

    def test_drop_function_frees_name(self, rel):
        create_generic(rel, Design.SANDBOX_JIT, "g")
        rel.execute("DROP FUNCTION g")
        create_generic(rel, Design.NATIVE_INTEGRATED, "g")
        assert rel.query("SELECT g(arr, 1, 0, 0) FROM rel WHERE id = 0") == [(1,)]

    def test_udf_inside_aggregate(self, rel):
        create_generic(rel, Design.SANDBOX_JIT, "g")
        total = rel.execute(
            "SELECT sum(g(arr, 0, 1, 0)) FROM rel WHERE id < 4"
        ).scalar()
        from repro.sql.expressions import _patbytes

        assert total == sum(sum(_patbytes(50, i)) for i in range(3))

    def test_udf_in_order_by(self, rel):
        create_generic(rel, Design.SANDBOX_JIT, "g")
        rows = rel.query(
            "SELECT id FROM rel WHERE id < 4 ORDER BY g(arr, 0, 1, 0) DESC"
        )
        from repro.sql.expressions import _patbytes

        sums = {i: sum(_patbytes(50, i)) for i in range(3)}
        sums[3] = 0
        expected = sorted(sums, key=lambda i: -sums[i])
        assert [r[0] for r in rows] == expected


class TestNativePayloadGenerality:
    def test_stdlib_builtin_as_udf(self, db):
        """Any importable callable can serve as trusted native UDF code —
        even a C-implemented builtin with no __code__ object."""
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.execute("INSERT INTO pts VALUES (3.0, 4.0)")
        db.execute(
            "CREATE FUNCTION hypot(float, float) RETURNS float "
            "LANGUAGE NATIVE DESIGN INTEGRATED AS 'math:hypot'"
        )
        assert db.execute("SELECT hypot(x, y) FROM pts").scalar() == 5.0

    def test_float_promotion_of_int_args(self, db):
        db.execute("CREATE TABLE one (x INT)")
        db.execute("INSERT INTO one VALUES (3)")
        db.execute(
            "CREATE FUNCTION hyp2(float, float) RETURNS float "
            "LANGUAGE NATIVE DESIGN INTEGRATED AS 'math:hypot'"
        )
        assert db.execute("SELECT hyp2(x, 4) FROM one").scalar() == 5.0


class TestClosedDatabaseIsFreed:
    """``close()`` breaks the references back to the database, so a
    closed one that ran UDF queries is freed when its last user drops
    it, without waiting for the cyclic garbage collector."""

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_freed_without_the_collector(self, tmp_path, on_disk):
        import gc
        import weakref

        from repro.database import Database

        gc.collect()
        gc.disable()
        try:
            db = Database(str(tmp_path / "db") if on_disk else None)
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1)")
            for design in ("SANDBOX", "SANDBOX_ISOLATED"):
                name = f"f_{design.lower()}"
                db.execute(
                    f"CREATE FUNCTION {name}(int) RETURNS int LANGUAGE "
                    f"JAGUAR DESIGN {design} AS "
                    f"'def {name}(x: int) -> int:\n    return x + 1'"
                )
                assert db.query(f"SELECT {name}(a) FROM t") == [(2,)]
            db.close()
            ref = weakref.ref(db)
            del db
            assert ref() is None
        finally:
            gc.enable()
