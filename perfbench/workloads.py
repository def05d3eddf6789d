"""The three embedded workloads: tables, statement texts and schedules.

Everything here is generated from the seed before any clock starts.  The
seed changes literals and row contents only; the statement classes, their
order and the rows each one touches are the same for every seed, so every
seed does the same amount of work.

A *round* is a fixed list of :class:`oracle.Stmt`.  ``Workload.round(i)``
runs round ``i`` against the engine and returns what came back.
"""

from __future__ import annotations

import hashlib
import os
import random

import engine_api
import udf_sources
from oracle import SqliteMirror, Stmt, count_failures


class Table:
    def __init__(self, name, columns, rows, index=None):
        self.name = name
        self.columns = columns          # [(name, "INT"|"VARCHAR"|"BYTEARRAY")]
        self.rows = rows
        self.index = index              # indexed INT column, if any

    def ddl(self):
        columns = ", ".join(f"{name} {kind}" for name, kind in self.columns)
        yield f"CREATE TABLE {self.name} ({columns})"

    def index_ddl(self):
        if self.index is not None:
            yield (f"CREATE INDEX {self.name}_{self.index} "
                   f"ON {self.name} ({self.index})")

    def user_bytes(self) -> int:
        total = 0
        for row in self.rows:
            for value in row:
                total += len(value) if isinstance(value, (str, bytes)) else 8
        return total


class Plan:
    """What a workload runs: tables, functions and the round schedule."""

    name = ""
    why = ""
    page_size = 8192
    buffer_capacity = 256
    path_backed = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.tables = []
        self.functions = []             # CREATE FUNCTION texts
        self.schedule = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def round_statements(self, index: int):
        """The statements of round ``index`` (same classes every round)."""
        raise NotImplementedError

    def build_schedule(self, rounds: int) -> None:
        while len(self.schedule) < rounds:
            self.schedule.append(self.round_statements(len(self.schedule)))

    def statements(self, index: int):
        if index >= len(self.schedule):
            self.build_schedule(index + 1)
        return self.schedule[index]

    @property
    def statements_per_round(self) -> int:
        return len(self.statements(0))

    def schedule_hash(self, rounds: int = 8) -> str:
        digest = hashlib.sha256()
        for index in range(rounds):
            for stmt in self.statements(index):
                digest.update(stmt.sql.encode())
                digest.update(repr(stmt.expected).encode())
        for table in self.tables:
            digest.update(repr(table.rows).encode())
        return digest.hexdigest()[:16]

    def work_shape(self, rounds: int = 8):
        """What must not depend on the seed: classes, order, row counts."""
        return [
            [(stmt.cls, stmt.check) for stmt in self.statements(index)]
            for index in range(rounds)
        ]

    def mirror(self) -> SqliteMirror:
        return SqliteMirror(self.tables)


class Workload:
    """One engine instance running a :class:`Plan` embedded."""

    def __init__(self, plan: Plan, open_database=engine_api.open_database):
        self.plan = plan
        self.open_database = open_database
        self.db = None

    def live_pids(self):
        return []

    def prepare(self, workdir: str) -> None:
        """Untimed part of a set-up (nothing, embedded)."""

    def open(self, workdir: str):
        plan = self.plan
        path = os.path.join(workdir, "db") if plan.path_backed else None
        return self.open_database(
            path, plan.page_size, plan.buffer_capacity
        )

    def setup(self, workdir: str) -> None:
        """From an empty directory to the first statement ready."""
        self.db = self.open(workdir)
        self.load(self.db)
        self.db.checkpoint()
        self.warmup_results = self.round(0)

    def load(self, db) -> None:
        plan = self.plan
        for table in plan.tables:
            for sql in table.ddl():
                db.execute(sql)
        for sql in plan.functions:
            db.execute(sql)
        for table in plan.tables:
            db.insert_rows(table.name, table.rows)
            for sql in table.index_ddl():
                db.execute(sql)

    def run(self, stmt: Stmt):
        try:
            rows = self.db.execute(stmt.sql).rows
            if stmt.cls == "lob":
                # A LOB comes back as a reference; reading it is the point.
                rows = [
                    tuple(self.db.read_lob(value) for value in row)
                    for row in rows
                ]
            return rows
        except Exception as exc:        # counted as a failed statement
            return exc

    def round(self, index: int):
        run = self.run
        return [run(stmt) for stmt in self.plan.statements(index)]

    def after_round(self) -> None:
        """Untimed hook between a round and the next host probe."""

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def epilogue(self):
        """Untimed checks after the window: ``(attempted, failed)``."""
        return 0, 0

    def verify(self, logs, report) -> int:
        """How many logged statements the oracle rejects."""
        mirror = self.plan.mirror()
        try:
            stream = [
                pair
                for index, results in logs
                for pair in zip(self.plan.statements(index), results)
            ]
            return count_failures(mirror, [stream], report)
        finally:
            mirror.close()


# -- udf_invoke --------------------------------------------------------------

class UdfInvoke(Plan):
    name = "udf_invoke"
    why = ("six UDF designs x by-value args of 1/100/10000 bytes + 10 "
           "callbacks: marshal, shm hop and VM entry dominate; UDF bodies "
           "and storage do almost nothing")
    #: Rows each design's statement invokes the UDF on (4 calls per row).
    #: Frozen so that no design is more than 30 % of the round: the
    #: isolated designs pay a process spawn per statement and get few rows.
    rows_by_design = {
        "native_integrated": 64,
        "native_sfi": 64,
        "native_isolated": 8,
        "sandbox_jit": 48,
        "sandbox_interp": 48,
        "sandbox_isolated": 2,
    }
    table_rows = 64
    function = "probe"

    def build(self) -> None:
        rng = self.rng
        # 1-byte arrays are all distinct, so no seed gives a memoising
        # call site more repeats than another.
        singles = rng.sample(range(256), self.table_rows)
        self.tables = [Table(
            "rel",
            [("id", "INT"), ("a1", "BYTEARRAY"), ("a100", "BYTEARRAY"),
             ("a10k", "BYTEARRAY")],
            [
                (i, bytes([singles[i]]), rng.randbytes(100),
                 rng.randbytes(10000))
                for i in range(self.table_rows)
            ],
        )]
        self.functions = [
            udf_sources.create_function_sql(self.function, design)
            for design in self.rows_by_design
        ]
        self._low = {}
        self._round = [
            self._statement(design, count)
            for design, count in self.rows_by_design.items()
        ]

    def _statement(self, design: str, count: int) -> Stmt:
        low = self._low[design] = self.rng.randrange(
            self.table_rows - count + 1
        )
        udf = udf_sources.udf_name(self.function, design)
        sql = (
            f"SELECT {udf}(r.a1, 0), {udf}(r.a100, 0), {udf}(r.a10k, 0), "
            f"{udf}(r.a1, 10) FROM rel r "
            f"WHERE r.id >= {low} AND r.id < {low + count}"
        )
        model = udf_sources.probe_model
        expected = [
            (model(a1, 0), model(a100, 0), model(a10k, 0), model(a1, 10))
            for __, a1, a100, a10k in self.tables[0].rows[low:low + count]
        ]
        return Stmt(design, sql, "model", expected, recurring=True)

    def round_statements(self, index: int):
        return self._round

    def argument_batches(self, design: str, callbacks: int = 10):
        """The exact argument tuples the design's statement passes."""
        low = self._low[design]
        rows = self.tables[0].rows[low:low + self.rows_by_design[design]]
        return [
            [[a1, 0] for __, a1, __, __ in rows],
            [[a100, 0] for __, __, a100, __ in rows],
            [[a10k, 0] for __, __, __, a10k in rows],
            [[a1, callbacks] for __, a1, __, __ in rows],
        ]

    def body_arguments(self, design: str):
        """The same calls with the callbacks taken out: a callback is a
        boundary crossing (core), not UDF body (vm)."""
        return [args for batch in self.argument_batches(design, 0)
                for args in batch]


# -- udf_compute -------------------------------------------------------------

class UdfCompute(Plan):
    name = "udf_compute"
    why = ("the paper's generic UDF with a long data-independent loop and "
           "a per-byte loop over few rows: the interpreter/JIT body "
           "dominates and the invocation boundary is small")
    rows_by_design = {
        "native_integrated": 32,
        "sandbox_jit": 16,
        "sandbox_interp": 3,
        "sandbox_isolated": 2,
    }
    table_rows = 32
    function = "generic"
    num_indep = 1500
    num_dep = 4
    array_bytes = 100

    def build(self) -> None:
        rng = self.rng
        self.tables = [Table(
            "relc",
            [("id", "INT"), ("arr", "BYTEARRAY")],
            [(i, rng.randbytes(self.array_bytes))
             for i in range(self.table_rows)],
        )]
        self.functions = [
            udf_sources.create_function_sql(self.function, design)
            for design in self.rows_by_design
        ]
        self._low = {}
        self._round = [
            self._statement(design, count)
            for design, count in self.rows_by_design.items()
        ]

    def _statement(self, design: str, count: int) -> Stmt:
        low = self._low[design] = self.rng.randrange(
            self.table_rows - count + 1
        )
        udf = udf_sources.udf_name(self.function, design)
        sql = (
            f"SELECT {udf}(r.arr, {self.num_indep}, {self.num_dep}, 0) "
            f"FROM relc r WHERE r.id >= {low} AND r.id < {low + count}"
        )
        expected = [
            (udf_sources.generic_model(arr, self.num_indep, self.num_dep, 0),)
            for __, arr in self.tables[0].rows[low:low + count]
        ]
        return Stmt(design, sql, "model", expected, recurring=True)

    def round_statements(self, index: int):
        return self._round

    def argument_batches(self, design: str):
        low = self._low[design]
        rows = self.tables[0].rows[low:low + self.rows_by_design[design]]
        return [[[arr, self.num_indep, self.num_dep, 0] for __, arr in rows]]

    def body_arguments(self, design: str):
        return self.argument_batches(design)[0]


# -- sql_read ----------------------------------------------------------------

def facts_and_dim(rng, facts_rows: int, dim_rows: int):
    """The small hot tables ``sql_read`` and ``server_mixed`` both read."""
    facts = Table(
        "facts",
        [("id", "INT"), ("dim_id", "INT"), ("qty", "INT"), ("price", "INT")],
        [(i, rng.randrange(dim_rows), rng.randrange(1000),
          rng.randrange(100000)) for i in range(facts_rows)],
        index="id",
    )
    dim = Table(
        "dim",
        [("id", "INT"), ("name", "VARCHAR"), ("weight", "INT")],
        [(i, f"dim-{rng.randrange(10 ** 6):06d}", rng.randrange(8))
         for i in range(dim_rows)],
    )
    return facts, dim


class SqlRead(Plan):
    name = "sql_read"
    why = ("UDF-free reads on a path-backed database with one table 4x the "
           "buffer pool: parser, planner, operators and the storage read "
           "path do all the work; the bypass workload for UDF changes")
    page_size = 4096
    buffer_capacity = 64                # 256 KiB of frames
    path_backed = True
    big_rows = 256                      # one ~3.4 KB row per page: 1 MiB
    pad_chars = 3300
    facts_rows = 600
    dim_rows = 64
    docs_rows = 8
    lob_bytes = 10000

    def build(self) -> None:
        rng = self.rng
        if self.smoke:
            self.big_rows, self.facts_rows = 96, 200
        big = Table(
            "big",
            [("id", "INT"), ("grp", "INT"), ("val", "INT"),
             ("pad", "VARCHAR")],
            [(i, rng.randrange(16), rng.randrange(100000),
              "%06d" % rng.randrange(10 ** 6) * (self.pad_chars // 6))
             for i in range(self.big_rows)],
            index="id",
        )
        facts, dim = facts_and_dim(rng, self.facts_rows, self.dim_rows)
        docs = Table(
            "docs",
            [("id", "INT"), ("body", "BYTEARRAY")],
            [(i, rng.randbytes(self.lob_bytes))
             for i in range(self.docs_rows)],
        )
        self.tables = [big, facts, dim, docs]
        #: Literals of the recurring half: the same texts every round.
        self._recurring = self._literals(random.Random(self.seed ^ 0x5EED))

    def _literals(self, rng):
        return {
            "point": rng.randrange(self.big_rows),
            "range": rng.randrange(self.big_rows - 8),
            "scan_val": 2000 + rng.randrange(2000),
            "scan_grp": rng.randrange(16),
            "group_qty": 500 + rng.randrange(400),
            "join_low": rng.randrange(self.facts_rows - 60),
            "join_weight": rng.randrange(8),
            "top_dim": rng.randrange(self.dim_rows),
            "lob": rng.randrange(self.docs_rows),
        }

    def _texts(self, lit, recurring: bool):
        def stmt(cls, sql, check="rows"):
            return Stmt(cls, sql, check, recurring=recurring)

        return [
            stmt("point",
                 f"SELECT val, grp FROM big WHERE id = {lit['point']}"),
            stmt("range",
                 f"SELECT id, val FROM big WHERE id >= {lit['range']} "
                 f"AND id < {lit['range'] + 8}"),
            stmt("coldscan",
                 f"SELECT id, val FROM big WHERE val < {lit['scan_val']} "
                 f"AND grp = {lit['scan_grp']}"),
            stmt("groupby",
                 f"SELECT dim_id, count(*), sum(qty) FROM facts "
                 f"WHERE qty < {lit['group_qty']} GROUP BY dim_id"),
            stmt("join",
                 f"SELECT d.name, f.qty FROM facts f JOIN dim d "
                 f"ON f.dim_id = d.id WHERE f.id >= {lit['join_low']} "
                 f"AND f.id < {lit['join_low'] + 60} "
                 f"AND d.weight = {lit['join_weight']}"),
            stmt("topn",
                 f"SELECT id, qty FROM facts WHERE dim_id = {lit['top_dim']} "
                 f"ORDER BY qty DESC, id LIMIT 10", "ordered"),
            stmt("lob", f"SELECT body FROM docs WHERE id = {lit['lob']}"),
        ]

    def round_statements(self, index: int):
        fresh = self._literals(random.Random(self.seed * 1000003 + index))
        statements = []
        for again, new in zip(self._texts(self._recurring, True),
                              self._texts(fresh, False)):
            statements += [again, new]
        return statements


PLANS = {plan.name: plan for plan in (UdfInvoke, UdfCompute, SqlRead)}
