"""``server_mixed``: one server child process on a path-backed WAL
database, driven over the wire by two closed-loop connections from one
single-threaded selector loop in the harness process.

A *joint round* ends when both connections have finished their list.  The
harness tells the child to checkpoint at the start of every
``CHECKPOINT_EVERY``-th joint round, so the checkpoint runs beside that
round's statements and its stall is inside the round.  Every 10th, not
every 50th as first planned: a stall in 2 % of the rounds is beyond the
95th percentile and would show in no metric; in 10 % of them,
``round_p95_ms`` is the typical checkpointed round.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time

import engine_api
import udf_sources
from oracle import Stmt, count_failures
from workloads import Plan, Table, Workload, facts_and_dim

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT_EVERY = 10
CONNECTIONS = ("a", "b")
#: Batches of 4 rows each connection's own table holds at any time.
LIVE_BATCHES = 16


class ServerMixed(Plan):
    name = "server_mixed"
    why = ("2 wire connections on one WAL-backed server: plan-cached "
           "SELECTs, a sandboxed UDF, INSERT/UPDATE/DELETE with fsync per "
           "commit, MVCC snapshots and checkpoints all at once")
    page_size = 4096
    buffer_capacity = 128
    path_backed = True
    facts_rows = 600
    dim_rows = 64
    udf = udf_sources.udf_name("score", "sandbox_jit")

    def build(self) -> None:
        rng = self.rng
        facts, dim = facts_and_dim(rng, self.facts_rows, self.dim_rows)
        self.tables = [facts, dim]
        for conn in CONNECTIONS:
            self.tables.append(Table(
                f"t{conn}",
                [("id", "INT"), ("batch", "INT"), ("val", "INT")],
                [(4 * batch + k, batch, rng.randrange(1000))
                 for batch in range(LIVE_BATCHES) for k in range(4)],
            ))
        self.functions = [
            udf_sources.create_function_sql("score", "sandbox_jit")
        ]
        self._facts = facts.rows
        self._recurring = {
            conn: (rng.randrange(self.facts_rows),
                   rng.randrange(self.facts_rows - 150),
                   rng.randrange(self.facts_rows - 60), rng.randrange(8))
            for conn in CONNECTIONS
        }

    def insert_sql(self, conn: str, batch: int, rng) -> str:
        values = ", ".join(
            f"({4 * batch + k}, {batch}, {rng.randrange(1000)})"
            for k in range(4)
        )
        return f"INSERT INTO t{conn} VALUES {values}"

    def connection_statements(self, conn: str, index: int):
        rng = random.Random(self.seed * 1000003 + index * 2
                            + CONNECTIONS.index(conn))
        own = f"t{conn}"
        other = f"t{'b' if conn == 'a' else 'a'}"
        point, group_low, join_low, weight = self._recurring[conn]
        low = rng.randrange(self.facts_rows - 24)
        expected = [
            (udf_sources.score_model(qty, dim_id),)
            for __, dim_id, qty, __ in self._facts[low:low + 24]
        ]
        newest = LIVE_BATCHES + index

        def again(cls, sql, check="rows"):
            return Stmt(cls, sql, check, recurring=True)

        return [
            again("select_point",
                  f"SELECT qty, price FROM facts WHERE id = {point}"),
            again("select_group",
                  f"SELECT dim_id, count(*), sum(qty) FROM facts "
                  f"WHERE id >= {group_low} AND id < {group_low + 150} "
                  f"GROUP BY dim_id"),
            again("select_join",
                  f"SELECT d.name, f.qty FROM facts f JOIN dim d "
                  f"ON f.dim_id = d.id WHERE f.id >= {join_low} "
                  f"AND f.id < {join_low + 60} AND d.weight = {weight}"),
            Stmt("udf_select",
                 f"SELECT {self.udf}(f.qty, f.dim_id) FROM facts f "
                 f"WHERE f.id >= {low} AND f.id < {low + 24}",
                 "model", expected),
            Stmt("insert", self.insert_sql(conn, newest, rng), "write", 4),
            Stmt("update",
                 f"UPDATE {own} SET val = val + {1 + rng.randrange(9)} "
                 f"WHERE batch = {newest - 1}", "write", 4),
            Stmt("select_own",
                 f"SELECT count(*), sum(val) FROM {own} "
                 f"WHERE batch >= {newest - 2}"),
            Stmt("delete", f"DELETE FROM {own} WHERE batch = {index}",
                 "write", 4),
            again("select_other", f"SELECT count(*) FROM {other}",
                  "multiple_of_4"),
        ]

    def round_statements(self, index: int):
        """Both connections' lists, ``a`` first."""
        return [
            stmt
            for conn in CONNECTIONS
            for stmt in self.connection_statements(conn, index)
        ]


class ServerChild:
    """The server process and the line protocol the harness drives it by."""

    def __init__(self, workdir: str, seed: int, smoke: bool):
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             workdir, str(seed), str(int(smoke))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True,
        )
        self.expect("ready")

    @property
    def pid(self) -> int:
        return self.process.pid

    def send(self, op: str) -> None:
        self.process.stdin.write(json.dumps({"op": op}) + "\n")
        self.process.stdin.flush()

    def expect(self, key: str) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with {self.process.wait()} "
                f"while the harness waited for {key!r}"
            )
        reply = json.loads(line)
        if key not in reply:
            raise RuntimeError(f"server child said {reply}, not {key!r}")
        return reply

    def call(self, op: str, key: str) -> dict:
        self.send(op)
        return self.expect(key)

    def kill(self) -> None:
        """SIGKILL and reap; safe to call twice."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.call("stop", "stopped")
            except (OSError, RuntimeError):
                pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        self.kill()


class ServerWorkload(Workload):
    """Drives a :class:`ServerMixed` plan through a server child."""

    def __init__(self, plan: ServerMixed):
        super().__init__(plan)
        self.child = None
        self.clients = []
        self.workdir = None
        self.checkpoint_pending = False
        self.checkpoint_ms = []
        #: Per connection: seconds each of its round lists took.
        self.connection_walls = {conn: [] for conn in CONNECTIONS}
        #: Traced rounds only: (slot, position in its list, sent, received).
        self.wire_log = None

    def live_pids(self):
        return [self.child.pid]

    def prepare(self, workdir: str) -> None:
        """Start the child's interpreter and let it generate its copy of
        the data: neither is part of set-up time."""
        self.workdir = workdir
        self.child = ServerChild(workdir, self.plan.seed, self.plan.smoke)

    def setup(self, workdir: str) -> None:
        reply = self.child.call("setup", "port")
        self.clients = [
            engine_api.SplitClient("127.0.0.1", reply["port"])
            for __ in CONNECTIONS
        ]
        self.selector = selectors.DefaultSelector()
        for slot, client in enumerate(self.clients):
            self.selector.register(client.sock, selectors.EVENT_READ, slot)
        self.warmup_results = self.round(0)

    def round(self, index: int):
        """One joint round: both connections run their lists closed-loop,
        a statement in flight on each, until both are done."""
        plan = self.plan
        if index and index % CHECKPOINT_EVERY == 0:
            self.child.send("checkpoint")
            self.checkpoint_pending = True
        statements = plan.statements(index)
        half = len(statements) // 2
        lists = [statements[:half], statements[half:]]
        results = [[], []]
        clients = self.clients
        clock = time.perf_counter
        started = clock()
        sent_at = [started, started]
        record = self.wire_log
        if not clients[0].split:
            # No way to overlap: connections take turns, still closed loop.
            for slot, statements in enumerate(lists):
                for stmt in statements:
                    results[slot].append(self._reply(clients[slot], stmt))
                self.connection_walls[CONNECTIONS[slot]].append(
                    clock() - started)
            return results[0] + results[1]
        for slot, client in enumerate(clients):
            client.send(lists[slot][0].sql)
        open_slots = 2
        while open_slots:
            for key, __ in self.selector.select():
                slot = key.data
                done = results[slot]
                done.append(self._receive(clients[slot]))
                now = clock()
                if record is not None:
                    record.append((slot, len(done) - 1, sent_at[slot], now))
                if len(done) < len(lists[slot]):
                    sent_at[slot] = now
                    clients[slot].send(lists[slot][len(done)].sql)
                else:
                    open_slots -= 1
                    self.connection_walls[CONNECTIONS[slot]].append(
                        now - started)
        return results[0] + results[1]

    @staticmethod
    def _receive(client):
        try:
            return client.recv()
        except RuntimeError as exc:     # the server's ERROR frame
            return exc

    def _reply(self, client, stmt):
        client.send(stmt.sql)
        return self._receive(client)

    def after_round(self) -> None:
        """At the joint-round barrier, off the clock: collect the reply of
        a checkpoint that ran beside the round."""
        if self.checkpoint_pending:
            self.checkpoint_pending = False
            self.checkpoint_ms.append(
                self.child.expect("checkpoint_ms")["checkpoint_ms"])

    def teardown(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        if self.child is not None:
            self.child.stop()
            self.child = None

    def verify(self, logs, report) -> int:
        mirror = self.plan.mirror()
        try:
            streams = [[], []]
            for index, results in logs:
                statements = self.plan.statements(index)
                half = len(statements) // 2
                pairs = list(zip(statements, results))
                streams[0] += pairs[:half]
                streams[1] += pairs[half:]
            return count_failures(mirror, streams, report)
        finally:
            mirror.close()

    # -- durability epilogue (untimed) ---------------------------------------

    BURST_ACKED = 6

    def epilogue(self, on_reopen=None):
        """SIGKILL mid write burst, reopen, require every acknowledged
        write; then the same with the un-fsynced log tail cut off.
        ``on_reopen(db)`` lets the traced run use the recovered database."""
        plan = self.plan
        rng = random.Random(plan.seed ^ 0xD00D)
        batch = LIVE_BATCHES + len(plan.schedule) + 1000
        conn = self.clients[0]
        acked = []
        for offset in range(self.BURST_ACKED):
            try:
                conn.execute(plan.insert_sql("a", batch + offset, rng))
            except RuntimeError:
                continue                # refused: failed, not acknowledged
            acked.append(batch + offset)
        refused = self.BURST_ACKED - len(acked)
        # One more write in flight when the process dies.
        conn.send(plan.insert_sql("a", batch + self.BURST_ACKED, rng))
        self.child.kill()
        for client in self.clients:
            client.abandon()
        self.clients = []
        started = time.perf_counter()
        db = engine_api.open_database(
            os.path.join(self.workdir, "db"), plan.page_size,
            plan.buffer_capacity,
        )
        self.recovery_ms = (time.perf_counter() - started) * 1000.0
        try:
            lost = self._lost_batches(db, acked)
            if on_reopen is not None:
                on_reopen(db)
        finally:
            db.close()
        tail_checks, tail_lost = self._dropped_tail_check(rng)
        return (self.BURST_ACKED + 1 + tail_checks,
                refused + lost + tail_lost)

    @staticmethod
    def _lost_batches(db, acked) -> int:
        """Acknowledged batches that are missing, plus 1 if any batch is
        torn (a multi-row INSERT must be all or nothing)."""
        counts = dict(db.execute(
            "SELECT batch, count(*) FROM ta GROUP BY batch").rows)
        lost = sum(1 for batch in acked if counts.get(batch) != 4)
        torn = any(count != 4 for count in counts.values())
        return lost + (1 if torn else 0)

    def _dropped_tail_check(self, rng):
        """kill -9 leaves the OS cache intact, so it cannot catch a commit
        acknowledged before its fsync.  Here an embedded engine dies at a
        WAL append and the harness truncates the log to the last fsynced
        offset before reopening."""
        plan = self.plan
        try:
            faults = engine_api.TailDroppingFaults()
        except engine_api.ProbeUnavailable as exc:
            print(f"perfbench: warning: {exc}", file=sys.stderr)
            return 0, 0
        path = os.path.join(self.workdir, "tail-db")
        db = faults.open_database(path, plan.page_size, plan.buffer_capacity)
        table = next(t for t in plan.tables if t.name == "ta")
        for sql in table.ddl():
            db.execute(sql)
        db.insert_rows(table.name, table.rows)
        db.checkpoint()
        faults.arm(die_at=14)
        acked = []
        for offset in range(20):
            batch = LIVE_BATCHES + offset
            try:
                db.execute(plan.insert_sql("a", batch, rng))
            except faults.crash_error:
                break
            acked.append(batch)
        db.close()
        with open(os.path.join(path, "wal.log"), "r+b") as log:
            log.truncate(faults.durable)
        db = engine_api.open_database(
            path, plan.page_size, plan.buffer_capacity)
        try:
            lost = self._lost_batches(db, acked)
        finally:
            db.close()
        return len(acked) + 1, lost
