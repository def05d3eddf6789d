"""Deterministic fault-injection harness for WAL crash-recovery tests.

The storage layer funnels every file write and fsync through a
:class:`repro.storage.wal.FaultPoint`; this module provides the
implementations the recovery suites drive:

* :class:`OpTrace` — counts the storage operations a workload performs
  (the "fault schedule"): each armed write/fsync gets an index, so a
  crash can later be injected at *every* one of them.
* :class:`CrashPoint` — kills the storage layer at exactly one
  operation index, in one of three ways: ``kill`` (the write never
  happens), ``torn`` (a partial prefix of the write reaches the file),
  or ``fsync`` (the fsync reports failure, after which the engine must
  refuse to acknowledge the commit).

Both stay disarmed during database setup (schema, UDFs, seed rows) and
are armed for the workload proper, so every run of the same workload
sees the identical operation schedule.

The checking protocol (:func:`run_crash_check`) is the acceptance
criterion of the durability issue, verified *bit-identically*:

1. Run the workload against a fresh database until the injected crash.
   Count the statements that completed (``acked``) — including ones
   that failed logically, whose partial effects commit deterministically.
2. Reopen the crashed directory (recovery runs), optionally first
   truncating ``wal.log`` to the last fsynced offset (``lose_tail`` —
   the OS page cache died with the process).  Recovery reports ``R``
   committed statements; require ``acked <= R <= attempted`` (an
   appended-but-unacknowledged commit may legitimately survive when the
   tail does).
3. Close the recovered database (checkpoint) and fingerprint its files.
4. Serially replay the first ``R`` workload statements on a fresh
   database, close, fingerprint, and require byte equality: no
   committed statement lost, no uncommitted statement visible.
"""

from __future__ import annotations

import os
import struct

from repro.database import Database
from repro.errors import SimulatedCrash, WALError
from repro.storage.disk import NO_PAGE
from repro.storage.wal import FaultPoint


class OpTrace(FaultPoint):
    """Permits everything; records the armed operation schedule."""

    def __init__(self) -> None:
        self.armed = False
        self.ops = []  # (kind, site) per armed operation, in order

    def write(self, site: str, size: int) -> int:
        if self.armed:
            self.ops.append(("write", site))
        return size

    def fsync(self, site: str) -> bool:
        if self.armed:
            self.ops.append(("fsync", site))
        return True


class CrashPoint(FaultPoint):
    """Crash at armed operation index ``at`` with the given ``mode``.

    ``mode``:
      - ``"kill"``  — the write at ``at`` lands 0 bytes (process died
        just before the syscall); only meaningful at a write op.
      - ``"torn"``  — the write lands roughly half its bytes (power cut
        mid-write); only meaningful at a write op.
      - ``"fsync"`` — the fsync at ``at`` fails; only meaningful at an
        fsync op.

    ``durable`` tracks the WAL *file* offset covered by the last
    successful WAL fsync (via :meth:`note_durable`, armed or not) — the
    ``lose_tail`` reopen variant truncates the log there to model an OS
    page cache that died with the process.
    """

    def __init__(self, at: int, mode: str) -> None:
        assert mode in ("kill", "torn", "fsync")
        self.at = at
        self.mode = mode
        self.armed = False
        self.count = 0
        self.durable = 0

    def write(self, site: str, size: int) -> int:
        if not self.armed:
            return size
        index = self.count
        self.count += 1
        if index == self.at:
            if self.mode == "kill":
                return 0
            if self.mode == "torn":
                return max(1, size // 2) if size > 1 else 0
        return size

    def fsync(self, site: str) -> bool:
        if not self.armed:
            return True
        index = self.count
        self.count += 1
        return not (index == self.at and self.mode == "fsync")

    def note_durable(self, site: str, offset: int) -> None:
        if site == "wal.fsync":
            self.durable = offset


def apply_statements(db: Database, statements) -> tuple:
    """Run statements until done or crashed.

    Returns ``(acked, crashed)``: ``acked`` counts statements that
    completed — returned a result *or* failed logically (their partial
    effects commit deterministically); an injected crash stops the run.
    """
    acked = 0
    for sql in statements:
        try:
            db.execute(sql)
        except (SimulatedCrash, WALError):
            return acked, True
        except Exception:
            pass  # logical failure: still one committed statement
        acked += 1
    return acked, False


def check_free_list(db: Database) -> list:
    """Walk the free list and assert it is structurally sound.

    Every entry must be a valid page id, the chain must be acyclic and
    terminate at ``NO_PAGE`` — the invariants a commit record carrying
    another statement's uncommitted ``free_head`` would break after a
    crash (stale table bytes read as a chain pointer).  Returns the
    free page ids in chain order.
    """
    npages, head = db.disk.geometry()
    seen = []
    page_id = head
    while page_id != NO_PAGE:
        assert 1 <= page_id < npages, (
            f"free list entry {page_id} outside [1, {npages})"
        )
        assert page_id not in seen, (
            f"free list cycles back to page {page_id}"
        )
        seen.append(page_id)
        assert len(seen) <= npages, "free list longer than the file"
        with db.pool.pinned(page_id) as data:
            (page_id,) = struct.unpack_from("<I", data, 0)
    return seen


def fingerprint(path: str) -> dict:
    """Byte content of a *closed* database directory's durable files."""
    out = {}
    for name in ("data.pages", "catalog.json"):
        full = os.path.join(path, name)
        with open(full, "rb") as handle:
            out[name] = handle.read()
    return out


def build_db(path: str, setup, faults=None) -> Database:
    """Create a database and run the (unarmed) setup statements."""
    db = Database(path, faults=faults)
    for sql in setup:
        db.execute(sql)
    return db


def trace_ops(base: str, setup, statements) -> list:
    """The armed operation schedule one run of the workload performs."""
    trace = OpTrace()
    db = build_db(os.path.join(base, "trace"), setup, faults=trace)
    trace.armed = True
    acked, crashed = apply_statements(db, statements)
    assert not crashed and acked == len(statements)
    trace.armed = False
    db.close()
    return trace.ops

def replay_fingerprint(path: str, setup, statements, n: int) -> dict:
    """Fingerprint of a fresh database after ``setup`` + the first
    ``n`` workload statements and a clean close."""
    db = build_db(path, setup)
    acked, crashed = apply_statements(db, statements[:n])
    assert not crashed and acked == n
    db.close()
    return fingerprint(path)


def abandon(db: Database) -> None:
    """Drop a live ``db`` as its process dying would: no checkpoint and
    no header write, so reopening recovers from the log, but its
    executors, zygote, log and data file are closed rather than left to
    the garbage collector."""
    db.registry.close()
    db.environment.close()
    db.wal.close()
    db.disk.close(sync=False)


def run_crash_check(
    base: str,
    setup,
    statements,
    at: int,
    mode: str,
    lose_tail: bool,
    replays: dict,
) -> int:
    """Crash one run at operation ``at``; verify recovery bit-exactly.

    ``base`` is a scratch directory; ``replays`` caches serial-replay
    fingerprints keyed by committed-prefix length (shared across crash
    points of the same workload).  Returns ``R``, the number of
    statements recovery found committed.
    """
    crash_dir = os.path.join(base, f"crash-{mode}-{at}-{int(lose_tail)}")
    point = CrashPoint(at, mode)
    db = build_db(crash_dir, setup, faults=point)
    point.armed = True
    acked, crashed = apply_statements(db, statements)
    point.armed = False
    assert crashed, (
        f"op {at} ({mode}) did not crash the workload "
        f"(acked {acked}/{len(statements)})"
    )
    # The storage layer is dead, so close() skips the checkpoint and
    # leaves the files as the crash did; it still reaps the executor
    # zygote, which a real crash would take down with the process.
    db.close()

    if lose_tail:
        # The un-fsynced log tail dies with the OS page cache.
        wal_path = os.path.join(crash_dir, "wal.log")
        size = os.path.getsize(wal_path)
        keep = min(point.durable, size)
        with open(wal_path, "r+b") as handle:
            handle.truncate(keep)

    recovered = Database(crash_dir)
    # The log holds everything since the database was created, setup
    # included; the workload prefix is what comes after it.
    r = recovered.wal.recovered_statements - len(setup)
    recovered.close()
    assert acked <= r <= len(statements), (
        f"op {at} ({mode}, lose_tail={lose_tail}): acked {acked} but "
        f"recovered {r} of {len(statements)}"
    )

    if r not in replays:
        replays[r] = replay_fingerprint(
            os.path.join(base, f"replay-{r}"), setup, statements, r
        )
    got = fingerprint(crash_dir)
    want = replays[r]
    assert got == want, (
        f"op {at} ({mode}, lose_tail={lose_tail}): recovered state "
        f"differs from serial replay of {r} committed statements"
    )
    return r
