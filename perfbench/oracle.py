"""Result oracle: expectations computed without the engine.

UDF-free SQL is answered by stdlib ``sqlite3`` over a mirror of the same
tables; UDF statements by the pure-Python models in :mod:`udf_sources`.
A statement is a :class:`Stmt`; the harness logs what the engine returned
for it and :func:`count_failures` compares afterwards, off the clock.
"""

from __future__ import annotations

import sqlite3


class Stmt:
    """One statement of a round.

    ``check`` says how its rows are judged:

    * ``"rows"`` - equal to the oracle's rows as a multiset;
    * ``"ordered"`` - equal as a list (the text has a total ORDER BY);
    * ``"model"`` - equal to ``expected``, which the workload computed
      from the UDF model when it built the schedule;
    * ``"write"`` - the engine must acknowledge it, and the oracle's
      mirror, replaying it, must touch ``expected`` rows.  (The wire
      protocol reports no row count for DML, so the write's effect is
      judged by the reads that follow it.)
    * ``"multiple_of_4"`` - a read racing another connection's writes:
      only the no-torn-INSERT invariant can be checked.
    """

    __slots__ = ("cls", "sql", "check", "expected", "recurring")

    def __init__(self, cls: str, sql: str, check: str = "rows",
                 expected=None, recurring: bool = False):
        self.cls = cls
        self.sql = sql
        self.check = check
        self.expected = expected
        #: The same text comes back every round (the oracle caches it).
        self.recurring = recurring


_SQLITE_TYPES = {"INT": "INTEGER", "VARCHAR": "TEXT", "BYTEARRAY": "BLOB"}


class SqliteMirror:
    """The workload's tables, loaded into an in-memory sqlite database."""

    def __init__(self, tables):
        self.db = sqlite3.connect(":memory:")
        for table in tables:
            columns = ", ".join(
                f"{name} {_SQLITE_TYPES[kind]}"
                for name, kind in table.columns
            )
            self.db.execute(f"CREATE TABLE {table.name} ({columns})")
            marks = ", ".join("?" for __ in table.columns)
            self.db.executemany(
                f"INSERT INTO {table.name} VALUES ({marks})", table.rows
            )
        self._cache = {}

    def rows(self, sql: str, cache: bool):
        if cache and sql in self._cache:
            return self._cache[sql]
        rows = self.db.execute(sql).fetchall()
        if cache:
            self._cache[sql] = rows
        return rows

    def apply(self, sql: str) -> int:
        return self.db.execute(sql).rowcount

    def close(self) -> None:
        self.db.close()


def _sort_key(row):
    return tuple((value is None, value) for value in row)


def _matches(stmt: Stmt, got, mirror) -> bool:
    if stmt.check == "write":
        # Replay even when the engine refused it, so the mirror stays in
        # step with the schedule for the statements that follow.
        applied = mirror.apply(stmt.sql)
        return applied == stmt.expected and not isinstance(got, Exception)
    if isinstance(got, Exception):
        return False
    if stmt.check == "model":
        return got == stmt.expected
    if stmt.check == "multiple_of_4":
        return len(got) == 1 and got[0][0] % 4 == 0
    want = mirror.rows(stmt.sql, cache=stmt.recurring)
    if stmt.check == "ordered":
        return got == want
    return sorted(got, key=_sort_key) == sorted(want, key=_sort_key)


def count_failures(mirror, streams, report=None) -> int:
    """Judge every logged statement; returns how many were wrong.

    ``streams`` is a list of ``[(Stmt, rows-or-exception), ...]``, each in
    the order one connection issued it (writes replay in that order).
    ``report`` collects a few human-readable mismatches.
    """
    failed = 0
    for stream in streams:
        for stmt, got in stream:
            if _matches(stmt, got, mirror):
                continue
            failed += 1
            if report is not None and len(report) < 5:
                shown = repr(got)
                report.append(f"{stmt.cls}: {stmt.sql!r} -> {shown[:200]}")
    return failed
