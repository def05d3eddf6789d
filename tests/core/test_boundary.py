"""The isolated designs' process boundary carries data only.

Every message between the server and a Design 2/4 worker is
:mod:`repro.adtstream` data.  A worker cannot make the server run code,
by returning an object whose pickle would call something or by writing
raw bytes into its channel, and a worker message the server cannot
read fails the statement with an engine error naming the UDF.  Each
smuggled call here would create a directory; it never appears.
"""

import os
import pickle
import sys
import time

import pytest

import repro.core.isolated as isolated
from repro import adtstream
from repro.database import Database
from repro.errors import UDFCrashed, UDFInvocationError

# -- native payloads (run in the worker) -------------------------------------


class Smuggled:
    """Unpickling this calls ``os.mkdir(path)``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def smuggle(path):
    return Smuggled(path)


def plus_one(x):
    return x + 1


class MadeUpError(Exception):
    pass


def raise_made_up(x):
    raise MadeUpError("not an engine error")


def raise_storage_error(x):
    from repro.errors import WALError

    raise WALError("the log is dead")


def _own_channel():
    """This worker's channel, found on the stack of ``_worker_main``."""
    frame = sys._getframe()
    while frame.f_code.co_name != "_worker_main":
        frame = frame.f_back
    return frame.f_locals["channel"]


def _error(*values):
    """An ``MSG_ERROR`` payload: no denials, then ``values``."""
    return adtstream.dump_rows([]) + adtstream.dump_values(*values)


#: ``case`` -> (message type, payload) a forging worker writes into its
#: own channel in place of its results.
FORGED = {
    "pickle": lambda path: (
        isolated.MSG_RESULT_BATCH, pickle.dumps((Smuggled(path),))
    ),
    "pickled_error": lambda path: (
        isolated.MSG_ERROR, pickle.dumps(Smuggled(path))
    ),
    "too_many_results": lambda path: (
        isolated.MSG_RESULT_BATCH, adtstream.dumps((1, 2))
    ),
    "too_few_results": lambda path: (
        isolated.MSG_RESULT_BATCH, adtstream.dumps(())
    ),
    # An error's denial records are a row batch: forge its columns.
    "truncated_int_column": lambda path: (
        isolated.MSG_ERROR, adtstream.dump_rows([(5,)])[:-3]
    ),
    "unknown_column_kind": lambda path: (
        isolated.MSG_ERROR,
        adtstream._BATCH_HEAD.pack(1, 1) + bytes([99]) + bytes(8)
        + adtstream.dump_error(RuntimeError("denied")),
    ),
    "not_a_row": lambda path: (
        isolated.MSG_RESULT_BATCH, adtstream.dumps(1)
    ),
    "malformed_error": lambda path: (
        isolated.MSG_ERROR, _error("RuntimeError")
    ),
    "malformed_denials": lambda path: (
        isolated.MSG_ERROR,
        adtstream.dump_rows([("not a time", "callback", "cb_noop")])
        + adtstream.dump_error(RuntimeError("denied")),
    ),
    "malformed_callback": lambda path: (
        isolated.MSG_CALLBACK, adtstream.dumps(("cb_noop", 1))
    ),
    "unknown_type": lambda path: (99, adtstream.dumps(1)),
}


def forge(spec):
    """Send a forged message, then exit (``exit``) or hang (``hang``)."""
    case, then, path = spec.split("|")
    _own_channel().worker_send(*FORGED[case](path))
    if then == "exit":
        os._exit(0)
    time.sleep(60)
    return 0


# -- helpers -----------------------------------------------------------------


def _native(db, name, function, param="int"):
    db.execute(
        f"CREATE FUNCTION {name}({param}) RETURNS int LANGUAGE NATIVE "
        f"DESIGN ISOLATED AS 'tests.core.test_boundary:{function}'"
    )


@pytest.fixture
def db():
    with Database() as database:
        database.execute("CREATE TABLE t (a INT)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        database.execute("CREATE TABLE one (p TEXT)")
        _native(database, "inc", "plus_one")
        yield database


def _still_serves(db):
    assert db.query("SELECT inc(a) FROM t") == [(2,), (3,), (4,)]


def _one_text_row(db, text):
    db.execute("DELETE FROM one")
    db.execute(f"INSERT INTO one VALUES ('{text}')")


# -- tests ---------------------------------------------------------------------


class TestNothingSmuggled:
    def test_result_that_pickles_to_a_call_is_refused(self, db, tmp_path):
        target = str(tmp_path / "smuggled")
        _one_text_row(db, target)
        _native(db, "evil", "smuggle", param="text")
        with pytest.raises(UDFInvocationError,
                           match="'evil' returned a value outside"):
            db.query("SELECT evil(p) FROM one")
        assert not os.path.exists(target)
        _still_serves(db)

    def test_raw_pickle_written_into_the_channel_is_refused(
        self, db, tmp_path
    ):
        target = str(tmp_path / "smuggled")
        _one_text_row(db, f"pickle|exit|{target}")
        _native(db, "forger", "forge", param="text")
        with pytest.raises(UDFInvocationError, match="'forger'.*cannot read"):
            db.query("SELECT forger(p) FROM one")
        assert not os.path.exists(target)
        _still_serves(db)


class TestUnreadableMessages:
    """Whatever a worker writes that is not a well-formed message fails
    the statement with a named error and kills the worker, which is
    left hanging here, as if it had crashed."""

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_statement_fails_and_worker_is_killed(self, db, tmp_path, case):
        target = str(tmp_path / "smuggled")
        _one_text_row(db, f"{case}|hang|{target}")
        _native(db, "forger", "forge", param="text")
        started = time.monotonic()
        with pytest.raises(UDFInvocationError, match="'forger'.*cannot read"):
            db.query("SELECT forger(p) FROM one")
        assert time.monotonic() - started < 10
        assert not os.path.exists(target)
        _still_serves(db)


class TestErrorsCrossAsData:
    def test_unknown_error_class_is_named_not_rebuilt(self, db):
        _native(db, "madeup", "raise_made_up")
        with pytest.raises(
            UDFInvocationError,
            match="'madeup' failed remotely: MadeUpError: not an engine",
        ):
            db.query("SELECT madeup(a) FROM t")
        _still_serves(db)

    def test_worker_cannot_claim_a_storage_error(self, db):
        _native(db, "wal", "raise_storage_error")
        with pytest.raises(UDFInvocationError, match="WALError: the log"):
            db.query("SELECT wal(a) FROM t")
        _still_serves(db)


class TestArgumentsCrossAsData:
    def test_argument_outside_64_bits_fails_before_the_worker_sees_it(
        self, db
    ):
        executor = db.registry.executor_for_query("inc")
        executor.begin_query()
        try:
            with pytest.raises(UDFInvocationError, match="'inc'.*64-bit"):
                executor.invoke_batch([(2 ** 70,)])
            # Nothing was written, so the channel is still aligned.
            assert executor.invoke_batch([(41,)]) == [42]
        finally:
            executor.end_query()

    def test_killed_worker_reports_as_a_crash_on_its_next_batch(
        self, db, tmp_path
    ):
        _one_text_row(db, f"not_a_row|hang|{tmp_path / 'x'}")
        _native(db, "forger", "forge", param="text")
        executor = db.registry.executor_for_query("forger")
        executor.begin_query()
        try:
            with pytest.raises(UDFInvocationError, match="cannot read"):
                executor.invoke_batch([("not_a_row|hang|x",)])
            with pytest.raises(UDFCrashed, match="SIGKILL"):
                executor.invoke_batch([("not_a_row|hang|x",)])
        finally:
            executor.end_query()
