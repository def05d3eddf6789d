"""``invoke_batch`` contract: every design, checked against a Python model.

The batch entry point is every design's only way in; its contract is one
result per argument tuple, in order, first failure propagating with no
later row run.  ``invoke`` is a one-row batch, so it is checked against
the same model rather than used as a reference.
"""

import pytest

from repro.core.designs import Design
from repro.core.generic_udf import generic_definition
from repro.database import Database

ALL_DESIGNS = tuple(Design)
IN_PROCESS = tuple(d for d in ALL_DESIGNS if not d.is_isolated)
ISOLATED = tuple(d for d in ALL_DESIGNS if d.is_isolated)


@pytest.fixture()
def db():
    with Database() as database:
        yield database


def _executor(db, design):
    definition = generic_definition(design)
    db.register_udf(definition, persist=False)
    return db.registry.executor_for_query(definition.name)


def _args(count):
    # (data, num_indep, num_dep, num_callbacks); expected result is
    # num_indep + num_dep * sum(data).
    return [
        (bytes([row % 251, row % 7]), row, 1, 0) for row in range(count)
    ]


def _expected(args_list):
    return [indep + dep * sum(data) for data, indep, dep, __ in args_list]


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_matches_per_tuple_results(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        args_list = _args(10)
        assert executor.invoke_batch(args_list) == _expected(args_list)
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_batch_equals_loop_of_invokes(db, design):
    # Both sides against the model: ``invoke`` runs the batch routine
    # (the tier-1 kernel included), so it is no independent reference.
    executor = _executor(db, design)
    try:
        executor.begin_query()
        args_list = _args(7)
        assert [executor.invoke(args) for args in args_list] == (
            _expected(args_list)
        )
        assert executor.invoke_batch(args_list) == _expected(args_list)
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_one_row_batch(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        args_list = [(b"\x03\x04", 5, 2, 0)]
        assert executor.invoke_batch(args_list) == [19]
        assert executor.invoke(args_list[0]) == 19
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_empty_batch(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        assert executor.invoke_batch([]) == []
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", IN_PROCESS)
def test_callbacks_cross_per_call(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        args_list = [(b"", 0, 0, 3), (b"", 0, 0, 2)]
        # cb_noop returns 0, so results are 0; what matters is that the
        # batch path dispatches the per-call callbacks without error.
        assert executor.invoke_batch(args_list) == [0, 0]
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", (Design.NATIVE_ISOLATED,))
def test_isolated_batch_with_callbacks(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        args_list = [(b"\x05", 1, 1, 2), (b"\x02", 2, 0, 1)]
        assert executor.invoke_batch(args_list) == [6, 2]
    finally:
        executor.end_query()
        executor.close()


def test_invoke_is_a_one_row_batch(db):
    """An executor implements only ``invoke_batch``; ``invoke`` rides it."""
    from repro.core.factory import UDFExecutor

    calls = []

    class Minimal(UDFExecutor):
        def invoke_batch(self, args_list):
            calls.append([tuple(args) for args in args_list])
            return [sum(args) for args in args_list]

    definition = generic_definition(Design.NATIVE_INTEGRATED)
    executor = Minimal(definition, db.environment)
    assert executor.invoke((1, 2)) == 3
    assert executor.invoke_batch([(3, 4)]) == [7]
    assert calls == [[(1, 2)], [(3, 4)]]


@pytest.mark.parametrize("design", IN_PROCESS)
def test_first_failure_propagates(db, design):
    executor = _executor(db, design)
    try:
        executor.begin_query()
        # Arity violation inside the batch: designs surface their own
        # error types, but the batch must raise rather than return.
        with pytest.raises(Exception):
            executor.invoke_batch([(b"", 0, 0, 0), (b"",)])
    finally:
        executor.end_query()
        executor.close()


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_first_failure_stops_the_batch(db, design):
    """The failing row's own error class; no row after it runs.

    Every good row makes one ``cb_noop`` callback, and the query's
    binding counts them server-side (an isolated worker's callbacks
    cross back to it), so the count says which rows ran.
    """
    executor = _executor(db, design)
    try:
        binding = db.broker.bind()
        executor.begin_query(binding)
        good = (b"", 0, 0, 1)
        bad = (b"",)  # arity violation
        with pytest.raises(Exception) as alone:
            executor.invoke(bad)
        assert binding.invocations.get("cb_noop", 0) == 0
        with pytest.raises(Exception) as in_batch:
            executor.invoke_batch([good, good, bad, good, good])
        assert type(in_batch.value) is type(alone.value)
        assert binding.invocations["cb_noop"] == 2
        # The executor survives the failure: the next batch runs whole.
        assert executor.invoke_batch([good]) == [0]
        assert binding.invocations["cb_noop"] == 3
    finally:
        executor.end_query()
        executor.close()
