"""In-memory operator inputs for the operator-level tests.

Operators read their children through ``batches()`` and evaluate
compiled expressions as batch -> column functions; these helpers give a
test list-backed rows and per-row lambdas in those two forms.
"""

from operator import itemgetter

from repro.sql.operators import PhysicalOp


class Rows(PhysicalOp):
    """Source operator: ``rows`` in batches of ``batch_size``."""

    def __init__(self, rows, batch_size=None):
        self._rows = rows
        if batch_size is not None:
            self.batch_size = batch_size

    def batches(self):
        rows = [list(r) for r in self._rows]
        for start in range(0, len(rows), self.batch_size):
            yield rows[start:start + self.batch_size]


def rowwise(fn):
    """A per-row function as a compiled expression: batch -> column."""
    return lambda batch: [fn(row) for row in batch]


def column(index):
    """The column reference ``row[index]`` as a compiled expression."""
    return rowwise(itemgetter(index))
