"""One write statement over a bare buffer pool, for pool-level tests.

``Database._run_write`` without the log: attribute the body's dirty
pages and frees to a tracker, then publish the statement's frees onto
the shared free list.  A page freed inside the block is reusable only
after it.
"""

from contextlib import contextmanager


@contextmanager
def statement(pool):
    tracker = pool.begin_tracking()
    try:
        yield tracker
        pool.publish_frees(tracker)
    finally:
        pool.end_tracking(tracker)
