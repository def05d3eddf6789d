"""Shared fixtures."""

import multiprocessing
import sys

import pytest

import repro.core.sandbox as sandbox
from repro.database import Database


@pytest.fixture(autouse=True, scope="module")
def no_zygote_outlives_its_module():
    """Fail a module that leaves an isolated-executor zygote running.

    A zygote lives until its ``Database`` (or hand-built
    ``ServerEnvironment``) is closed, so one still alive after the
    module's own fixtures are torn down belongs to a database the module
    abandoned.  The leaked zygotes are killed, so the next module starts
    clean.
    """
    isolated = sys.modules.get("repro.core.isolated")
    before = set(isolated._ZygoteProcess.live) if isolated else set()
    yield
    isolated = sys.modules.get("repro.core.isolated")
    leaked = set(isolated._ZygoteProcess.live) - before if isolated else ()
    for zygote in leaked:
        zygote.kill()
        zygote.join(None)
    if leaked:
        pytest.fail(
            f"{len(leaked)} executor zygote(s) started in this module are "
            f"still alive: close the Database that ran isolated statements"
        )


@pytest.fixture
def db():
    """A fresh in-memory database per test."""
    database = Database()
    yield database
    database.close()


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "dbdir")


@pytest.fixture
def kernel_batches(monkeypatch):
    """Counts batches that entered a tier-1 kernel, in this process or in
    a forked worker (which inherits the patch and the shared counter)."""
    counter = multiprocessing.Value("i", 0)
    original = sandbox.run_tiered_batch

    def counting(*args):
        with counter.get_lock():
            counter.value += 1
        return original(*args)

    monkeypatch.setattr(sandbox, "run_tiered_batch", counting)
    return counter
